(* lxfi_sim — command-line driver for the LXFI reproduction.

     lxfi_sim paper [SECTION...]             the paper's evaluation tables
     lxfi_sim reference                      enforcement-neutrality JSON
     lxfi_sim exploit [NAME] [--mode MODE]   run CVE exploits
     lxfi_sim annotations                    the annotated kernel API
     lxfi_sim state                          principal and capability state
     lxfi_sim dump MODULE [--mode MODE]      instrumented MIR of a module
     lxfi_sim faultsim [--seed N]            fault-injection campaign
     lxfi_sim lifecycle [--seed N]           hot-upgrade + repair/replay campaign
     lxfi_sim fuzz [--seed N] [--runs K]     adversarial differential fuzzing
     lxfi_sim trace WORKLOAD [--seed N]      event trace + principal profile
     lxfi_sim runmod FILE [--entry F]        load and run a textual MIR module
     lxfi_sim check [MODULE|--all] [--json F] static annotation + capflow check
*)

open Cmdliner
open Kmodules

let mode_conv =
  let parse = function
    | "stock" -> Ok Lxfi.Config.stock
    | "xfi" -> Ok Lxfi.Config.xfi
    | "lxfi" -> Ok Lxfi.Config.lxfi
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S (stock|xfi|lxfi)" s))
  in
  let print ppf c = Fmt.string ppf (Lxfi.Config.mode_name c.Lxfi.Config.mode) in
  Arg.conv (parse, print)

let mode_arg =
  Arg.(
    value
    & opt (some mode_conv) None
    & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"Enforcement mode: stock, xfi or lxfi.")

(* Counts that must be at least 1: --limit (Trace.make refuses a smaller
   capacity), and fuzz's --runs and --mutants. *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer >= 1" s))
  in
  Arg.conv (parse, Fmt.int)

let seed_arg default =
  Arg.(
    value & opt int default
    & info [ "s"; "seed" ] ~docv:"SEED"
        ~doc:"Seed; the same seed reproduces the same output byte for byte.")

let json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write a machine-readable (byte-stable) report to $(docv).")

(* Runs [f], which writes reports, traces or repros, and exits with the
   status it returns.  A path it cannot write is a CLI error (exit 124),
   not an uncaught exception (exit 125), and [files] and [dirs], the
   outputs it will write, fail before it runs: each file is created,
   and each directory must exist or have a parent to be made in. *)
let writing ?(files = []) ?(dirs = []) f =
  let can_make dir =
    if not (Sys.file_exists dir || Sys.file_exists (Filename.dirname dir)) then
      raise (Sys_error (dir ^ ": No such file or directory"))
  in
  match
    List.iter (fun file -> close_out (open_out file)) files;
    List.iter can_make dirs;
    f ()
  with
  | rc -> exit rc
  | exception Sys_error e -> Error e

(* ---- exploit ---- *)

let exploit_cmd =
  let name_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:"Exploit to run (CAN_BCM, Econet, RDS, RDS(w), Rootkit, ...); all if omitted.")
  in
  let run name mode =
    let selected =
      match name with
      | None -> Ok Exploits.Pid_rootkit.all
      | Some n -> (
          match
            List.find_opt
              (fun (e : Exploits.Exploit.t) ->
                String.lowercase_ascii e.Exploits.Exploit.name = String.lowercase_ascii n)
              Exploits.Pid_rootkit.all
          with
          | Some e -> Ok [ e ]
          | None -> Error ("unknown exploit " ^ n))
    in
    let modes =
      match mode with
      | Some m -> [ m ]
      | None -> [ Lxfi.Config.stock; Lxfi.Config.xfi; Lxfi.Config.lxfi ]
    in
    Result.map
      (List.iter (fun e ->
           List.iter
             (fun m ->
               let r = Exploits.Exploit.run_in_mode e m in
               Fmt.pr "%a@." Exploits.Exploit.pp_result r)
             modes))
      selected
  in
  Cmd.v
    (Cmd.info "exploit" ~doc:"Run the CVE exploit reproductions (Figure 8).")
    Term.(term_result' (const run $ name_arg $ mode_arg))

(* ---- paper ---- *)

let paper_cmd =
  let sections =
    Arg.(
      value
      & pos_all (enum (List.map (fun (name, _) -> (name, name)) Paper.sections)) []
      & info [] ~docv:"SECTION"
          ~doc:"Section to print: fig7 to fig13, guards, ablation, captable, \
                rewrite or overheads; all if omitted.")
  in
  Cmd.v
    (Cmd.info "paper"
       ~doc:"Print the paper's evaluation tables (Figures 7-13, the ablations \
             and per-module overheads) with the paper's values alongside.  \
             guards and captable are host timings; every other section is \
             deterministic.  fig7 counts this source tree, so run it from the \
             source root.")
    Term.(term_result' (const Paper.print $ sections))

(* ---- reference ---- *)

let reference_cmd =
  let run () = print_string (Paper.reference ()) in
  Cmd.v
    (Cmd.info "reference"
       ~doc:"Print the enforcement-neutrality reference: the Figure 13 guard \
             counters and simulated cycles plus the faultsim seed-42 outcomes, \
             as JSON.  dune runtest diffs it against \
             test/reference/guard_reference.json.")
    Term.(const run $ const ())

(* ---- annotations ---- *)

let annotations_cmd =
  let run () =
    let sys = Ksys.boot Lxfi.Config.lxfi in
    let rt = sys.Ksys.rt in
    let print width (d : Annot.Registry.slot) =
      Fmt.pr "  %-*s (%s)@.      %s@." width d.sl_name (String.concat ", " d.sl_params)
        (match Annot.Ast.to_string d.sl_annot with "" -> "(no contract)" | a -> a)
    in
    Fmt.pr "== function-pointer slot types ==@.";
    List.iter (print 36) (Annot.Registry.all rt.Lxfi.Runtime.registry);
    Fmt.pr "@.== annotated kernel exports ==@.";
    Hashtbl.fold (fun _ ke acc -> ke.Lxfi.Runtime.ke_decl :: acc) rt.Lxfi.Runtime.kexports []
    |> List.sort (fun (a : Annot.Registry.slot) b -> String.compare a.sl_name b.sl_name)
    |> List.iter (print 28)
  in
  Cmd.v
    (Cmd.info "annotations" ~doc:"Dump the annotated kernel API surface.")
    Term.(const run $ const ())

(* ---- state ---- *)

let state_cmd =
  let run () =
    (* boot a representative system, run some traffic, dump LXFI state *)
    let sys = Ksys.boot Lxfi.Config.lxfi in
    let net = Workloads.Netperf_sim.attach sys in
    List.iter (fun spec -> ignore (Mod_common.install sys spec)) [ Rds.spec; Dm_crypt.spec ];
    ignore
      (Result.get_ok
         (Kernel_sim.Blockdev.dm_create sys.Ksys.blk ~target:"crypt" ~name:"c0"
            ~len:1024 ~arg:7));
    ignore (Kernel_sim.Sockets.sys_socket sys.Ksys.sock ~family:Kernel_sim.Sockets.af_rds ~typ:2);
    for _ = 1 to 4 do
      let skb = Kernel_sim.Skbuff.alloc sys.Ksys.kst 64 in
      Kernel_sim.Skbuff.set_dev sys.Ksys.kst skb net.Workloads.Netperf_sim.dev;
      ignore (Kernel_sim.Netdev.dev_queue_xmit sys.Ksys.net skb)
    done;
    Workloads.Netperf_sim.drain net;
    print_string (Lxfi.Inspect.to_string sys.Ksys.rt)
  in
  Cmd.v
    (Cmd.info "state"
       ~doc:"Boot a demo system, run traffic, and dump LXFI's principal and \
             capability state.")
    Term.(const run $ const ())

(* ---- dump ---- *)

let dump_cmd =
  let name_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"MODULE" ~doc:"Module name (e.g. e1000, rds, can_bcm).")
  in
  let run name mode =
    let config = Option.value ~default:Lxfi.Config.lxfi mode in
    match Catalog.find name with
    | None ->
        Error
          (Printf.sprintf "unknown module %s (try: %s)" name
             (String.concat ", " (List.map (fun s -> s.Mod_common.name) Catalog.all)))
    | Some spec ->
        let prog = spec.Mod_common.make (Ksys.boot config) in
        let prog, report = Lxfi.Rewriter.instrument config prog in
        Ok
          (Fmt.pr "/* %s, %s mode: %a */@.@.%a@." name
             (Lxfi.Config.mode_name config.Lxfi.Config.mode)
             Lxfi.Rewriter.pp_report report Mir.Printer.pp_prog prog)
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print a module's (instrumented) MIR.")
    Term.(term_result' (const run $ name_arg $ mode_arg))

(* ---- faultsim ---- *)

let faultsim_cmd =
  let trace_dir =
    Arg.(
      value & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:"Capture each cell's faulting window as Chrome trace-event JSON \
                into $(docv) (one file per cell).")
  in
  let run seed trace_dir =
    writing (fun () ->
        Option.iter (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755) trace_dir;
        let rows, breaches = Workloads.Faultsim.run ?trace_dir ~seed () in
        Workloads.Faultsim.print ~seed rows breaches)
  in
  Cmd.v
    (Cmd.info "faultsim"
       ~doc:"Run the deterministic fault-injection campaign against the \
             quarantine policy (alloc-fail, drop-grant, corrupt-slot, \
             watchdog x netperf, can, rds).")
    Term.(term_result' (const run $ seed_arg 42 $ trace_dir))

(* ---- lifecycle ---- *)

let lifecycle_cmd =
  let run seed json =
    writing ~files:(Option.to_list json) (fun () ->
        let rows, breaches = Workloads.Lifecycle.run ~seed () in
        let rc = Workloads.Lifecycle.print ~seed rows breaches in
        Option.iter
          (fun file ->
            Workloads.Bench_json.write_file file
              (Workloads.Lifecycle.to_json ~seed rows breaches))
          json;
        rc)
  in
  Cmd.v
    (Cmd.info "lifecycle"
       ~doc:"Run the live module lifecycle campaign: hot upgrades under \
             netperf/can/rds traffic plus quarantine->repair->replay recovery \
             cycles, asserting the liveness, violation-free-swap, counter \
             reconciliation and recovery-replay oracles.")
    Term.(term_result' (const run $ seed_arg 1 $ json_arg))

(* ---- fuzz ---- *)

let fuzz_cmd =
  let runs =
    Arg.(
      value & opt positive 100
      & info [ "r"; "runs" ] ~docv:"N" ~doc:"Generated clean cases per campaign.")
  in
  let mutants =
    Arg.(
      value & opt positive 4
      & info [ "m"; "mutants" ] ~docv:"M"
          ~doc:"Attack mutants derived from each clean case (classes rotate so \
                every class gets equal coverage).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:"Write minimized .mir repros for any divergence into $(docv).")
  in
  let exemplars =
    Arg.(
      value & flag
      & info [ "exemplars" ]
          ~doc:"Instead of a campaign, write one minimized detected-attack \
                repro per mutation class (plus a clean module) into --out; \
                this is how test/corpus is generated.")
  in
  let run seed runs mutants out json exemplars =
    match (exemplars, out) with
    | true, None -> Error "--exemplars requires --out DIR"
    | true, Some dir -> writing ~dirs:[ dir ] (Workloads.Fuzz_run.print_exemplars ~seed ~out:dir)
    | false, _ ->
        writing ~files:(Option.to_list json) ~dirs:(Option.to_list out)
          (Workloads.Fuzz_run.print ~mutants_per_case:mutants ?out ?json ~seed ~runs)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Run the seeded adversarial fuzz campaign: generated modules \
             checked under the differential oracles (stock vs lxfi agreement, \
             mutant detection by violation class, static/runtime consistency, \
             trace reconciliation), with failing cases minimized to \
             replayable MIR repros.")
    Term.(term_result' (const run $ seed_arg 1 $ runs $ mutants $ out $ json_arg $ exemplars))

(* ---- trace ---- *)

let trace_cmd =
  let workload_arg =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun w -> (w, w)) Workloads.Trace_run.workload_names))) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload to trace: netperf, can or rds.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE.json"
          ~doc:"Write the trace as Chrome trace-event JSON (chrome://tracing).")
  in
  let limit =
    Arg.(
      value & opt positive Trace.default_capacity
      & info [ "limit" ] ~docv:"N"
          ~doc:"Ring-buffer capacity: retain at most $(docv) events (newest win).")
  in
  let run workload seed out limit =
    writing ~files:(Option.to_list out) (fun () ->
        Workloads.Trace_run.run ~seed ~limit ?out ~workload Fmt.stdout)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Trace a workload run: per-principal and per-entry-point profile \
             (cycles by category, guards by type), optional Chrome trace-event \
             JSON export.")
    Term.(term_result' (const run $ workload_arg $ seed_arg 1 $ out $ limit))

(* ---- check ---- *)

let check_cmd =
  let module_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"MODULE"
          ~doc:"Catalog module to check (e.g. e1000, rds, can_bcm).")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Check the whole API surface (slot registry + kernel exports) \
                and every catalog module.")
  in
  let broken_arg =
    Arg.(
      value & flag
      & info [ "broken-demo" ]
          ~doc:"Check a deliberately broken module instead (exit is non-zero; \
                demonstrates what the checker rejects).")
  in
  let run module_name all json broken =
    let report =
      if broken then Ok (Workloads.Check_run.broken_demo ())
      else if all || module_name = None then Ok (Workloads.Check_run.check_catalog ())
      else
        match Workloads.Check_run.check_catalog ?only:module_name () with
        | r -> Ok r
        | exception Invalid_argument m -> Error m
    in
    Result.bind report (fun report ->
        writing ~files:(Option.to_list json) (fun () ->
            Fmt.pr "%a" Workloads.Check_run.pp report;
            Option.iter
              (fun file ->
                Workloads.Bench_json.write_file file (Workloads.Check_run.to_json report);
                Fmt.pr "wrote %s@." file)
              json;
            if Workloads.Check_run.has_errors report then 1 else 0))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically check annotations and capability flow (lint + dataflow) \
          without loading any module.")
    Term.(term_result' (const run $ module_arg $ all_arg $ json_arg $ broken_arg))

(* ---- runmod ---- *)

let runmod_cmd =
  let file_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Textual MIR module (see 'lxfi_sim dump' for the syntax).")
  in
  let entry_arg =
    Arg.(
      value & opt (some string) None
      & info [ "e"; "entry" ] ~docv:"FUNC"
          ~doc:"Function to invoke after module_init; mark it 'exports cli.entry' \
                in the source so the kernel may call it under LXFI.")
  in
  let args_arg =
    Arg.(
      value & opt (list int64) []
      & info [ "a"; "args" ] ~docv:"INTS" ~doc:"Comma-separated integer arguments.")
  in
  let run file entry args mode =
    let config = Option.value ~default:Lxfi.Config.lxfi mode in
    let src = In_channel.with_open_text file In_channel.input_all in
    match Mir.Parser.parse_result src with
    | Error e ->
        Fmt.epr "%s: %s@." file e;
        exit 1
    | Ok prog -> (
        let sys = Ksys.boot config in
        (* cli.entry takes the --entry function's parameters, so the
           crossing's arity check accepts the arguments it is given *)
        let entry_params =
          match Option.bind entry (Mir.Ast.find_func prog) with
          | Some f -> f.Mir.Ast.params
          | None -> []
        in
        if not (Annot.Registry.mem sys.Ksys.rt.Lxfi.Runtime.registry "cli.entry") then
          ignore
            (Annot.Registry.define_exn sys.Ksys.rt.Lxfi.Runtime.registry ~name:"cli.entry"
               ~params:entry_params ~annot_src:"");
        (* the fuzz slot types too, so corpus repros load standalone *)
        List.iter
          (fun (name, params, annot_src) ->
            if not (Annot.Registry.mem sys.Ksys.rt.Lxfi.Runtime.registry name) then
              ignore
                (Annot.Registry.define_exn sys.Ksys.rt.Lxfi.Runtime.registry ~name ~params
                   ~annot_src))
          Fuzz.Gen.slot_defs;
        match Ksys.load sys prog with
        | exception Lxfi.Loader.Load_error e ->
            Fmt.epr "load error: %s@." e;
            exit 1
        | exception Lxfi.Rewriter.Rewrite_error e ->
            Fmt.epr "rewrite error: %s@." e;
            exit 1
        | mi, report ->
            Fmt.pr "loaded %s under %s: %a@." prog.Mir.Ast.pname
              (Lxfi.Config.mode_name config.Lxfi.Config.mode)
              Lxfi.Rewriter.pp_report report;
            let call what f a =
              match f () with
              | r -> Fmt.pr "%s returned %Ld@." what r
              | exception Lxfi.Violation.Violation v ->
                  Fmt.pr "%s: %a@." what Lxfi.Violation.pp v;
                  ignore a
              | exception Kernel_sim.Kstate.Oops m -> Fmt.pr "%s: kernel oops: %s@." what m
              | exception Kernel_sim.Slab.Bad_free addr ->
                  (* the stock kernel frees whatever pointer it is handed *)
                  Fmt.pr "%s: kernel oops: bad free of 0x%x@." what addr
              | exception Kernel_sim.Kmem.Fault { addr; write } ->
                  Fmt.pr "%s: fault (%s 0x%x)@." what (if write then "write" else "read") addr
            in
            if Mir.Ast.find_func prog "module_init" <> None then
              call "module_init"
                (fun () -> Lxfi.Loader.init_call sys.Ksys.rt mi "module_init" [])
                ();
            (match entry with
            | None -> ()
            | Some e ->
                call e
                  (fun () -> Lxfi.Runtime.invoke_module_function sys.Ksys.rt mi e args)
                  ());
            Fmt.pr "%a@." Lxfi.Stats.pp sys.Ksys.rt.Lxfi.Runtime.stats)
  in
  Cmd.v
    (Cmd.info "runmod" ~doc:"Load and run a textual MIR module under LXFI.")
    Term.(const run $ file_arg $ entry_arg $ args_arg $ mode_arg)

let () =
  Kernel_sim.Klog.quiet ();
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "lxfi_sim" ~version:"1.0"
             ~doc:"LXFI (SOSP 2011) reproduction: SFI with API integrity and \
                   multi-principal kernel modules.")
          [
            paper_cmd;
            reference_cmd;
            exploit_cmd;
            annotations_cmd;
            state_cmd;
            dump_cmd;
            faultsim_cmd;
            lifecycle_cmd;
            fuzz_cmd;
            trace_cmd;
            runmod_cmd;
            check_cmd;
          ]))
