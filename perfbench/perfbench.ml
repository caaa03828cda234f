(* Host-time benchmark of the LXFI simulator.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1

   Runs workload W on inputs derived from seed N for S seconds of host
   wall-clock time, times every operation and scales it by a reference
   loop timed alongside (see [Reference]), checks every operation's
   outcome, and prints one JSON object as the last line of stdout: the
   end-to-end metrics with --trace 0, the per-layer split with
   --trace 1.  perfbench/run.py builds this executable and validates its
   output; perfbench/README.md describes the workloads and metrics. *)

open Kernel_sim
open Kmodules
open Workloads

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let derive = Fuzz.Rng.derive

(* ------------------------------------------------------------------ *)
(* Workloads.                                                          *)
(* ------------------------------------------------------------------ *)

(* What a workload's set-up returns: [op i] runs operation [i] and
   returns [Some reason] when its output fails a check; [finish ()]
   checks the run as a whole. *)
type runner = { op : int -> string option; finish : unit -> string option }

let no_finish () = None

(* The three bystander modules the faultsim and lifecycle cells run
   beside: e1000 with its NIC, can and rds. *)
let install_bystanders (sys : Ksys.t) =
  List.iter (fun (_, setup) -> ignore (setup sys : unit -> int64)) Faultsim.workloads

(* Steady-state traffic through the instrumented e1000 on one booted
   system: the UDP / TCP / receive-burst mix of [lxfi_sim trace
   netperf].  One operation is one TX drain interval of 16 traffic
   actions; no boot or load happens per operation. *)
let netperf ~seed () =
  let env = Netperf_sim.setup Lxfi.Config.lxfi in
  let rt = env.Netperf_sim.sys.Ksys.rt in
  let ctx =
    match Lxfi.Runtime.module_named rt "e1000" with
    | Some { Lxfi.Runtime.mi_ctx = Some ctx; _ } -> ctx
    | _ -> failwith "netperf: e1000 has no interpreter context"
  in
  let rng = Finject.create ~seed in
  let sent = ref 0 and wire = ref 0 in
  let drain () = wire := !wire + Nic.drain_tx env.Netperf_sim.nic in
  let action () =
    match Finject.pick rng 4 with
    | 0 | 1 ->
        Netperf_sim.udp_send env ~len:(32 + Finject.pick rng 96);
        incr sent;
        None
    | 2 ->
        let msg_len = 512 + Finject.pick rng 2048 in
        Netperf_sim.tcp_send env ~msg_len;
        (* one frame per 1448-byte segment *)
        sent := !sent + ((msg_len + 1447) / 1448);
        None
    | _ ->
        let count = 1 + Finject.pick rng 8 in
        let got = Netperf_sim.rx_burst env ~count ~frame_len:64 in
        if got = count then None
        else Some (Printf.sprintf "receive burst delivered %d of %d frames" got count)
  in
  let op _ =
    (* The interpreter's runaway-loop budget is per module, not per
       entry; top it up as [Netperf_sim.measure] does. *)
    Mir.Interp.refuel ctx;
    let failure = ref None in
    for _ = 1 to 16 do
      match action () with
      | Some _ as f when Option.is_none !failure -> failure := f
      | _ -> ()
    done;
    (* At most 32 frames are queued between drains, so the 64-entry TX
       ring never overflows. *)
    drain ();
    !failure
  in
  let finish () =
    drain ();
    let violations = rt.Lxfi.Runtime.stats.Lxfi.Stats.violations in
    if !wire <> !sent then
      Some (Printf.sprintf "%d frames sent but %d reached the wire" !sent !wire)
    else if violations <> 0 then
      Some (Printf.sprintf "%d violations on well-behaved traffic" violations)
    else if
      Lxfi.Shadow_stack.depth rt.Lxfi.Runtime.sstack <> 0
      || Option.is_some rt.Lxfi.Runtime.current
    then Some "kernel context not restored after the run"
    else None
  in
  { op; finish }

(* One fuzz-campaign case per operation: a generated module checked
   under stock, lxfi, de-optimised lxfi and a traced run, then four
   attack mutants, each on a freshly booted system.  Set-up boots and
   loads one generated case the way each of those runs does; the
   operations boot their own systems. *)
let fuzz ~seed () =
  let sys = Ksys.boot Lxfi.Config.lxfi in
  List.iter
    (fun (name, params, annot_src) ->
      ignore
        (Annot.Registry.define_exn sys.Ksys.rt.Lxfi.Runtime.registry ~name ~params
           ~annot_src))
    Fuzz.Gen.slot_defs;
  let case = Fuzz.Gen.case_of_rand (Fuzz.Rng.rand (Fuzz.Rng.create ~seed)) in
  ignore (Ksys.load sys case.Fuzz.Gen.c_prog);
  let op i =
    let r = Fuzz.Campaign.run ~shrink:false ~seed:(derive seed i) ~runs:1 () in
    if Fuzz.Campaign.passed r then None
    else
      match r.Fuzz.Campaign.r_divergences with
      | d :: _ -> Some (d.Fuzz.Campaign.dv_name ^ ": " ^ d.Fuzz.Campaign.dv_message)
      | [] -> Some "a mutant was not caught as its expected class"
  in
  { op; finish = no_finish }

(* One lifecycle cell per operation (hot upgrades and
   quarantine-repair-replay under traffic), cycling the bystanders.
   Set-up boots and loads what a cell does; each cell boots its own
   system. *)
let lifecycle ~seed () =
  let sys = Ksys.boot Lxfi.Config.lxfi_quarantine in
  Lifecycle.define_slots sys;
  install_bystanders sys;
  ignore (Ksys.load sys (Lifecycle.make_prog ~version:1 ~buggy:true));
  let bystanders = Array.of_list Faultsim.workload_names in
  let op i =
    let workload = bystanders.(i mod Array.length bystanders) in
    match Lifecycle.run_cell ~seed:(derive seed i) ~workload with
    | _, [] -> None
    | _, breach :: _ -> Some breach
  in
  { op; finish = no_finish }

(* One fault-injection cell per operation, cycling every fault class
   over every bystander.  Set-up boots a system with the bystanders, as
   each cell does before loading its own module. *)
let faultsim ~seed () =
  let sys = Ksys.boot Lxfi.Config.lxfi_quarantine in
  install_bystanders sys;
  let cells =
    Array.of_list
      (List.concat_map
         (fun c -> List.map (fun w -> (c, w)) Faultsim.workload_names)
         Faultsim.classes)
  in
  let quarantines = Hashtbl.create 4 in
  let op i =
    let fclass, workload = cells.(i mod Array.length cells) in
    let cell_seed = derive seed i in
    let rng = Finject.create ~seed:cell_seed in
    (* The plans [Faultsim.run] draws: one shot inside the cell's
       ten-round drive window, or every eligible event with p = 1/4. *)
    let plan =
      match fclass with
      | Faultsim.Watchdog -> Finject.Nth (1 + Finject.pick rng 10)
      | Faultsim.Alloc_fail | Faultsim.Drop_grant | Faultsim.Corrupt_slot -> (
          match Finject.pick rng 3 with
          | 0 -> Finject.Nth (2 + Finject.pick rng 3)
          | 1 -> Finject.Nth (6 + Finject.pick rng 3)
          | _ -> Finject.Prob 0.25)
    in
    let row, breaches = Faultsim.run_cell ~seed:cell_seed fclass ~workload ~plan in
    let name = row.Faultsim.fs_class in
    let seen = Option.value ~default:0 (Hashtbl.find_opt quarantines name) in
    Hashtbl.replace quarantines name (seen + row.Faultsim.fs_quarantines);
    match breaches with [] -> None | breach :: _ -> Some breach
  in
  (* [Faultsim.run]'s campaign-level check: every fault class that ran
     was quarantined in some cell. *)
  let finish () =
    Hashtbl.fold
      (fun name n acc -> if n = 0 then Some (name ^ ": no quarantine in any cell") else acc)
      quarantines None
  in
  { op; finish }

(* name, set-up, untimed warm-up operations *)
let workloads =
  [
    ("netperf", netperf, 200);
    ("fuzz", fuzz, 3);
    ("lifecycle", lifecycle, 3);
    ("faultsim", faultsim, 12);
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer split.                                                    *)
(* ------------------------------------------------------------------ *)

(* Every millisecond of process CPU time SIGPROF interrupts the run; the
   handler walks the OCaml stack and charges the sample to the layer of
   the innermost frame that lies in the simulator's own sources.
   Standard-library frames (Hashtbl, List, Bytes) are skipped, so their
   time counts toward the layer that called them. *)
module Profile = struct
  let layers =
    [|
      "mir_dispatch"; "kmem"; "captable"; "annotations"; "wrappers"; "shadow_stack";
      "guards"; "trace_hooks"; "kernel"; "loading"; "fuzz_engine"; "drivers";
      "unattributed";
    |]

  let samples = Array.make (Array.length layers) 0

  let bump layer =
    let rec go i = if layers.(i) = layer then samples.(i) <- samples.(i) + 1 else go (i + 1) in
    go 0

  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0

  (* lib/lxfi/runtime.ml holds three layers; split it by function. *)
  let runtime_layer fn =
    let any = List.exists (contains fn) in
    if
      any
        [
          "eval_cexpr"; "caps_of_caplist"; "run_action"; "check_owned"; "grant";
          "revoke_from_all"; "principal_has"; "find_or_create_instance";
        ]
    then "annotations"
    else if
      any
        [
          "guard_write"; "guard_indcall"; "writers_of"; "kernel_indirect_call";
          "has_write_covering";
        ]
    then "guards"
    else "wrappers"

  let layer_of slot =
    match Printexc.Slot.location slot with
    | None -> None
    | Some loc -> (
        let file = loc.Printexc.filename in
        let fn = Option.value ~default:"" (Printexc.Slot.name slot) in
        match (Filename.basename (Filename.dirname file), Filename.basename file) with
        | "mir", "interp.ml" -> Some "mir_dispatch"
        | "mir", _ -> Some "loading"
        | "kernel", "kmem.ml" -> Some "kmem"
        | "kernel", _ -> Some "kernel"
        | "lxfi", ("captable.ml" | "capability.ml" | "principal.ml") -> Some "captable"
        | "lxfi", "shadow_stack.ml" -> Some "shadow_stack"
        | "lxfi", "writer_set.ml" -> Some "guards"
        | "lxfi", "runtime.ml" -> Some (runtime_layer fn)
        | "lxfi", ("rewriter.ml" | "loader.ml" | "snapshot.ml" | "inspect.ml") ->
            Some "loading"
        | "lxfi", _ -> Some "wrappers"
        | "annot", _ -> Some "annotations"
        | "trace", _ -> Some "trace_hooks"
        | "check", "apiflow.ml" when contains fn "permits" -> Some "guards"
        | ("check" | "diag"), _ -> Some "loading"
        | "kmodules", "ksys.ml" when contains fn "register_iterators" -> Some "annotations"
        | "kmodules", "ksys.ml" when contains fn "register_kexports" -> Some "kernel"
        | "kmodules", _ -> Some "loading"
        | "fuzz", _ -> Some "fuzz_engine"
        | ("workloads" | "perfbench"), _ -> Some "drivers"
        | _ -> None)

  (* set while the reference loop runs, whose time is no layer's *)
  let paused = ref false

  let sample (_ : int) =
    if not !paused then
      bump
        (match Printexc.backtrace_slots (Printexc.get_callstack 64) with
        | None -> "unattributed"
        | Some slots ->
            (* slot 0 is this handler *)
            let rec find i =
              if i >= Array.length slots then "unattributed"
              else match layer_of slots.(i) with Some l -> l | None -> find (i + 1)
            in
            find 1)

  let set_timer interval =
    ignore
      (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = interval; it_value = interval })

  let start () =
    Sys.set_signal Sys.sigprof (Sys.Signal_handle sample);
    set_timer 0.001

  let stop () =
    set_timer 0.;
    Sys.set_signal Sys.sigprof Sys.Signal_ignore
end

(* ------------------------------------------------------------------ *)
(* Reference loop.                                                     *)
(* ------------------------------------------------------------------ *)

(* The speed of a shared host is not constant: another tenant's load on
   the same physical core slows every instruction by up to 40%, in
   stretches of seconds to minutes, and process CPU time slows with wall
   time, so neither clock repeats from run to run.  The benchmark
   therefore times this fixed loop next to the workload and reports
   every time scaled to a machine on which the loop takes
   [reference_us].  The loop is OCaml of the simulator's kind (small
   allocations, balanced-tree lookups, a pattern-matching interpreter),
   so contention slows it as it slows the simulator, and it calls none
   of the simulator's code, so a change to the simulator leaves it
   alone. *)
module Reference = struct
  module M = Map.Make (Int)

  type instr = Push of int | Add | Mul | Dup | Drop

  let code =
    Array.init 48 (fun i ->
        match i mod 6 with 0 | 3 -> Push i | 1 -> Add | 2 -> Dup | 4 -> Mul | _ -> Drop)

  let interp () =
    let step stack = function
      | Push n -> n :: stack
      | Add -> ( match stack with a :: b :: st -> ((a + b) land 0xffff) :: st | st -> st)
      | Mul -> ( match stack with a :: b :: st -> ((a * b) land 0xffff) :: st | st -> st)
      | Dup -> ( match stack with a :: st -> a :: a :: st | st -> st)
      | Drop -> ( match stack with _ :: st -> st | st -> st)
    in
    List.length (Array.fold_left step [ 1 ] code)

  let run () =
    let m = ref M.empty in
    for i = 0 to 399 do
      m := M.add ((i * 7919) land 1023) (i, string_of_int i) !m
    done;
    let acc = ref 0 in
    for i = 0 to 1023 do
      (match M.find_opt i !m with Some (n, s) -> acc := !acc + n + String.length s | None -> ());
      acc := !acc + interp ()
    done;
    ignore (Sys.opaque_identity !acc)

  (* median of five timed runs, in ns *)
  let time_ns () =
    Profile.paused := true;
    let t =
      Array.init 5 (fun _ ->
          let t0 = now_ns () in
          run ();
          now_ns () - t0)
    in
    Profile.paused := false;
    Array.sort compare t;
    t.(2)
end

(* About the loop's time on the uncontended 2-vCPU host the baseline in
   perfbench/results was measured on, so that scaled times read close to
   that host's own. *)
let reference_us = 400.

(* The factor that scales a host time measured now to the reference
   machine. *)
let scale_now () = reference_us *. 1e3 /. float_of_int (Reference.time_ns ())

(* ------------------------------------------------------------------ *)
(* Measurement.                                                        *)
(* ------------------------------------------------------------------ *)

(* The timed run is cut into slices; each starts by timing the reference
   loop, and the operations in it are scaled by that slice's factor.
   Host speed changes over seconds, so a slice is short enough to see
   one speed, and the loop's five runs take about 1% of it. *)
let slice_ns = 200_000_000

(* Set-up runs this many times before the timed loop and, in an
   untraced run, once more every [setup_every_ns], outside the operation
   timings; each is scaled by a reference timing taken just before it,
   and [setup_s] is their median. *)
let setup_reps = 5
let setup_every_ns = 500_000_000

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

(* nearest-rank percentile of a sorted array *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let print_result ~correct ~attempted ~failed metrics =
  let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let metric (name, value, unit_) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value) unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME netperf | fuzz | lifecycle | faultsim");
      ("--seed", Arg.Set_int seed, "N seed the inputs derive from");
      ("--seconds", Arg.Set_int seconds, "S measured host seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer split (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let setup, warmup =
    match List.find_opt (fun (name, _, _) -> name = !workload) workloads with
    | Some (_, setup, warmup) -> (setup, warmup)
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be at least 1 and --trace 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  Klog.quiet ();
  let setup_s = ref [] in
  let timed_setup () =
    (* every set-up starts from the same, collected heap *)
    Gc.full_major ();
    let scale = scale_now () in
    let t0 = now_ns () in
    let runner = setup ~seed:!seed () in
    setup_s := (float_of_int (now_ns () - t0) *. scale /. 1e9) :: !setup_s;
    runner
  in
  let { op; finish } = timed_setup () in
  for _ = 2 to setup_reps do
    ignore (timed_setup ())
  done;
  let attempted = ref 0 and failed = ref 0 in
  let run_op () =
    incr attempted;
    match try op !attempted with e -> Some ("raised " ^ Printexc.to_string e) with
    | None -> ()
    | Some reason ->
        incr failed;
        if !failed <= 5 then Printf.eprintf "operation %d failed: %s\n%!" !attempted reason
  in
  for _i = 1 to warmup do
    run_op ()
  done;
  Gc.full_major ();
  (* scaled operation durations, in ns *)
  let durations = ref (Array.make 4096 0.) and ops = ref 0 in
  let scales = ref [] in
  let words0 = Gc.minor_words () in
  if traced then Profile.start ();
  let t_start = now_ns () in
  let deadline = t_start + (!seconds * 1_000_000_000) in
  let running = ref true and next_setup = ref (t_start + setup_every_ns) in
  let next_slice = ref t_start and scale = ref 1. in
  while !running do
    if (not traced) && now_ns () >= !next_setup then begin
      ignore (timed_setup ());
      next_setup := !next_setup + setup_every_ns
    end;
    if now_ns () >= !next_slice then begin
      scale := scale_now ();
      scales := !scale :: !scales;
      next_slice := now_ns () + slice_ns
    end;
    let t0 = now_ns () in
    run_op ();
    let t1 = now_ns () in
    if !ops = Array.length !durations then
      durations := Array.append !durations (Array.make !ops 0.);
    !durations.(!ops) <- float_of_int (t1 - t0) *. !scale;
    incr ops;
    running := t1 < deadline
  done;
  let elapsed = now_ns () - t_start in
  if traced then Profile.stop ();
  let words = Gc.minor_words () -. words0 in
  let run_failure = try finish () with e -> Some ("raised " ^ Printexc.to_string e) in
  Option.iter (Printf.eprintf "run check failed: %s\n%!") run_failure;
  let ops = !ops in
  let durations = Array.sub !durations 0 ops in
  let busy_ns = Array.fold_left ( +. ) 0. durations in
  let median_scale = median (Array.of_list !scales) in
  Printf.eprintf
    "perfbench: %s, seed %d: %d operations in %.3f s (%.1f/s unscaled); reference loop %.1f us \
     (median of %d slices)\n\
     %!"
    !workload !seed ops
    (float_of_int elapsed /. 1e9)
    (float_of_int ops *. 1e9 /. float_of_int elapsed)
    (reference_us /. median_scale) (List.length !scales);
  let per_op_us = busy_ns /. float_of_int ops /. 1e3 in
  let metrics =
    if traced then
      let total = float_of_int (Array.fold_left ( + ) 0 Profile.samples) in
      Array.to_list
        (Array.mapi
           (fun i layer ->
             ( layer ^ "_us",
               (if total = 0. then 0. else float_of_int Profile.samples.(i) /. total *. per_op_us),
               "us" ))
           Profile.layers)
      @ [
          ("alloc_kwords_per_op", words /. 1e3 /. float_of_int ops, "kwords");
          ("profile_samples", total, "count");
        ]
    else begin
      Array.sort compare durations;
      let us p = percentile durations p /. 1e3 in
      [
        ("op_p50_us", us 0.5, "us");
        ("op_p90_us", us 0.9, "us");
        ("ops_per_s", float_of_int ops *. 1e9 /. busy_ns, "1/s");
        ("setup_s", median (Array.of_list !setup_s), "s");
      ]
    end
  in
  print_result
    ~correct:(!failed = 0 && run_failure = None)
    ~attempted:!attempted ~failed:!failed metrics
