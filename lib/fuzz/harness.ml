(** The differential harness: boots a fresh system per run (runs must
    not contaminate each other), allocates the kernel canary and the
    [touch] buffer {e before} loading the module — which is what makes
    their addresses deterministic and known to the mutation engine —
    then drives the module's full kernel-visible surface. *)

open Kernel_sim
open Kmodules

type outcome = Oval of int64 | Oviolation of Lxfi.Violation.kind | Oexn of string

let outcome_string = function
  | Oval v -> Printf.sprintf "%Ld" v
  | Oviolation k -> "violation:" ^ Lxfi.Violation.kind_name k
  | Oexn m -> "exn:" ^ m

let fuel = 100_000

let mutant_config = { Lxfi.Config.lxfi with Lxfi.Config.watchdog_fuel = Some fuel }

let canary_size = 64
let canary_byte i = (0xC5 + i) land 0xff

exception Setup_failed of string

type ctx = {
  sys : Ksys.t;
  mi : Lxfi.Runtime.module_info;
  image : Lxfi.Loader.image;
  canary : int;
  kbuf : int;
}

(* Declared once per process; each boot only adds them. *)
let slot_decls = List.map (fun (name, params, src) -> Ksys.declare name params src) Gen.slot_defs

(* Canary then kbuf: the first two allocations after boot, so their
   addresses depend only on the config, never on the module. *)
let alloc_fixtures (sys : Ksys.t) =
  let kst = sys.Ksys.kst in
  let canary = Slab.kmalloc kst.Kstate.slab canary_size in
  for i = 0 to canary_size - 1 do
    Kmem.write_u8 kst.Kstate.mem (canary + i) (canary_byte i)
  done;
  let kbuf = Slab.kmalloc kst.Kstate.slab Gen.kbuf_size in
  (canary, kbuf)

let canary_addr = lazy (fst (alloc_fixtures (Ksys.boot mutant_config)))

(* [flow_of] is the audited program whose extracted kernel-API flow
   graph is registered as the module's enforced policy before the load
   — the skew between the two is what the flow automaton detects.
   [image] hands out the module's image for the booted runtime: each
   caller below holds one {!Lxfi.Loader.linker} per program, so a
   program links once per config however often it boots. *)
let boot ?flow_of config image =
  let sys = Ksys.boot config in
  let rt = sys.Ksys.rt in
  Ksys.add_slots sys slot_decls;
  let canary, kbuf = alloc_fixtures sys in
  (match flow_of with
  | None -> ()
  | Some benign ->
      let g = Check.Apiflow.extract (Lxfi.Loader.check_env rt) benign in
      Lxfi.Runtime.register_flow_graph rt ~module_:benign.Mir.Ast.pname g);
  match
    let image = image rt in
    (image, Lxfi.Loader.load_image rt image)
  with
  | exception Lxfi.Loader.Load_error m -> raise (Setup_failed ("load error: " ^ m))
  | exception Lxfi.Rewriter.Rewrite_error m -> raise (Setup_failed ("rewrite error: " ^ m))
  | image, mi ->
      (match Lxfi.Loader.init_call rt mi "module_init" [] with
      | _ -> ()
      | exception e -> raise (Setup_failed ("module_init: " ^ Printexc.to_string e)));
      { sys; mi; image; canary; kbuf }

let catching f =
  match f () with
  | r -> Oval r
  | exception Lxfi.Violation.Violation v -> Oviolation v.Lxfi.Violation.v_kind
  | exception Kstate.Oops m -> Oexn ("oops: " ^ m)
  | exception Kmem.Fault { addr; write } ->
      Oexn (Printf.sprintf "fault:%s:0x%x" (if write then "w" else "r") addr)
  | exception e -> Oexn (Printexc.to_string e)

let invoke ctx fname args =
  catching (fun () -> Lxfi.Runtime.invoke_module_function ctx.sys.Ksys.rt ctx.mi fname args)

(* The kernel calling through the module-writable [kslot] global — the
   path [lxfi_check_indcall] interposes on. *)
let kcall ctx n =
  let slot = Mod_common.gaddr ctx.mi "kslot" in
  catching (fun () -> Kstate.call_ptr ctx.sys.Ksys.kst ~slot ~ftype:"fuzz.cb" [ n ])

(* ---- clean-side oracles ---- *)

type clean_sig = {
  s_outcomes : (string * outcome) list;
  s_arena : string;
  s_kbuf : string;
}

let hex b =
  let digits = "0123456789abcdef" in
  let out = Bytes.create (2 * Bytes.length b) in
  Bytes.iteri
    (fun i c ->
      let v = Char.code c in
      Bytes.set out (2 * i) digits.[v lsr 4];
      Bytes.set out ((2 * i) + 1) digits.[v land 15])
    b;
  Bytes.unsafe_to_string out

let clean_drive ctx inputs =
  List.concat_map
    (fun n ->
      [
        (Printf.sprintf "entry(%Ld)" n, invoke ctx "entry" [ n ]);
        (Printf.sprintf "touch(%Ld)" n, invoke ctx "touch" [ Int64.of_int ctx.kbuf; n ]);
        (Printf.sprintf "peer(0x7001,%Ld)" n, invoke ctx "peer" [ 0x7001L; n ]);
        (Printf.sprintf "peer(0x7002,%Ld)" n, invoke ctx "peer" [ 0x7002L; n ]);
        (Printf.sprintf "kcall(%Ld)" n, kcall ctx n);
      ])
    inputs

let run_clean ?(trace = false) config image (case : Gen.case) =
  match boot config image with
  | exception Setup_failed m -> Error m
  | ctx ->
      let buf = if trace then Some (Trace.make ~capacity:65536 ()) else None in
      (match buf with Some b -> Lxfi.Runtime.attach_trace ctx.sys.Ksys.rt b | None -> ());
      let outcomes =
        Fun.protect
          ~finally:(fun () -> if trace then Trace.detach ())
          (fun () -> clean_drive ctx case.Gen.c_inputs)
      in
      let reconciled =
        match buf with
        | None -> true
        | Some b ->
            let p = Trace_profile.aggregate ~final:ctx.sys.Ksys.kst.Kstate.cycles b in
            Trace_profile.attributed_cycles p = p.Trace_profile.pr_total_cycles
      in
      let mem = ctx.sys.Ksys.kst.Kstate.mem in
      let arena = Mod_common.gaddr ctx.mi "arena" in
      Ok
        ( {
            s_outcomes = outcomes;
            s_arena = hex (Kmem.read_bytes mem ~addr:arena ~len:Gen.arena_size);
            s_kbuf = hex (Kmem.read_bytes mem ~addr:ctx.kbuf ~len:Gen.kbuf_size);
          },
          (ctx, reconciled) )

let clean_sig_under config case =
  Result.map fst (run_clean config (Lxfi.Loader.linker case.Gen.c_prog) case)

let diff_sigs ~la ~lb (a : clean_sig) (b : clean_sig) =
  let rec first_outcome xs ys =
    match (xs, ys) with
    | (na, oa) :: xs', (_, ob) :: ys' ->
        if oa = ob then first_outcome xs' ys'
        else Some (Printf.sprintf "%s: %s=%s vs %s=%s" na la (outcome_string oa) lb (outcome_string ob))
    | _ -> None
  in
  match first_outcome a.s_outcomes b.s_outcomes with
  | Some _ as d -> d
  | None ->
      if a.s_arena <> b.s_arena then
        Some (Printf.sprintf "final arena bytes differ (%s vs %s)" la lb)
      else if a.s_kbuf <> b.s_kbuf then
        Some (Printf.sprintf "final kbuf bytes differ (%s vs %s)" la lb)
      else None

(* The checker reuses the flow graph [ctx]'s image extracted at link. *)
let static_errors_of ctx prog =
  let env = Lxfi.Loader.check_env ctx.sys.Ksys.rt in
  Check.Finding.errors
    (Check.Checker.check_module ?flow:ctx.image.Lxfi.Loader.im_flow env prog)

let clean_failure (case : Gen.case) =
  let image = Lxfi.Loader.linker case.Gen.c_prog in
  match run_clean Lxfi.Config.stock image case with
  | Error m -> Some ("stock setup: " ^ m)
  | Ok (stock_sig, _) -> (
      match run_clean Lxfi.Config.lxfi image case with
      | Error m -> Some ("lxfi setup: " ^ m)
      | Ok (lxfi_sig, (lxfi_ctx, _)) -> (
          match diff_sigs ~la:"stock" ~lb:"lxfi" stock_sig lxfi_sig with
          | Some d -> Some ("enforcement visible: " ^ d)
          | None -> (
              match run_clean Lxfi.Config.lxfi_noopt image case with
              | Error m -> Some ("noopt setup: " ^ m)
              | Ok (noopt_sig, _) -> (
                  match diff_sigs ~la:"lxfi" ~lb:"noopt" lxfi_sig noopt_sig with
                  | Some d -> Some ("optimizations visible: " ^ d)
                  | None -> (
                      let serr = static_errors_of lxfi_ctx case.Gen.c_prog in
                      if serr > 0 then
                        Some
                          (Printf.sprintf
                             "static checker reports %d error(s) on a clean module" serr)
                      else
                        match run_clean ~trace:true Lxfi.Config.lxfi image case with
                        | Error m -> Some ("traced setup: " ^ m)
                        | Ok (traced_sig, (_, reconciled)) -> (
                            match diff_sigs ~la:"lxfi" ~lb:"lxfi+trace" lxfi_sig traced_sig with
                            | Some d -> Some ("tracing visible: " ^ d)
                            | None when not reconciled ->
                                Some "trace cycle totals do not reconcile with the clock"
                            | None -> None))))))

(* ---- mutant-side oracles ---- *)

type mutant_result = {
  mr_outcome : outcome;
  mr_canary_intact : bool;
  mr_static_errors : int;
}

(* A drive's one input: the case's first. *)
let drive_input = function n :: _ -> n | [] -> 5L

(* A drive's arguments, bound in [ctx]. *)
let bind ctx ~input args =
  List.map
    (function
      | Mutate.Acanary -> Int64.of_int ctx.canary
      | Mutate.Akbuf -> Int64.of_int ctx.kbuf
      | Mutate.Ainput -> input)
    args

(* [prog] is the pristine (pre-rewrite) program, needed by the
   [Dupgrade] drive to derive the downgraded version it swaps in. *)
let run_drive ctx ~prog (drive : Mutate.drive) ~input =
  match drive with
  | Mutate.Dinvoke (fname, args) | Mutate.Dflow (fname, args) ->
      invoke ctx fname (bind ctx ~input args)
  | Mutate.Dcorrupt_kcall (fname, args) -> (
      match invoke ctx fname (bind ctx ~input args) with
      | Oval _ -> kcall ctx input
      | early -> early)
  | Mutate.Dupgrade ((f1, a1), (f2, a2)) -> (
      match invoke ctx f1 (bind ctx ~input a1) with
      | Oval _ ->
          catching (fun () ->
              let rt = ctx.sys.Ksys.rt in
              let down =
                Lxfi.Loader.link (Lxfi.Loader.check_env rt) rt.Lxfi.Runtime.config
                  (Mutate.downgrade_of prog)
              in
              let mi, _up = Lxfi.Loader.upgrade rt ctx.mi down in
              Lxfi.Runtime.invoke_module_function rt mi f2 (bind ctx ~input a2))
      | early -> early)

let canary_intact ctx =
  let mem = ctx.sys.Ksys.kst.Kstate.mem in
  let rec go i =
    i >= canary_size || (Kmem.read_u8 mem (ctx.canary + i) = canary_byte i && go (i + 1))
  in
  go 0

(* Flow-class mutants are detected by skew between a registered benign
   graph and the loaded binary; every other class self-extracts its
   graph at load, which by construction never rejects its own runs. *)
let flow_policy_of (m_drive : Mutate.drive) prog =
  match m_drive with
  | Mutate.Dflow _ -> Some (Mutate.benign_of prog)
  | Mutate.Dinvoke _ | Mutate.Dcorrupt_kcall _ | Mutate.Dupgrade _ -> None

let run_mutant (m : Mutate.mutant) ~inputs =
  let flow_of = flow_policy_of m.Mutate.m_drive m.Mutate.m_prog in
  match boot ?flow_of mutant_config (Lxfi.Loader.linker m.Mutate.m_prog) with
  | exception Setup_failed msg -> Error msg
  | ctx ->
      let outcome =
        run_drive ctx ~prog:m.Mutate.m_prog m.Mutate.m_drive ~input:(drive_input inputs)
      in
      Ok
        {
          mr_outcome = outcome;
          mr_canary_intact = canary_intact ctx;
          mr_static_errors = static_errors_of ctx m.Mutate.m_prog;
        }

let mutant_verdict (m : Mutate.mutant) (r : mutant_result) =
  let expected = Mutate.expected_kind m.Mutate.m_class in
  match r.mr_outcome with
  | Oviolation k when k <> expected ->
      Some
        (Printf.sprintf "detected as %s, expected %s" (Lxfi.Violation.kind_name k)
           (Lxfi.Violation.kind_name expected))
  | Oviolation _ ->
      if not r.mr_canary_intact then Some "canary corrupted before detection"
      else if Mutate.statically_visible m.Mutate.m_class && r.mr_static_errors = 0 then
        Some "static checker missed a statically-visible attack"
      else None
  | (Oval _ | Oexn _) as o ->
      Some
        (Printf.sprintf "not detected (outcome %s%s)" (outcome_string o)
           (if r.mr_canary_intact then "" else ", canary corrupted"))

let mutant_failure (m : Mutate.mutant) ~inputs =
  match run_mutant m ~inputs with
  | Error msg -> Some ("setup failed: " ^ msg)
  | Ok r -> mutant_verdict m r

(* The no-upgrade control for the stale-capability class: the same two
   calls on one instance, no swap in between.  Both must complete —
   the violation is real only if it {e depends} on the upgrade having
   dropped the grant (a shrunk attack that violates even without the
   swap is just an ordinary bad store, not a stale capability). *)
let run_without_upgrade image ((f1, a1), (f2, a2)) ~inputs =
  match boot mutant_config image with
  | exception Setup_failed m -> Error ("control setup: " ^ m)
  | ctx -> (
      let step f args =
        match invoke ctx f (bind ctx ~input:(drive_input inputs) args) with
        | Oval _ -> Ok ()
        | o ->
            Error
              (Printf.sprintf "no-upgrade control: %s raised %s (violation does not \
                               depend on the swap)"
                 f (outcome_string o))
      in
      match step f1 a1 with Ok () -> step f2 a2 | e -> e)

(* Flow-class controls, pinning the violation on the policy skew: (1)
   the same mutant with no registered policy self-extracts its graph
   and must run clean — detection depends on the registered benign
   graph, not on the calls themselves; (2) the reordered-back program
   ({!Mutate.benign_of}) under that same registered policy must also
   run clean — the policy rejects only the reordering. *)
let run_flow_controls prog image (fname, fargs) ~inputs =
  let run ?flow_of label image =
    match boot ?flow_of mutant_config image with
    | exception Setup_failed m -> Error (label ^ " control setup: " ^ m)
    | ctx -> (
        match invoke ctx fname (bind ctx ~input:(drive_input inputs) fargs) with
        | Oval _ -> Ok ()
        | o ->
            Error
              (Printf.sprintf
                 "%s control: %s raised %s (violation does not depend on the \
                  registered flow policy)"
                 label fname (outcome_string o)))
  in
  match run "self-graph" image with
  | Ok () ->
      let benign = Mutate.benign_of prog in
      run ~flow_of:benign "reordered-back" (Lxfi.Loader.linker benign)
  | e -> e

let run_violation_repro prog drive ~inputs ~expect =
  let image = Lxfi.Loader.linker prog in
  match boot ?flow_of:(flow_policy_of drive prog) mutant_config image with
  | exception Setup_failed m -> Error ("setup: " ^ m)
  | ctx -> (
      match run_drive ctx ~prog drive ~input:(drive_input inputs) with
      | Oviolation k when k = expect -> (
          if not (canary_intact ctx) then Error "canary corrupted before detection"
          else
            match drive with
            | Mutate.Dupgrade (c1, c2) -> run_without_upgrade image (c1, c2) ~inputs
            | Mutate.Dflow (f, a) -> run_flow_controls prog image (f, a) ~inputs
            | Mutate.Dinvoke _ | Mutate.Dcorrupt_kcall _ -> Ok ())
      | o ->
          Error
            (Printf.sprintf "expected violation:%s, got %s"
               (Lxfi.Violation.kind_name expect) (outcome_string o)))
