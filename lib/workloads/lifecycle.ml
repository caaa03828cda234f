(** Live module lifecycle campaign (`lxfi_sim lifecycle`).

    One cell per bystander workload (netperf / can / rds traffic, from
    {!Cell}), each running a long request stream against a target
    module [lcmod] whose lifecycle is exercised {e while serving}:

    - {b hot upgrades} ([Loader.upgrade]): at seed-derived rounds the
      module is swapped for its next version mid-traffic.  Each swap
      must be violation-free, carry the module's request counter across
      (state transfer), restore the accumulated dynamic capabilities
      (the per-entry [copy(write, buf, 64)] grants), and leave the
      guard counters reconciled: the granted-capability counter grows
      by at least the restored set and the violation counter does not
      move.  Swap latency is recorded in simulated cycles.
    - {b quarantine → repair → replay} ({!Lxfi.Repair}): at later
      seed-derived rounds the driver turns hostile, feeding inputs that
      trip [lcmod]'s latent out-of-bounds bug until the module
      escalates.  The armed repair hook captures the incident
      (pre-retirement snapshot + traced faulting window + the faulting
      entry); the cell then replays the entry against the {e same}
      buggy version (the original violation class must reproduce) and
      against a {e fixed} version (which must serve cleanly and stays
      loaded).  A later upgrade ships a buggy regression so the cycle
      runs twice.

    Liveness oracle: every request is either served (positive counter
    value) or refused with [-EFAULT] — no request is ever dropped
    silently by neither the old nor the new instance.

    Everything derives from the campaign seed and simulated quantities,
    so the report (and its JSON rendering) is byte-identical across
    runs — the CI determinism gate [cmp]s two fresh runs. *)

open Kernel_sim
open Kmodules
open Mir.Builder

(* ------------------------------------------------------------------ *)
(* The target module, versioned.                                       *)

let serve_slot = "lc.serve"

(** Version [version] of [lcmod].  [serve buf n] stores [n] at
    [buf + n*8] — in bounds of the wrapper's 64-byte grant only for
    [n < 8]; the {e fixed} variant clamps the index.  [hits] counts
    served requests (plain data: carried across upgrades); [version] is
    rodata so the upgrade's state transfer leaves it alone. *)
let make_prog ~version ~buggy : Mir.Ast.prog =
  let index = if buggy then v "n" else v "n" %: ii 8 in
  prog "lcmod" ~imports:[]
    ~globals:
      [
        global "hits" 8 ~init:[ init_int 0 0 ];
        global "version" 8 ~section:Mir.Ast.Rodata ~init:[ init_int 0 version ];
      ]
    ~funcs:
      [
        func "module_init" [] [ ret0 ];
        func "serve" [ "buf"; "n" ]
          [
            store64 (v "buf" +: (index *: ii 8)) (v "n");
            store64 (glob "hits") (load64 (glob "hits") +: ii 1);
            ret (load64 (glob "hits"));
          ]
          ~export:serve_slot;
      ]

(* Declared once per process; each boot only adds it. *)
let serve_decl = Ksys.declare serve_slot [ "buf"; "n" ] "pre(copy(write, buf, 64))"

let define_slots sys = Ksys.add_slots sys [ serve_decl ]

(* ------------------------------------------------------------------ *)
(* Report rows.                                                        *)

type upgrade_row = {
  ur_round : int;
  ur_from : int;  (** version before the swap *)
  ur_to : int;
  ur_swap_cycles : int;
  ur_restored : int;
  ur_dropped : int;
  ur_violation_free : bool;  (** no violation raised during the swap *)
  ur_reconciled : bool;  (** guard counters reconcile across the swap *)
  ur_state_carried : bool;  (** request counter survived; version bumped *)
}

type repair_row = {
  rp_round : int;
  rp_kind : string;  (** violation class of the captured incident *)
  rp_window : int;  (** traced events in the faulting window *)
  rp_reproduced : bool;  (** replay on the unrepaired version re-violates *)
  rp_clean : bool;  (** replay on the fixed version serves *)
}

type row = {
  lc_workload : string;
  lc_requests : int;
  lc_served : int;
  lc_efaults : int;
  lc_dropped : int;  (** served by nobody, no -EFAULT — must be 0 *)
  lc_upgrades : upgrade_row list;  (** oldest first *)
  lc_repairs : repair_row list;  (** oldest first *)
  lc_escalations : int;
  lc_quarantines : int;
  lc_final_version : int;
  lc_bystander_ok : bool;
  lc_invariants_ok : bool;
}

(* ------------------------------------------------------------------ *)
(* One campaign cell.                                                  *)

let rounds = 44

let read_glob (sys : Ksys.t) (mi : Lxfi.Runtime.module_info) name =
  Kmem.read_ptr (Ksys.mem sys) (Mod_common.gaddr mi name)

(** [run_cell ~seed ~workload] — boot, serve [rounds] requests with
    three mid-traffic upgrades and two quarantine→repair→replay cycles
    at seed-derived rounds, and return the cell row plus any invariant
    breaches. *)
let run_cell ~seed ~workload =
  let sys = Ksys.boot Lxfi.Config.lxfi_quarantine in
  let rt = sys.Ksys.rt and kst = sys.Ksys.kst in
  define_slots sys;
  let rep = Lxfi.Repair.arm rt in
  let tbuf = Trace.make ~capacity:8192 () in
  Lxfi.Runtime.attach_trace rt tbuf;
  let serve = Cell.bystander workload sys in
  let baseline = serve () in
  let version = ref 1 in
  let mi = ref (fst (Ksys.load sys (make_prog ~version:1 ~buggy:true))) in
  ignore (Lxfi.Loader.init_call rt !mi "module_init" []);
  let fi = Finject.create ~seed in
  (* Seed-derived schedule: two healthy upgrades, first attack window,
     one regression upgrade, second attack window; the tail rounds run
     healthy traffic on the final repaired version. *)
  let u1 = 4 + Finject.pick fi 3 in
  let u2 = 12 + Finject.pick fi 3 in
  let a1 = 18 + Finject.pick fi 3 in
  let u3 = 30 + Finject.pick fi 3 in
  let a2 = 35 + Finject.pick fi 3 in
  let requests = ref 0
  and served = ref 0
  and efaults = ref 0
  and dropped = ref 0 in
  let upgrades = ref [] and repairs = ref [] in
  let cell = Cell.create workload in
  let breach fmt = Cell.breach cell fmt in
  let q0 = rt.Lxfi.Runtime.stats.Lxfi.Stats.quarantines in
  let e0 = rt.Lxfi.Runtime.stats.Lxfi.Stats.escalations in

  let do_upgrade ~round ~buggy =
    let from_v = !version and to_v = !version + 1 in
    let hits0 = read_glob sys !mi "hits" in
    let s0 = Lxfi.Stats.snapshot rt.Lxfi.Runtime.stats in
    let new_mi, _rw, upr =
      Lxfi.Loader.upgrade rt !mi (make_prog ~version:to_v ~buggy)
    in
    let d = Lxfi.Stats.since rt.Lxfi.Runtime.stats s0 in
    let reconciled =
      d.Lxfi.Stats.caps_granted >= upr.Lxfi.Loader.up_restored
      && d.Lxfi.Stats.violations = 0
      && d.Lxfi.Stats.fn_entry = d.Lxfi.Stats.fn_exit
    in
    let state_carried =
      read_glob sys new_mi "hits" = hits0
      && read_glob sys new_mi "version" = to_v
    in
    let r =
      {
        ur_round = round;
        ur_from = from_v;
        ur_to = to_v;
        ur_swap_cycles = upr.Lxfi.Loader.up_swap_cycles;
        ur_restored = upr.Lxfi.Loader.up_restored;
        ur_dropped = upr.Lxfi.Loader.up_dropped;
        ur_violation_free = upr.Lxfi.Loader.up_violations_during = 0;
        ur_reconciled = reconciled;
        ur_state_carried = state_carried;
      }
    in
    if not r.ur_violation_free then
      breach "upgrade v%d->v%d raised %d violations" from_v to_v
        upr.Lxfi.Loader.up_violations_during;
    if not reconciled then
      breach "upgrade v%d->v%d: guard counters do not reconcile" from_v to_v;
    if not state_carried then
      breach "upgrade v%d->v%d: module state lost in the swap" from_v to_v;
    if not upr.Lxfi.Loader.up_write_surface_ok then
      breach "upgrade v%d->v%d: write surface unexpectedly shrank" from_v to_v;
    upgrades := r :: !upgrades;
    mi := new_mi;
    version := to_v
  in

  let do_repair ~round (inc : Lxfi.Repair.incident) =
    (* Reproduce on the very version that escalated... *)
    let bad_prog = make_prog ~version:!version ~buggy:true in
    let mi_bad, vd_bad = Lxfi.Repair.replay rt inc ~prog:bad_prog in
    let reproduced = Lxfi.Repair.reproduces inc vd_bad in
    Lxfi.Loader.unload rt mi_bad;
    (* ...then bring the service back on the fixed next version. *)
    incr version;
    let fix_prog = make_prog ~version:!version ~buggy:false in
    let mi_fix, vd_fix = Lxfi.Repair.replay rt inc ~prog:fix_prog in
    let clean =
      (not vd_fix.Lxfi.Repair.vd_contained) && vd_fix.Lxfi.Repair.vd_ret <> None
    in
    let r =
      {
        rp_round = round;
        rp_kind =
          (match inc.Lxfi.Repair.inc_kind with
          | Some k -> Lxfi.Violation.kind_name k
          | None -> "-");
        rp_window = Array.length inc.Lxfi.Repair.inc_window;
        rp_reproduced = reproduced;
        rp_clean = clean;
      }
    in
    if not reproduced then
      breach "repair at round %d: replay on the unrepaired module did not \
              reproduce the %s violation"
        round r.rp_kind;
    if not clean then
      breach "repair at round %d: replay on the repaired module still faults" round;
    if r.rp_window = 0 then breach "repair at round %d: empty faulting window" round;
    repairs := r :: !repairs;
    mi := mi_fix
  in

  for r = 1 to rounds do
    if (r = u1 || r = u2 || r = u3) && Hashtbl.mem rt.Lxfi.Runtime.modules "lcmod"
    then do_upgrade ~round:r ~buggy:true;
    let attacking =
      match List.length !repairs with
      | 0 -> r >= a1
      | 1 -> r >= a2
      | _ -> false
    in
    let n = if attacking then 8 + Finject.pick fi 8 else Finject.pick fi 8 in
    let buf = Slab.kmalloc kst.Kstate.slab 64 in
    incr requests;
    let ret =
      Lxfi.Quarantine.dispatch rt !mi "serve" [ Int64.of_int buf; Int64.of_int n ]
    in
    if Int64.equal ret Lxfi.Quarantine.efault then incr efaults
    else if Int64.compare ret 0L > 0 then incr served
    else incr dropped;
    ignore (serve ());
    (* An escalation during this round left an incident behind: run the
       repair→replay cycle before the next request lands. *)
    if List.length (Lxfi.Repair.incidents rep) > List.length !repairs then
      match Lxfi.Repair.last rep with
      | Some inc -> do_repair ~round:r inc
      | None -> ()
  done;

  Trace.detach ();

  (* ---- invariants ---- *)
  if !dropped > 0 then
    breach "%d requests dropped without -EFAULT (liveness oracle)" !dropped;
  if List.length !upgrades < 3 then
    breach "only %d upgrades ran (wanted >= 3)" (List.length !upgrades);
  if List.length !repairs < 2 then
    breach "only %d repair cycles ran (wanted >= 2)" (List.length !repairs);
  let bystander_ok = Cell.contained cell rt ~workload ~serve ~baseline in
  let breaches = Cell.breaches cell in
  ( {
      lc_workload = workload;
      lc_requests = !requests;
      lc_served = !served;
      lc_efaults = !efaults;
      lc_dropped = !dropped;
      lc_upgrades = List.rev !upgrades;
      lc_repairs = List.rev !repairs;
      lc_escalations = rt.Lxfi.Runtime.stats.Lxfi.Stats.escalations - e0;
      lc_quarantines = rt.Lxfi.Runtime.stats.Lxfi.Stats.quarantines - q0;
      lc_final_version = !version;
      lc_bystander_ok = bystander_ok;
      lc_invariants_ok = breaches = [];
    },
    breaches )

(* ------------------------------------------------------------------ *)
(* The full campaign.                                                  *)

(** [run ~seed] — one cell per bystander workload at derived seeds;
    rows sorted by workload, breaches empty = pass. *)
let run ~seed () =
  let rows, breaches =
    Cell.run ~seed (fun ~seed workload -> run_cell ~seed ~workload) Cell.names
  in
  (List.sort (fun a b -> compare a.lc_workload b.lc_workload) rows, breaches)

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let to_json ~seed (rows : row list) (breaches : string list) : Bench_json.t =
  let upgrade_json u =
    Bench_json.Obj
      [
        ("round", Bench_json.Int u.ur_round);
        ("from_version", Bench_json.Int u.ur_from);
        ("to_version", Bench_json.Int u.ur_to);
        ("swap_cycles", Bench_json.Int u.ur_swap_cycles);
        ("caps_restored", Bench_json.Int u.ur_restored);
        ("caps_dropped", Bench_json.Int u.ur_dropped);
        ("violation_free", Bench_json.Bool u.ur_violation_free);
        ("counters_reconciled", Bench_json.Bool u.ur_reconciled);
        ("state_carried", Bench_json.Bool u.ur_state_carried);
      ]
  in
  let repair_json p =
    Bench_json.Obj
      [
        ("round", Bench_json.Int p.rp_round);
        ("violation", Bench_json.Str p.rp_kind);
        ("window_events", Bench_json.Int p.rp_window);
        ("reproduced_on_unrepaired", Bench_json.Bool p.rp_reproduced);
        ("clean_on_repaired", Bench_json.Bool p.rp_clean);
      ]
  in
  let row_json r =
    Bench_json.Obj
      [
        ("workload", Bench_json.Str r.lc_workload);
        ("requests", Bench_json.Int r.lc_requests);
        ("served", Bench_json.Int r.lc_served);
        ("efaults", Bench_json.Int r.lc_efaults);
        ("dropped_without_efault", Bench_json.Int r.lc_dropped);
        ("upgrades", Bench_json.List (List.map upgrade_json r.lc_upgrades));
        ("repairs", Bench_json.List (List.map repair_json r.lc_repairs));
        ("escalations", Bench_json.Int r.lc_escalations);
        ("quarantines", Bench_json.Int r.lc_quarantines);
        ("final_version", Bench_json.Int r.lc_final_version);
        ("bystander_ok", Bench_json.Bool r.lc_bystander_ok);
        ("invariants_ok", Bench_json.Bool r.lc_invariants_ok);
      ]
  in
  Bench_json.Obj
    [
      ("seed", Bench_json.Int seed);
      ("rounds", Bench_json.Int rounds);
      ("rows", Bench_json.List (List.map row_json rows));
      ("breaches", Bench_json.List (List.map (fun b -> Bench_json.Str b) breaches));
      ("ok", Bench_json.Bool (breaches = []));
    ]

(** [print ~seed rows breaches] prints the report of a campaign result;
    returns 0 when every invariant held. *)
let print ~seed rows breaches =
  Report.table
    ~title:(Printf.sprintf "Module lifecycle campaign (seed %d)" seed)
    ~header:
      [
        "workload"; "reqs"; "served"; "efault"; "dropped"; "upgrades"; "repairs";
        "escal"; "ver"; "bystander"; "invariants";
      ]
    (List.map
       (fun r ->
         [
           r.lc_workload;
           Report.int_ r.lc_requests;
           Report.int_ r.lc_served;
           Report.int_ r.lc_efaults;
           Report.int_ r.lc_dropped;
           Report.int_ (List.length r.lc_upgrades);
           Report.int_ (List.length r.lc_repairs);
           Report.int_ r.lc_escalations;
           Report.int_ r.lc_final_version;
           (if r.lc_bystander_ok then "ok" else "FAIL");
           (if r.lc_invariants_ok then "ok" else "BREACH");
         ])
       rows);
  print_endline "";
  List.iter
    (fun r ->
      List.iter
        (fun u ->
          Printf.printf
            "  %s: round %2d  v%d -> v%d  swap %6d cycles  %3d caps restored, %d dropped\n"
            r.lc_workload u.ur_round u.ur_from u.ur_to u.ur_swap_cycles u.ur_restored
            u.ur_dropped)
        r.lc_upgrades;
      List.iter
        (fun p ->
          Printf.printf
            "  %s: round %2d  repair after %s (%d traced events): reproduced=%b clean=%b\n"
            r.lc_workload p.rp_round p.rp_kind p.rp_window p.rp_reproduced p.rp_clean)
        r.lc_repairs)
    rows;
  Cell.verdict
    ~held:
      "lifecycle invariants held (liveness, violation-free swaps, counter \
       reconciliation, recovery oracle)"
    ~cells:(List.length rows) breaches
