(** Deterministic fault-injection campaigns against the quarantine
    policy (`lxfi_sim faultsim`).

    Every cell of the campaign boots a fresh quarantine-enabled system
    ([Config.lxfi_quarantine]), installs one real workload module as the
    {e bystander} (e1000 under netperf-style traffic, or can / rds
    socket traffic) plus a purpose-built faulty module [fsim] as the
    {e target}, then injects one class of fault into the target while
    driving it through the same kernel→module dispatch path a real
    entry uses:

    - {b alloc-fail}: {!Kernel_sim.Finject} makes the target's [N]th
      [kmalloc] return NULL; [fsim] stores through the unchecked result,
      which the store guard denies (no capability covers NULL);
    - {b drop-grant}: the [N]th wrapper capability grant is silently
      dropped, so the target's store into its own argument buffer is
      denied;
    - {b corrupt-slot}: the [N]th round scribbles a wild address into
      the module-writable function-pointer slot the kernel calls
      through; the writer-set check denies the call at kernel level
      (contained by {!Lxfi.Quarantine.protect});
    - {b watchdog}: round [N] enters an infinite loop, which the
      per-entry fuel budget turns into a [Watchdog_expired] violation.

    After the injection the driver keeps invoking the target, so the
    escalation path (repeat offender → whole-module retirement) is
    exercised in the same cell.  Every cell then asserts the invariants
    [test_failure.ml] pins: shadow stack balanced, kernel principal
    restored, quarantined principals hold zero capabilities, no foreign
    principal holds CALL for the target's text, and the bystander still
    serves traffic.  All randomness (injection points, wild addresses)
    derives from the campaign seed, so the report is identical across
    runs. *)

open Kernel_sim
open Kmodules
open Mir.Builder

type fault_class = Alloc_fail | Drop_grant | Corrupt_slot | Watchdog

let classes = [ Alloc_fail; Drop_grant; Corrupt_slot; Watchdog ]

let class_name = function
  | Alloc_fail -> "alloc-fail"
  | Drop_grant -> "drop-grant"
  | Corrupt_slot -> "corrupt-slot"
  | Watchdog -> "watchdog"

type row = {
  fs_class : string;
  fs_workload : string;
  fs_plan : string;  (** "nth=3" or "p=0.25" *)
  fs_fired : int;  (** faults actually injected *)
  fs_quarantines : int;
  fs_escalations : int;
  fs_efaults : int;  (** contained entries (-EFAULT to the caller) *)
  fs_bystander_ok : bool;
  fs_invariants_ok : bool;
}

(* ------------------------------------------------------------------ *)
(* The target: a module with one bug per fault class.                  *)

let alloc_slot = "fsim.alloc"
let fill_slot = "fsim.fill"
let spin_slot = "fsim.spin"
let ok_slot = "fsim.ok"

(* [alloc_op] omits the NULL check every correct module carries (cf.
   econet's sendmsg) — the classic error-path bug alloc-fail hunts. *)
let fsim_prog =
  prog "fsim" ~imports:[ "kmalloc"; "kfree" ]
    ~globals:[ global "g" 64; global "ops" 8 ~init:[ init_func 0 "ok" ] ]
    ~funcs:
      [
        func "module_init" [] [ ret0 ];
        func "alloc_op" [ "n" ]
          [
            let_ "p" (call_ext "kmalloc" [ ii 96 ]);
            store64 (v "p") (v "n");
            expr (call_ext "kfree" [ v "p" ]);
            ret0;
          ]
          ~export:alloc_slot;
        func "fill_op" [ "buf"; "n" ]
          [ store64 (v "buf") (v "n"); ret (load64 (v "buf")) ]
          ~export:fill_slot;
        func "spin_op" [ "n" ] [ while_ (ii 1) []; ret0 ] ~export:spin_slot;
        func "ok" [ "n" ]
          [ store64 (glob "g") (v "n"); ret (load64 (glob "g")) ]
          ~export:ok_slot;
      ]

(* Linked once per process; each cell only loads it. *)
let fsim = Lxfi.Loader.linker fsim_prog

(* Declared once per process; each boot only adds them. *)
let slot_decls =
  [
    Ksys.declare alloc_slot [ "n" ] "";
    Ksys.declare fill_slot [ "buf"; "n" ] "pre(copy(write, buf, sizeof(struct socket)))";
    Ksys.declare spin_slot [ "n" ] "";
    Ksys.declare ok_slot [ "n" ] "";
  ]

let workloads = Cell.bystanders
let workload_names = Cell.names

(* ------------------------------------------------------------------ *)
(* One campaign cell.                                                  *)

let rounds = 10

let plan_label = function
  | Finject.Nth n -> Printf.sprintf "nth=%d" n
  | Finject.Prob p -> Printf.sprintf "p=%.2f" p

(** [run_cell ~seed fclass ~workload ~plan] boots a fresh system, runs
    one injection cell and returns its report row plus any invariant
    breaches (empty = all held).  With [trace_dir] set, the faulting
    window — from just before the injection rounds through the
    post-fault probes — is traced into a small ring (newest events win)
    and written as Chrome trace-event JSON into the directory. *)
let run_cell ?trace_dir ~seed fclass ~workload ~plan =
  let sys = Ksys.boot Lxfi.Config.lxfi_quarantine in
  let rt = sys.Ksys.rt and kst = sys.Ksys.kst in
  Ksys.add_slots sys slot_decls;
  let serve = Cell.bystander workload sys in
  let mi = Lxfi.Loader.load_image rt (fsim rt) in
  let baseline = serve () in
  let q0 = rt.Lxfi.Runtime.stats.Lxfi.Stats.quarantines in
  let e0 = rt.Lxfi.Runtime.stats.Lxfi.Stats.escalations in
  let fi = Finject.create ~seed in
  let efaults = ref 0 in
  let dispatch fname args =
    let r = Lxfi.Quarantine.dispatch rt mi fname args in
    if Int64.equal r Lxfi.Quarantine.efault then incr efaults;
    r
  in
  let tbuf =
    match trace_dir with
    | None -> None
    | Some dir ->
        let b = Trace.make ~capacity:4096 () in
        Lxfi.Runtime.attach_trace rt b;
        Some (dir, b)
  in
  let fired = ref 0 in
  (match fclass with
  | Alloc_fail ->
      Finject.arm fi Finject.Alloc_fail plan;
      Kstate.arm_finject kst fi;
      for i = 1 to rounds do
        ignore (dispatch "alloc_op" [ Int64.of_int i ])
      done;
      Kstate.disarm_finject kst;
      fired := Finject.fired fi Finject.Alloc_fail
  | Drop_grant ->
      Finject.arm fi Finject.Drop_grant plan;
      Kstate.arm_finject kst fi;
      for i = 1 to rounds do
        (* A fresh buffer per round, so each round's wrapper grant is
           the only thing standing between the module and a denial —
           a copied capability from an earlier round would mask the
           drop otherwise. *)
        let buf = Slab.kmalloc kst.Kstate.slab (Ksys.sizeof sys "socket") in
        ignore (dispatch "fill_op" [ Int64.of_int buf; Int64.of_int i ])
      done;
      Kstate.disarm_finject kst;
      fired := Finject.fired fi Finject.Drop_grant
  | Corrupt_slot ->
      Finject.arm fi Finject.Corrupt_slot plan;
      let slot = Mod_common.gaddr mi "ops" in
      let mem = Ksys.mem sys in
      let good = Kmem.read_ptr mem slot in
      for i = 1 to rounds do
        (* The injection models the module scribbling on its own slot —
           something a quarantined module (capabilities revoked) can no
           longer do, so the injector only fires while it holds them. *)
        if
          mi.Lxfi.Runtime.mi_shared.Lxfi.Principal.quarantined = None
          && Finject.fires fi Finject.Corrupt_slot
        then Kmem.write_ptr mem slot (Finject.garbage_addr fi);
        match
          Lxfi.Quarantine.protect rt (fun () ->
              Lxfi.Runtime.kernel_indirect_call rt ~slot ~ftype:ok_slot
                [ Int64.of_int i ])
        with
        | Ok r -> if Int64.equal r Lxfi.Quarantine.efault then incr efaults
        | Error _ ->
            incr efaults;
            (* The kernel notices the -EFAULT and re-initialises its
               pointer; later calls then hit the quarantined / retired
               module and stay contained. *)
            Kmem.write_ptr mem slot good
      done;
      fired := Finject.fired fi Finject.Corrupt_slot
  | Watchdog ->
      let at = match plan with Finject.Nth n -> n | Finject.Prob _ -> 1 in
      for i = 1 to rounds do
        if i = at then ignore (dispatch "spin_op" [ 0L ])
        else ignore (dispatch "ok" [ Int64.of_int i ])
      done;
      fired := rt.Lxfi.Runtime.stats.Lxfi.Stats.watchdog_expiries);
  (* Post-fault probes: keep knocking so repeat-offender escalation has
     a chance to trigger inside the same cell. *)
  for i = 1 to 3 do
    ignore (dispatch "ok" [ Int64.of_int i ])
  done;
  (match tbuf with
  | None -> ()
  | Some (dir, b) ->
      Trace.detach ();
      Trace_profile.write_chrome_json
        (Printf.sprintf "%s/faultsim_%s_%s_%s.json" dir (class_name fclass) workload
           (plan_label plan))
        b);
  (* ---- invariants ---- *)
  let cell =
    Cell.create (Printf.sprintf "%s/%s/%s" (class_name fclass) workload (plan_label plan))
  in
  let bystander_ok = Cell.contained cell rt ~workload ~serve ~baseline in
  List.iter
    (fun (p : Lxfi.Principal.t) ->
      if p.Lxfi.Principal.owner <> "fsim" then
        Hashtbl.iter
          (fun fname addr ->
            if Lxfi.Captable.has_call p.Lxfi.Principal.caps ~target:addr then
              Cell.breach cell "capability leak: %s holds CALL for fsim.%s"
                (Lxfi.Principal.describe p) fname)
          mi.Lxfi.Runtime.mi_func_addr)
    (Lxfi.Runtime.all_principals rt);
  let quarantines = rt.Lxfi.Runtime.stats.Lxfi.Stats.quarantines - q0 in
  let escalations = rt.Lxfi.Runtime.stats.Lxfi.Stats.escalations - e0 in
  if !fired > 0 && quarantines = 0 then
    Cell.breach cell "%d faults injected but nothing was quarantined" !fired;
  let breaches = Cell.breaches cell in
  ( {
      fs_class = class_name fclass;
      fs_workload = workload;
      fs_plan = plan_label plan;
      fs_fired = !fired;
      fs_quarantines = quarantines;
      fs_escalations = escalations;
      fs_efaults = !efaults;
      fs_bystander_ok = bystander_ok;
      fs_invariants_ok = breaches = [];
    },
    breaches )

(* ------------------------------------------------------------------ *)
(* The full campaign.                                                  *)

(** [run ~seed] sweeps every fault class over every workload at
    seed-derived injection points; returns the rows plus every
    invariant breach (an empty list is the pass criterion). *)
let run ?trace_dir ~seed () =
  let rng = Finject.create ~seed in
  (* Two deterministic single-shot points inside the drive window plus
     one probabilistic plan per finject-driven class. *)
  let points =
    [
      Finject.Nth (2 + Finject.pick rng 3);
      Finject.Nth (6 + Finject.pick rng 3);
      Finject.Prob 0.25;
    ]
  in
  let cells =
    List.concat_map
      (fun fclass ->
        let plans =
          match fclass with
          | Watchdog -> [ Finject.Nth (1 + Finject.pick rng rounds) ]
          | Alloc_fail | Drop_grant | Corrupt_slot -> points
        in
        List.concat_map
          (fun workload -> List.map (fun plan -> (fclass, workload, plan)) plans)
          workload_names)
      classes
  in
  let rows, breaches =
    Cell.run ~seed
      (fun ~seed (fclass, workload, plan) -> run_cell ?trace_dir ~seed fclass ~workload ~plan)
      cells
  in
  (* Campaign-level acceptance: at least one quarantine per fault
     class (the deterministic Nth cells guarantee it). *)
  let class_breaches =
    List.filter_map
      (fun fclass ->
        let name = class_name fclass in
        let total =
          List.fold_left
            (fun acc r -> if r.fs_class = name then acc + r.fs_quarantines else acc)
            0 rows
        in
        if total = 0 then Some (Printf.sprintf "%s: no quarantine in any cell" name)
        else None)
      classes
  in
  let rows =
    List.sort
      (fun a b ->
        compare
          (a.fs_class, a.fs_workload, a.fs_plan)
          (b.fs_class, b.fs_workload, b.fs_plan))
      rows
  in
  (rows, breaches @ class_breaches)

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let to_json (rows : row list) (breaches : string list) : Bench_json.t =
  let row_json r =
    Bench_json.Obj
      [
        ("class", Bench_json.Str r.fs_class);
        ("workload", Bench_json.Str r.fs_workload);
        ("plan", Bench_json.Str r.fs_plan);
        ("fired", Bench_json.Int r.fs_fired);
        ("quarantines", Bench_json.Int r.fs_quarantines);
        ("escalations", Bench_json.Int r.fs_escalations);
        ("efaults", Bench_json.Int r.fs_efaults);
        ("bystander_ok", Bench_json.Bool r.fs_bystander_ok);
        ("invariants_ok", Bench_json.Bool r.fs_invariants_ok);
      ]
  in
  Bench_json.Obj
    [
      ("cells", Bench_json.Int (List.length rows));
      ("breaches", Bench_json.Int (List.length breaches));
      ("all_invariants_held", Bench_json.Bool (breaches = []));
      ("rows", Bench_json.List (List.map row_json rows));
    ]

(** [print ~seed rows breaches] prints the report of a campaign result;
    returns 0 when every invariant held, 1 otherwise. *)
let print ~seed rows breaches =
  Report.table
    ~title:(Printf.sprintf "Fault-injection campaign (seed %d)" seed)
    ~header:
      [
        "fault"; "workload"; "plan"; "fired"; "quar"; "escal"; "efault"; "bystander";
        "invariants";
      ]
    (List.map
       (fun r ->
         [
           r.fs_class;
           r.fs_workload;
           r.fs_plan;
           Report.int_ r.fs_fired;
           Report.int_ r.fs_quarantines;
           Report.int_ r.fs_escalations;
           Report.int_ r.fs_efaults;
           (if r.fs_bystander_ok then "ok" else "FAIL");
           (if r.fs_invariants_ok then "ok" else "BREACH");
         ])
       rows);
  Cell.verdict ~held:"invariants held (shadow stack, principal, caps, traffic)"
    ~cells:(List.length rows) breaches
