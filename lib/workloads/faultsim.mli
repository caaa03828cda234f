(** Deterministic fault-injection campaigns against the quarantine
    policy (`lxfi_sim faultsim`): every cell injects one fault class
    (alloc-fail, drop-grant, corrupt-slot, watchdog) into a purpose-
    built faulty module while a real workload module (e1000 netperf,
    can, rds) runs alongside, then asserts containment: shadow stack
    balanced, kernel principal restored, quarantined principals hold
    zero capabilities, no cross-principal capability leakage, bystander
    still serves traffic.  All randomness derives from the seed. *)

type fault_class = Alloc_fail | Drop_grant | Corrupt_slot | Watchdog

val classes : fault_class list
val class_name : fault_class -> string

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

val workloads : (string * (Kmodules.Ksys.t -> unit -> int64)) list
(** Bystander workload setups: each boots its module(s) into the given
    system and returns a [serve] probe whose value must be unchanged
    after a campaign cell's faults.  Shared with {!Lifecycle}. *)

val workload_names : string list

val run_cell :
  ?trace_dir:string ->
  seed:int ->
  fault_class ->
  workload:string ->
  plan:Kernel_sim.Finject.plan ->
  row * string list
(** Boot a fresh quarantine system, run one injection cell, return its
    row and any invariant breaches (empty = all held).  With
    [trace_dir] set, the faulting window is traced and written as
    Chrome trace-event JSON into that directory. *)

val run : ?trace_dir:string -> seed:int -> unit -> row list * string list
(** The full campaign: every fault class x workload at seed-derived
    injection points.  Rows are sorted; breaches empty on success. *)

val to_json : row list -> string list -> Bench_json.t
(** Byte-stable JSON rendering of a {!run} result (simulated quantities
    only); also the [faultsim] part of [lxfi_sim reference]. *)

val print : seed:int -> row list -> string list -> int
(** Print the report table of a {!run} result; 0 when every invariant
    held. *)
