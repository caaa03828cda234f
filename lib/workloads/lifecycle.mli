(** Live module lifecycle campaign (`lxfi_sim lifecycle`): hot upgrades
    under traffic and quarantine→repair→replay recovery, beside the
    bystanders of {!Cell}.  Oracles per cell: no request dropped
    without [-EFAULT], every swap violation-free with reconciled guard
    counters and carried module state, every captured incident
    reproduced by replay on the unrepaired version and served cleanly
    by the repaired one.  Deterministic under a fixed seed. *)

val make_prog : version:int -> buggy:bool -> Mir.Ast.prog
(** Version [version] of the [lcmod] target.  The buggy variant writes
    out of its 64-byte grant for inputs [n >= 8]; the fixed variant
    clamps the index. *)

val define_slots : Kmodules.Ksys.t -> unit

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

val rounds : int
(** Requests served per cell. *)

val run_cell : seed:int -> workload:string -> row * string list
(** One cell: boot fresh, serve [rounds] requests with three
    mid-traffic upgrades and two repair cycles at seed-derived rounds.
    Returns the row and any invariant breaches (empty = all held). *)

val run : seed:int -> unit -> row list * string list
(** One cell per bystander workload at derived seeds; rows sorted by
    workload name. *)

val to_json : seed:int -> row list -> string list -> Bench_json.t
(** Byte-stable JSON rendering of a campaign result (simulated
    quantities only — safe to [cmp] across reruns). *)

val print : seed:int -> row list -> string list -> int
(** Print the report of a {!run} result; 0 when every invariant
    held. *)
