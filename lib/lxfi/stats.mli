(** Guard counters — the raw material of Figure 13 (guards per packet
    by type) and the writer-set ablation.  Monotonic; benchmark code
    snapshots around a workload section and divides by units of work. *)

type t = {
  mutable annotation_actions : int;
      (** capability operations performed by wrapper annotations (one
          count per capability processed) *)
  mutable fn_entry : int;  (** wrapper/function entry guards *)
  mutable fn_exit : int;
  mutable mem_write_checks : int;  (** module store guards *)
  mutable mod_indcall_checks : int;  (** module-side indirect-call guards *)
  mutable kernel_indcall_all : int;  (** kernel indirect-call sites executed *)
  mutable kernel_indcall_checked : int;  (** ... that needed the full check *)
  mutable kernel_indcall_elided : int;  (** ... skipped via the writer-set fast path *)
  mutable caps_granted : int;
  mutable caps_revoked : int;
  mutable principal_switches : int;
  mutable violations : int;
      (** violations and faults contained by the quarantine policy (its
          only writers are [Quarantine.handle] and [handle_fault]), so
          always 0 under [Config.lxfi].  A contained watchdog expiry or
          flow violation counts here and in its own counter. *)
  mutable quarantines : int;  (** principals quarantined *)
  mutable escalations : int;  (** whole-module unloads after repeat offenses *)
  mutable watchdog_expiries : int;
  mutable flow_violations : int;  (** kernel-API calls denied by the flow automaton *)
  mutable caps_dropped : int;  (** grants suppressed by fault injection *)
}

val create : unit -> t

type counter = { name : string; get : t -> int; set : t -> int -> unit }

val all : counter list
(** One row per field of [t], in the order of the JSON guard-counter
    objects.  [name] is the field's name. *)

val snapshot : t -> t
(** An independent copy, for differential measurement. *)

val since : t -> t -> t
(** [since t s] — counter deltas from the earlier snapshot [s] to [t]. *)

val pp : Format.formatter -> t -> unit
(** [guards{name=n; ...}] over {!all}. *)
