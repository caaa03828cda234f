(** Quarantine → repair → replay: incident capture at escalation and
    recovery-oracle replay of the faulting entry against a candidate
    fixed module.  See DESIGN.md, "Recovery semantics". *)

type incident = {
  inc_module : string;
  inc_reason : string;  (** escalation reason string *)
  inc_kind : Violation.kind option;
      (** class of the violation that tripped the escalation *)
  inc_snapshot : Snapshot.t;
      (** security state at escalation, captured pre-retirement while
          the capability tables were still intact *)
  inc_window : Trace.event array;
      (** traced events from the start of the faulting kernel→module
          entry to the escalation; empty without an attached buffer *)
  inc_entry : (string * int64 list) option;
      (** innermost kernel→module entry (function, args), as recorded
          by the quarantine dispatcher *)
}

type t

val arm : Runtime.t -> t
(** Install the pre-retirement escalation hook; every later escalation
    of any module appends an {!incident}. *)

val incidents : t -> incident list
(** All captured incidents, newest first. *)

val last : t -> incident option

type verdict = {
  vd_ret : int64 option;  (** return value when the entry completed *)
  vd_violation : Violation.kind option;
      (** violation class the replay provoked, when contained *)
  vd_contained : bool;  (** the entry was contained to [-EFAULT] *)
}

val reproduces : incident -> verdict -> bool
(** Does the verdict reproduce the incident's violation class?  Classes
    are compared, not detail strings — addresses drift between the
    original and replayed instance. *)

val replay :
  Runtime.t -> incident -> image:Loader.image -> Runtime.module_info * verdict
(** [replay rt inc ~image] loads [image] under the retired module's name
    (free since the escalation), runs its [module_init], restores the
    incident snapshot (additively; quarantined principals stay revoked,
    CALL toward retired text is refused), and re-drives the recorded
    faulting entry through {!Quarantine.dispatch}.  The recovery oracle:
    {!reproduces} must hold for the unrepaired program and must not for
    the repaired one.  The loaded instance is returned either way —
    unload the unrepaired one after the check.  Raises
    [Invalid_argument] if [image] is named differently from the retired
    module; requires a quarantine-enabled config. *)
