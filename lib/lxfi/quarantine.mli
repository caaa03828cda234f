(** Fault containment: the quarantine policy.

    Where the paper's runtime panics on an LXFI violation (§6), a
    quarantine-enabled config ([Config.quarantine]) contains it: the
    offending principal loses every capability and can no longer enter,
    the shadow stack unwinds to the kernel frame, and the kernel caller
    receives {!efault} — sibling instances and other modules keep
    running.  Three violations of one module within a million simulated
    cycles escalate to whole-module retirement.  See DESIGN.md, "Recovery
    semantics". *)

val efault : int64
(** -14, the error a contained entry returns to the kernel caller. *)

val enabled : Runtime.t -> bool
(** Quarantine is on and the mode is Lxfi. *)

val quarantine_principal : Runtime.t -> Principal.t -> reason:string -> unit
(** Revoke everything the principal holds and bar it from future entry
    selection.  Idempotent. *)

val escalate : Runtime.t -> Runtime.module_info -> reason:string -> unit
(** Quarantine every principal of the module and retire its dispatch
    entries (the containment analogue of unload).  Idempotent. *)

val handle : Runtime.t -> Violation.info -> unit
(** Apply the policy to a caught violation: count, quarantine the
    faulting principal, escalate the module if it keeps offending. *)

val dispatch : Runtime.t -> Runtime.module_info -> string -> int64 list -> int64
(** The kernel→module entry registered by the loader: transparent
    without quarantine; with it, any violation / memory fault / oops is
    contained and returns {!efault} to the kernel caller. *)

val protect : Runtime.t -> (unit -> 'a) -> ('a, Violation.info) result
(** Contain violations surfacing at kernel top level (kernel indirect
    calls through corrupted or retired slots).  Without quarantine
    enabled, exceptions propagate unchanged. *)
