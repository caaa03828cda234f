(** Enforcement configuration: which system the simulation runs and
    which of the paper's optimizations are active. *)

type mode =
  | Stock  (** no instrumentation, no checks — the exploitable baseline *)
  | Xfi
      (** memory safety + module-side CFI only (the XFI-style ablation):
          no API-integrity annotations, no principals, no kernel-side
          indirect-call interposition *)
  | Lxfi
      (** the full system of the paper, plus syscall-flow integrity: an
          off-graph kexport call within a kernel-entered activation
          raises [Flow_violation] *)

type t = {
  mode : mode;
  writer_set_tracking : bool;
      (** §4.1/§5 fast path eliding kernel indirect-call checks *)
  opt_elide_safe_writes : bool;
      (** drop guards on provably in-bounds constant-offset stack stores
          (§8.3, the MD5 result) *)
  opt_inline_trivial : bool;
      (** inline trivial functions before guarding (§8.3, the lld
          result) *)
  quarantine : bool;
      (** contain violations by quarantining the faulting principal and
          returning -EFAULT, instead of letting the violation propagate
          (the paper panics; see DESIGN.md "Recovery semantics") *)
  watchdog_fuel : int option;
      (** per-entry interpreter fuel budget; exhaustion becomes a
          [Watchdog_expired] violation instead of a soft-lockup oops *)
  strict_check : bool;
      (** refuse to load a module with error-severity static-checker
          findings; off in every preset (the checker is load-time only
          and must not perturb benchmarks) *)
}

val lxfi : t
(** Full enforcement with all optimizations. *)

val stock : t
val xfi : t

val lxfi_quarantine : t
(** Full enforcement plus fault containment: quarantine on violation and
    a per-entry watchdog budget. *)

val mode_name : mode -> string
