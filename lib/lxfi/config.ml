(** Enforcement configuration.

    [mode] selects which system the simulation runs:

    - [Stock]: an uninstrumented kernel+module — the baseline all
      exploits succeed against.
    - [Xfi]: memory safety + module-side CFI only, in the spirit of
      XFI [Erlingsson et al., OSDI'06].  Modules can only write memory
      they own and call imports/own functions, but kernel APIs are not
      annotated (no argument contracts, no REF checks), the kernel does
      not interpose on its own indirect calls, and there are no
      principals.  This is the ablation that shows why API integrity is
      needed: confused-deputy attacks through permissive kernel APIs
      (RDS) and module-supplied corrupted pointers invoked by the
      kernel (Econet) still succeed.
    - [Lxfi]: the full system of the paper.

    [writer_set_tracking] and [opt_rewrite] expose the paper's
    performance mechanisms for the ablation benchmarks: writer-set
    tracking (§5), and the rewriter's guard elision for provably-safe
    stores and trivial-function inlining (§8.3). *)

type mode = Stock | Xfi | Lxfi

type t = {
  mode : mode;
  writer_set_tracking : bool;  (** fast-path elision of kernel ind-call checks *)
  opt_rewrite : bool;
      (** inline trivial functions before guarding, and drop guards on
          in-bounds constant-offset stack stores *)
  quarantine : bool;
      (** contain violations by quarantining the faulting principal and
          returning -EFAULT instead of letting the violation propagate *)
  watchdog_fuel : int option;
      (** per-entry interpreter fuel budget; exhaustion becomes a
          [Watchdog_expired] violation instead of a soft-lockup oops *)
  strict_check : bool;
      (** refuse to load a module with error-severity static-checker
          findings (annotation lint + capability-flow); off by default —
          the checker is load-time only and must not perturb benchmarks *)
}

let lxfi =
  {
    mode = Lxfi;
    writer_set_tracking = true;
    opt_rewrite = true;
    quarantine = false;
    watchdog_fuel = None;
    strict_check = false;
  }

let stock = { lxfi with mode = Stock }
let xfi = { lxfi with mode = Xfi }

let lxfi_noopt = { lxfi with opt_rewrite = false }
let lxfi_quarantine = { lxfi with quarantine = true; watchdog_fuel = Some 1_000_000 }

let mode_name = function Stock -> "stock" | Xfi -> "xfi" | Lxfi -> "lxfi"
