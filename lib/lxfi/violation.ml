(** API-integrity violations.

    When a check fails, the paper's runtime panics the kernel.  The
    simulation raises [Violation] instead, which the test and exploit
    harnesses catch — a caught violation is the "LXFI prevented the
    exploit" outcome of Figure 8.  Under a quarantine-enabled config the
    runtime additionally contains the fault: see {!Quarantine}. *)

type kind =
  | Write_denied  (** store without a covering WRITE capability *)
  | Call_denied  (** call/jump without a CALL capability *)
  | Ref_denied  (** argument without the required REF capability *)
  | Annot_mismatch  (** function vs. slot-type annotation hash differs *)
  | Shadow_stack  (** return address or principal stack corrupted *)
  | Principal_denied  (** privileged principal operation without standing *)
  | Watchdog_expired  (** module entry exceeded its fuel budget *)
  | Flow_violation  (** kernel-API call outside the module's flow graph *)

let all_kinds =
  [
    Write_denied;
    Call_denied;
    Ref_denied;
    Annot_mismatch;
    Shadow_stack;
    Principal_denied;
    Watchdog_expired;
    Flow_violation;
  ]

let kind_name = function
  | Write_denied -> "write-denied"
  | Call_denied -> "call-denied"
  | Ref_denied -> "ref-denied"
  | Annot_mismatch -> "annotation-mismatch"
  | Shadow_stack -> "shadow-stack"
  | Principal_denied -> "principal-denied"
  | Watchdog_expired -> "watchdog-expired"
  | Flow_violation -> "flow-violation"

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) all_kinds

(** Figure 13 row title accounting for a kind.  Exhaustive on purpose:
    adding a [kind] without deciding its counter row is a compile error,
    and the tests assert every row title actually appears in the
    table. *)
let counter_row = function
  | Write_denied | Call_denied | Ref_denied | Annot_mismatch | Shadow_stack
  | Principal_denied ->
      "Violations"
  | Watchdog_expired -> "Watchdog expiries"
  | Flow_violation -> "Flow violations"

type info = {
  v_kind : kind;
  v_module : string;
  v_principal : Principal.t option;  (** faulting principal, when known *)
  v_where : string option;  (** fault location, e.g. ["entry@1234"] *)
  v_detail : string;
}

exception Violation of info

let origin ?principal ?where () =
  let p = match principal with Some p -> " " ^ Principal.describe p | None -> "" in
  let w = match where with Some w -> " at " ^ w | None -> "" in
  p ^ w

(** A violation as a structured diagnostic — the record the runtime
    shares with the static checker's findings and the quarantine log. *)
let to_diag (i : info) : Diag.t =
  Diag.make
    ?principal:(Option.map Principal.describe i.v_principal)
    ~location:
      (match i.v_where with None -> i.v_module | Some w -> i.v_module ^ "/" ^ w)
    ~source:"runtime.violation" Diag.Error
    (Printf.sprintf "[%s] %s" (kind_name i.v_kind) i.v_detail)

let raise_ ?principal ?where ~kind ~module_ fmt =
  Format.kasprintf
    (fun detail ->
      if !Trace.on then Trace.emit (Trace.Violation (kind_name kind, module_));
      let i =
        { v_kind = kind; v_module = module_; v_principal = principal;
          v_where = where; v_detail = detail }
      in
      Kernel_sim.Klog.diag (to_diag i);
      raise (Violation i))
    fmt

let pp ppf i =
  Fmt.pf ppf "LXFI violation [%s] in module %s%s: %s" (kind_name i.v_kind) i.v_module
    (origin ?principal:i.v_principal ?where:i.v_where ())
    i.v_detail
