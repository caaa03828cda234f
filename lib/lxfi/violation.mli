(** API-integrity violations.  Where the paper's runtime panics the
    kernel, the simulation raises {!Violation}; a caught violation is
    the "LXFI prevented the exploit" outcome of Figure 8.  Under a
    quarantine-enabled config the runtime additionally contains the
    fault: see {!Quarantine}. *)

type kind =
  | Write_denied  (** store without a covering WRITE capability *)
  | Call_denied  (** call/jump without a CALL capability *)
  | Ref_denied  (** argument without the required REF capability *)
  | Annot_mismatch  (** function vs. slot-type annotation hash differs *)
  | Shadow_stack  (** return address or principal stack corrupted *)
  | Principal_denied  (** privileged principal operation without standing *)
  | Watchdog_expired  (** module entry exceeded its fuel budget *)
  | Flow_violation  (** kernel-API call outside the module's flow graph *)

val all_kinds : kind list
(** Every violation class, in declaration order (exported for the
    counter-table test, as are {!counter_row} and {!to_diag}). *)

val kind_name : kind -> string

val kind_of_name : string -> kind option
(** Inverse of {!kind_name} (the names appear in corpus [expect:]
    directives and JSON reports). *)

val counter_row : kind -> string
(** The Figure 13 row title under which this kind is accounted
    ("Violations", "Watchdog expiries", "Flow violations", ...).
    Exhaustive: a new kind cannot compile without a row decision, and
    the stats tests assert the row exists in the table.  The
    "Violations" row counts only violations the quarantine policy
    contains, so it reads 0 under [Config.lxfi]; under quarantine a
    contained watchdog expiry or flow violation counts in its own row
    and in "Violations" too. *)

type info = {
  v_kind : kind;
  v_module : string;
  v_principal : Principal.t option;  (** faulting principal, when known *)
  v_where : string option;  (** fault location, e.g. ["entry@1234"] *)
  v_detail : string;
}

exception Violation of info

val to_diag : info -> Diag.t
(** The violation as a structured diagnostic (severity [Error], source
    ["runtime.violation"]) — the same record shape the static checker
    and the quarantine log use. *)

val raise_ :
  ?principal:Principal.t ->
  ?where:string ->
  kind:kind ->
  module_:string ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** [raise_ ~kind ~module_ fmt ...] logs and raises {!Violation}.
    [?principal]/[?where] attribute the fault to an exact instance and
    instruction location when the raiser knows them. *)

val pp : Format.formatter -> info -> unit
