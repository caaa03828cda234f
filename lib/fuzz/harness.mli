(** Multi-oracle differential harness.

    Clean cases run under stock, full-enforcement (lxfi) and
    de-optimized lxfi, and must agree on every invocation outcome and
    on final arena/buffer memory (oracle 1: enforcement invisibility);
    the static checker must report zero errors on them (oracle 3, clean
    half) and, when tracing is on, the per-principal cycle totals must
    reconcile with the cycle clock (oracle 4).

    Mutants run once under full enforcement with the watchdog armed,
    and must be detected as exactly their class's expected violation
    kind before the targeted kernel canary changes (oracle 2), with the
    static checker's error findings consistent with the runtime outcome
    (oracle 3, adversarial half). *)

type outcome =
  | Oval of int64
  | Oviolation of Lxfi.Violation.kind
  | Oexn of string  (** oops / fault / other exception, as text *)

val outcome_string : outcome -> string

val fuel : int
(** Watchdog budget for mutant runs — an order of magnitude above the
    worst clean entry the generator can emit. *)

val mutant_config : Lxfi.Config.t
(** Full enforcement plus the armed watchdog (quarantine stays off so
    violations propagate to the oracle). *)

val canary_addr : int Lazy.t
(** Address the canary occupies under {!mutant_config} — the same in
    every boot, because the harness allocates it first thing after
    boot, before the module is loaded.  {!Mutate.apply} needs it up
    front; it is found once per process. *)

exception Setup_failed of string
(** Load/init of a generated module failed — a generator or loader bug,
    reported as a campaign divergence rather than a crash. *)

type ctx = {
  sys : Kmodules.Ksys.t;
  mi : Lxfi.Runtime.module_info;
  image : Lxfi.Loader.image;
  canary : int;  (** address of the kernel canary *)
  kbuf : int;  (** address of the module's [touch] buffer *)
}

val boot :
  ?flow_of:Mir.Ast.prog ->
  Lxfi.Config.t ->
  (Lxfi.Runtime.t -> Lxfi.Loader.image) ->
  ctx
(** A fresh system with the canary and buffer allocated, the module
    loaded from the image the given function (a {!Lxfi.Loader.linker})
    hands out for it, and its [module_init] run.  [flow_of]: a program
    whose flow graph is registered as the module's policy first.
    Exported for the test that {!canary_addr} is where [boot] puts the
    canary. *)

type clean_sig = {
  s_outcomes : (string * outcome) list;  (** labelled drive outcomes *)
  s_arena : string;  (** final arena bytes, hex *)
  s_kbuf : string;  (** final kernel-buffer bytes, hex *)
}

val clean_sig_under : Lxfi.Config.t -> Gen.case -> (clean_sig, string) result
(** The full observable behaviour of one clean case under one config:
    every drive outcome plus final memory.  Two configs are
    behaviourally equivalent on the case iff their signatures are
    equal. *)

val diff_sigs : la:string -> lb:string -> clean_sig -> clean_sig -> string option
(** First observable difference between two signatures ([la]/[lb] label
    the sides in the message); [None] = equivalent. *)

val clean_failure : Gen.case -> string option
(** All clean-side oracles on one case; [None] means every oracle
    passed.  The last oracle is a traced enforcement run, which checks
    both cycle reconciliation and that tracing is semantically
    invisible. *)

type mutant_result = {
  mr_outcome : outcome;
  mr_canary_intact : bool;
  mr_static_errors : int;  (** error-severity capflow findings *)
}

val run_mutant : Mutate.mutant -> inputs:int64 list -> (mutant_result, string) result

val mutant_verdict : Mutate.mutant -> mutant_result -> string option
(** The oracle-2/3 verdict on an already-computed result ([None] =
    passed) — lets a campaign derive stats and the verdict from one
    run. *)

val mutant_failure : Mutate.mutant -> inputs:int64 list -> string option
(** Oracle 2 + 3 on one mutant; [None] when it was detected as the
    expected class, the canary survived, and static findings agree. *)

val run_violation_repro :
  Mir.Ast.prog ->
  Mutate.drive ->
  inputs:int64 list ->
  expect:Lxfi.Violation.kind ->
  (unit, string) result
(** Corpus replay: the drive must raise exactly [expect] with the
    canary intact.  [Dupgrade] additionally runs the no-upgrade
    control; [Dflow] additionally runs the self-graph control (no
    registered policy → clean) and the reordered-back differential
    control ({!Mutate.benign_of} under the same policy → clean). *)
