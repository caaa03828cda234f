(** Attack-mutation engine: derive labelled malicious variants from a
    clean generated module — one mutation class per guard family in
    lib/lxfi, each carrying the violation class its guard must raise
    (the oracle of {!Harness.run_mutant}). *)

type mclass =
  | Store_oob  (** store outside owned memory → store guard *)
  | Forged_indcall  (** indirect call to a forged target → indcall guard *)
  | Use_after_transfer  (** store after kfree's pre(transfer) → revocation *)
  | Unowned_arg  (** unowned pointer into a check(ref) wrapper → pre check *)
  | Over_grant  (** store just past an annotation's WRITE grant → grant bound *)
  | Principal_confusion  (** alias a principal never owned → privileged call *)
  | Slot_corruption  (** garbage into the kernel fp slot → writer-set/CALL *)
  | Slot_type_confusion  (** wrong-typed own function into the slot → hash *)
  | Runaway_entry  (** unbounded loop → watchdog *)
  | Uncovered_param_store  (** store no clause covers → capflow + store guard *)
  | Stale_cap_after_upgrade
      (** store through a pointer whose WRITE grant the hot upgrade's
          restore filter dropped → grant shrinking + store guard *)
  | Flow_reorder
      (** kernel-API calls reordered against the audited order, every
          per-call contract kept → syscall-flow automaton *)

val all : mclass list
val name : mclass -> string

val expected_kind : mclass -> Lxfi.Violation.kind
(** The violation class the guard family must report. *)

val guard_family : mclass -> string
(** The lib/lxfi guard family the class targets (DESIGN.md table). *)

val statically_visible : mclass -> bool
(** Whether the static capability-flow checker is required to flag the
    mutant with an error-severity finding (the checker-soundness half
    of oracle 3). *)

type arg = Acanary  (** the kernel canary object's address *)
         | Akbuf  (** the kernel buffer passed to [touch] *)
         | Ainput  (** the case's first input value *)

type drive =
  | Dinvoke of string * arg list  (** invoke one module entry *)
  | Dcorrupt_kcall of string * arg list
      (** invoke the entry (which corrupts [kslot]), then have the
          kernel indirect-call through [kslot] *)
  | Dupgrade of (string * arg list) * (string * arg list)
      (** invoke the first entry, hot-upgrade the module to
          {!downgrade_of} its program, then invoke the second entry on
          the swapped-in instance *)
  | Dflow of string * arg list
      (** register the flow graph extracted from {!benign_of} the
          program before loading it, then invoke the entry — the SFIP
          threat model: an audited benign graph held against a
          tampered binary *)

type mutant = { m_class : mclass; m_prog : Mir.Ast.prog; m_drive : drive }

val benign_of : Mir.Ast.prog -> Mir.Ast.prog
(** The audited counterpart of a {!Flow_reorder} mutant: identical
    except that [flow_evil]'s kernel-API calls run in the benign order
    (free before lock).  The graph extracted from this program is the
    policy the {!Dflow} drive registers; the program itself is the
    reordered-back differential control — it must run clean under that
    same policy. *)

val downgrade_of : Mir.Ast.prog -> Mir.Ast.prog
(** The program the {!Dupgrade} drive swaps in: identical except that
    [touch] loses its [fuzz.touch] export, shrinking the version's
    write surface so the upgrade's restore filter must drop every
    restored dynamic WRITE capability. *)

val apply : canary_addr:int -> mclass -> Mir.Ast.prog -> mutant
(** Derive the labelled malicious variant.  [canary_addr] is the
    address of the kernel object the attack targets (deterministic:
    the harness allocates it first thing after boot). *)

val select : rand:Gen.rand -> count:int -> mclass list
(** [count] classes starting from a random rotation of {!all} — every
    class still appears with equal frequency across a campaign when
    [count < List.length all]. *)
