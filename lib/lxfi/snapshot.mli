(** Deterministic, serializable snapshots of a module's security state:
    per-principal capability tables, quarantine status, writer-set
    lines over module-owned memory, shadow-stack depth, module global
    bytes, and guard counters.

    {!render} is byte-stable (all hash-table folds are sorted), so
    [capture -> restore -> capture] round-trips byte-identically —
    the property [test_snapshot.ml] checks over fuzzer-generated
    modules.  Capture and restore are pure table operations: no
    cycles charged, no counters bumped, no trace events. *)

type pstate = {
  ps_kind : Principal.kind;
  ps_name : int;  (** primary name pointer; 0 for shared/global *)
  ps_desc : string;  (** [Principal.describe] — the stable sort key *)
  ps_quarantined : string option;
  ps_flow : string option;  (** flow-automaton position at capture *)
  ps_writes : (int * int) list;  (** sorted (base, size) *)
  ps_calls : int list;  (** sorted targets *)
  ps_refs : (string * int) list;  (** sorted (rtype, addr) *)
}

type gstate = {
  gs_name : string;
  gs_size : int;
  gs_bytes : string;
  gs_funcptr : bool;
      (** initialisers contain function pointers; never restored across
          an upgrade (would resurrect retired addresses) *)
}

type t = {
  sn_module : string;
  sn_dead : string option;
  sn_depth : int;
  sn_principals : pstate list;  (** sorted by (kind, name, desc) *)
  sn_globals : gstate list;  (** sorted by name *)
  sn_wset : int list;  (** sorted writer-set lines over module memory *)
  sn_stats : Stats.t;
}

val owned_ranges : Runtime.module_info -> (int * int) list
(** Module-owned memory as [(base, len)] ranges: the module stack, then
    each data section.  {!capture} records the writer-set lines over
    these ranges; [Loader.upgrade] drops restored WRITE capabilities
    that overlap them. *)

val capture : Runtime.t -> Runtime.module_info -> t
(** Capture the module's full security state.  Deterministic: repeated
    capture of unchanged state renders byte-identically. *)

val restore : Runtime.t -> Runtime.module_info -> t -> unit
(** Exact restore: each snapshotted principal's capability table is
    cleared and re-populated, quarantine flags are reinstated, and
    non-function-pointer global bytes are written back.  Instance
    principals are materialised on demand.  Principals of [mi] not in
    the snapshot are left untouched.  Exported for the round-trip
    tests; the loader and repair restore through a filter. *)

type filter = {
  keep_write : base:int -> size:int -> bool;
  keep_call : target:int -> bool;
  keep_ref : rtype:string -> addr:int -> bool;
  keep_instances : bool;
      (** restore instance principals at all (entry-interface
          preservation, see [Loader.upgrade]) *)
}

type restore_report = { rr_restored : int; rr_dropped : int }

val restore_filtered : Runtime.t -> Runtime.module_info -> t -> filter -> restore_report
(** Additive restore through a compatibility filter: surviving
    capabilities are re-added on top of whatever [mi] already holds
    (a fresh load's baseline grants); nothing is cleared.  Capabilities
    of quarantined principals are always dropped.  Returns how many
    capabilities were restored vs dropped — the grant-shrinking
    oracle's raw material. *)

val render : t -> string
(** Byte-stable text rendering (one line per fact, sorted).  This,
    {!diff} and {!equal} are exported for the tests that compare
    snapshots. *)

val diff : t -> t -> string list
(** Line-level differences between the renderings; [diff a b = []] iff
    [render a = render b].  Removed lines are prefixed ["- "], added
    lines ["+ "]. *)

val equal : t -> t -> bool
