(** Bounded ring-buffer event tracing for the simulated kernel.

    Hook points across the simulation emit typed events stamped with
    the simulated cycle clock and the current principal.  Off by
    default; every hook site costs a single [!on] check when disabled.
    When on, hook sites pass values they already hold and format no
    text; {!pp_event} and {!Trace_profile} render it on read. *)

type guard =
  | Gentry
  | Gexit
  | Gwrite
  | Gindcall
  | Gkindcall_checked
  | Gkindcall_elided

val guard_count : int
val guard_index : guard -> int

type span = K2m  (** kernel→module entry point *) | M2k  (** module→kernel export *)

(** The capability types of §3.2; [Lxfi.Capability.t] is this type. *)
type cap =
  | Cwrite of { base : int; size : int }
  | Cref of { rtype : string; addr : int }
  | Ccall of { target : int }

val pp_cap : Format.formatter -> cap -> unit
(** [WRITE(0x..,+n)], [REF(type,0x..)] or [CALL(0x..)]: the one
    capability printer. *)

type cap_op = Grant | Revoke | Dropped

type kind =
  | Guard of guard
  | Cap of cap_op * cap * string  (** op, capability, annotation context *)
  | Switch of string
  | Span_begin of span * string
  | Span_end of span * string
  | Violation of string * string  (** kind name, module *)
  | Quarantine of string * string  (** principal, reason *)
  | Escalation of string * string  (** module, reason *)
  | Slab_alloc of int * int  (** address, size *)
  | Slab_free of int
  | Fault_injected of string
  | Mod_call of string  (** intra-module function activation *)

type event = {
  ev_kernel : int;
  ev_module : int;
  ev_guard : int;
  ev_principal : string;
  ev_kind : kind;
}

val ev_total : event -> int
(** Total cycle stamp (sum of the three categories). *)

(** The simulated cycle counters, one per category.  [Kernel_sim.Kcycles.t]
    re-exports this record, so the runtime's live counters are what
    {!attach} takes. *)
type cycles = { mutable kernel : int; mutable module_ : int; mutable guard : int }

type t

val default_capacity : int

val make : ?capacity:int -> unit -> t
(** A fresh ring buffer; [capacity] bounds retained events (the newest
    win).  Storage is fixed blocks of at most 256 entries, each added
    the first time the ring reaches it and never copied; a block holds
    its entries by column (kernel, module and guard stamps, principal
    labels, kinds), each column small enough for the minor heap. *)

val on : bool ref
(** The enabled flag.  Hook sites check [!Trace.on] and must construct
    nothing when it is false — the zero-cost-when-disabled rule. *)

val attach : t -> cycles:cycles -> principal:(unit -> string) -> unit
(** Make the buffer the live sink and set [on].  Each event is stamped
    with the fields of [cycles] as they read when it is emitted, so
    pass the live counter record, not a copy. *)

val detach : unit -> unit
(** Clear [on] and the providers; the buffer keeps its events. *)

val attached : unit -> t option
(** The live sink, if a buffer is attached — lets observers (e.g. the
    quarantine repair path) read back the event window around a fault
    without threading the buffer through every layer. *)

val emit : kind -> unit
(** Append an event stamped with the current counters and principal.
    It allocates only when the ring reaches a block for the first time.
    Call only behind an [!on] check. *)

val total : t -> int
(** Events ever emitted (including overwritten ones). *)

val dropped : t -> int
(** Events lost to ring wraparound. *)

val capacity : t -> int
val clear : t -> unit

val events : t -> event array
(** Retained events, oldest first, built as records on read. *)

val fold :
  t ->
  'a ->
  ('a -> kernel:int -> module_:int -> guard:int -> principal:string -> kind -> 'a) ->
  'a
(** [fold t init f] runs [f] over the retained events, oldest first,
    passing each event's fields as they sit in the block columns: it
    builds no {!event} record. *)

val since_last : t -> (event -> bool) -> event array
(** [since_last t p] is the suffix of {!events} that starts at the
    newest event satisfying [p], or all of {!events} when none does.
    It scans back from the newest event and copies only the suffix, so
    its cost follows the window, not the ring. *)

val pp_event : Format.formatter -> event -> unit
