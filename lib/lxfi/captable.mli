(** Per-principal capability tables (paper §5, "Capability table").

    One table per capability type (WRITE / CALL / REF).  WRITE
    capabilities are address ranges; following the paper, each range is
    inserted into every hash slot it covers after masking the low 12
    address bits, so the hot covering-range query costs one bucket
    lookup.  Ranges covering many pages (in practice only the blanket
    user-space window) are kept on a short linear list instead. *)

type t
(** One principal's WRITE, CALL and REF capabilities. *)

val big_range_pages : int
(** Ranges covering at least this many pages go on the linear list
    (exported so the property test can generate such ranges). *)

val create : unit -> t

(** {1 WRITE capabilities} *)

val add_write : t -> base:int -> size:int -> unit
(** Insert a WRITE capability for [base, base+size); idempotent for an
    identical range.  Raises [Invalid_argument] when [size <= 0]. *)

val has_write : t -> addr:int -> size:int -> bool
(** Is [addr, addr+size) covered by a single WRITE capability?
    Consults a one-entry "last covering range" cache before the bucket
    scan; semantically identical to {!has_write_uncached}. *)

val has_write_uncached : t -> addr:int -> size:int -> bool
(** The cache-free covering-range query — reference semantics for the
    cached fast path (exercised differentially by the property suite). *)

val remove_write_intersecting : t -> base:int -> size:int -> int
(** Remove every WRITE entry overlapping [base, base+size) — transfer
    semantics (§3.3).  A blanket ("big") range is only removed when the
    revocation range contains it entirely.  Returns the number of
    distinct entries removed.  A table with nothing to remove is only
    probed, and keeps its cached covering range unless that range
    intersects [base, base+size). *)

val fold_writes : t -> ('a -> base:int -> size:int -> 'a) -> 'a -> 'a
(** Fold over distinct WRITE entries (each range visited once). *)

val write_count : t -> int

(** {1 CALL capabilities} *)

val add_call : t -> target:int -> unit
val has_call : t -> target:int -> bool
val remove_call : t -> target:int -> unit
val call_count : t -> int
val fold_calls : t -> ('a -> target:int -> 'a) -> 'a -> 'a

(** {1 REF capabilities} *)

val add_ref : t -> rtype:string -> addr:int -> unit
val has_ref : t -> rtype:string -> addr:int -> bool
val remove_ref : t -> rtype:string -> addr:int -> unit
val ref_count : t -> int

val fold_refs : t -> ('a -> rtype:string -> addr:int -> 'a) -> 'a -> 'a
(** Fold over every REF capability (hash order; callers that need a
    stable order must sort). *)

val clear : t -> unit
(** Drop every capability of every type — the quarantine revocation
    primitive. *)
