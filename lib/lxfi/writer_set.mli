(** Writer-set tracking (paper §4.1, §5) — the fast path that lets the
    kernel skip the capability check on indirect calls through memory
    no module principal could have written.

    A two-level bitmap at 64-byte-line granularity: a hash table from
    chunk index to an int bitmask of that chunk's 32 lines (2 KB).  A
    line is marked when any principal is granted a WRITE capability
    covering it.  False positives (marked but never written) cost one
    unnecessary check; false negatives cannot arise from module stores,
    because a store needs a WRITE capability and the grant marks
    first. *)

type t

val line_shift : int
(** log2 of the tracking granularity (6 = 64-byte lines); exported,
    with {!clear_range}, for the tests. *)

val create : unit -> t

val mark_range : t -> base:int -> size:int -> unit
(** Mark every line intersecting [base, base+size); no-op for
    [size <= 0].  One table probe per chunk the range touches. *)

val maybe_written : t -> int -> bool
(** Could any module principal have written the word at this address?
    [false] means the indirect-call check may be skipped.  One table
    probe and a bit test. *)

val clear_range : t -> base:int -> size:int -> unit
(** Unmark every line intersecting [base, base+size); no-op for
    [size <= 0].  One table probe per chunk the range touches.

    Nothing in the simulator calls this today.  [Slab.kmalloc] zeroes a
    recycled object and leaves its lines marked: a safe false positive
    that costs a later indirect call through the object one unneeded
    check.  Clearing there would elide those checks and so change the
    Figure 13 counters. *)

val marked_lines : t -> int
(** Exact number of marked lines (a popcount over the chunks). *)

val lines_in : t -> base:int -> size:int -> int list
(** The marked line indices intersecting [base, base+size), ascending
    and unique; [[]] for [size <= 0].  Visits only the chunks the range
    touches. *)
