(** Hash tables keyed by [int]: page slots, frames, chunks and addresses.

    The polymorphic [Hashtbl] hashes and compares every key through a C
    call, and a [Hashtbl.Make] instance, without flambda, reaches its
    hash and its key comparison through closure calls on every
    operation.  This table is written for [int] keys, so both are
    inline: the hash multiplies the key and folds the high half of the
    product into the low bits, which are the ones that pick a bucket.
    Page indexes of the user, text, heap, stack and module regions
    ({!Kmem.Layout}) differ only at bit 20 and above, so with the
    identity hash page [k] of every region would share one bucket of any
    table smaller than 2^20 buckets.

    Buckets, growth and rehashing follow [Hashtbl.Make] exactly, so a
    table built by the same operations folds in the same order as a
    [Hashtbl.Make] instance with this hash.  That order is deterministic
    (no seed) but unrelated to key order: callers that print must
    sort. *)

type 'a t

val create : int -> 'a t
(** [create n]: an empty table of at least [n] buckets (16 at least). *)

val reset : 'a t -> unit
(** Empty the table and shrink it back to its initial bucket count. *)

val length : 'a t -> int
(** Number of bindings. *)

val add : 'a t -> int -> 'a -> unit
(** Add a binding, hiding (not removing) any binding of the key. *)

val replace : 'a t -> int -> 'a -> unit
(** Overwrite the key's most recent binding, or add one. *)

val remove : 'a t -> int -> unit
(** Remove the key's most recent binding, if any. *)

val find : 'a t -> int -> 'a
(** The key's most recent binding; raises [Not_found]. *)

val find_opt : 'a t -> int -> 'a option

val find_or : 'a t -> int -> default:'a -> 'a
(** [find_or t k ~default] is [k]'s most recent binding, or [default]:
    a hit or a miss without allocating an option. *)

val mem : 'a t -> int -> bool

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold over every binding, bucket by bucket, in the order
    [Hashtbl.Make]'s [fold] would visit them.  The table may be changed
    by [f]; as with [Hashtbl], which of those changes the fold sees is
    unspecified. *)
