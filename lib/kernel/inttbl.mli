(** Hash tables keyed by [int]: page indexes and addresses.

    The polymorphic [Hashtbl] hashes and compares every key through a C
    call; this instance does both in a few instructions of OCaml.  The
    hash multiplies the key and folds the high half of the product into
    the low bits, which are the ones that pick a bucket.  Page indexes
    of the user, text, heap, stack and module regions ({!Kmem.Layout})
    differ only at bit 20 and above, so with the identity hash page [k]
    of every region would share one bucket of any table smaller than
    2^20 buckets.  Iteration order is deterministic (no seed) but
    unrelated to key order: callers that print must sort. *)

include Hashtbl.S with type key = int
