(** SLUB-style slab allocator over the simulated kernel heap.

    Faithful in the properties the paper's evaluation depends on:
    size-class rounding (an overflowed size yields an undersized
    object), sequential carving (objects of one class are adjacent —
    the CAN BCM exploit's victim placement), and LIFO reuse of freed
    slots (its grooming step). *)

type class_ = {
  obj_size : int;
  mutable cur_page : int;
  mutable next_off : int;
  free : int Stack.t;
}

type t = {
  mem : Kmem.t;
  cycles : Kcycles.t;
  classes : class_ array;
  mutable heap_cursor : int;
  live : int Inttbl.t;  (** object addr -> allocated (class) size *)
  mutable alloc_count : int;
  mutable free_count : int;
  mutable finject : Finject.t option;
      (** when armed, {!kmalloc} consults it and raises {!Out_of_memory}
          at the injected event *)
}

val size_classes : int array

exception Out_of_memory
exception Bad_free of int

val create : Kmem.t -> Kcycles.t -> t

val kmalloc : t -> int -> int
(** Allocate (zeroed); returns the object address.  The usable size is
    the size class's, which is what LXFI's kmalloc annotation grants
    WRITE for.  Raises [Invalid_argument] for sizes <= 0. *)

val usable_size : t -> int -> int
(** Actual (class) size of a live object.  Raises {!Bad_free} for
    non-live addresses. *)

val kfree : t -> int -> unit
(** Free; double/bad frees raise {!Bad_free}.  Freed class slots are
    reused LIFO. *)

val is_live : t -> int -> bool
val live_objects : t -> int
val allocations : t -> int
val frees : t -> int
