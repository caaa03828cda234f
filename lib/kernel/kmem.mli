(** Simulated 64-bit kernel address space: a sparse byte store with no
    protection of its own — as on real x86-64, the kernel is one
    privilege domain and all isolation is LXFI's.  It models 4 KiB
    pages ({!page_size}) but stores their bytes in 512-byte frames,
    small enough to be allocated in the minor heap.  Frames are
    demand-zero: nothing maps memory ahead of use, and the first read
    or write of a frame materialises it zero-filled. *)

val page_size : int
(** The modelled page size (4 KiB): slab pages and module sections are
    rounded to it. *)

(** Address-space layout, mirroring Linux closely enough for the
    paper's exploits: a user range the attacker controls, kernel text,
    kernel heap (slab pages), kernel stacks, and the module area. *)
module Layout : sig
  val null_guard_top : int
  val user_base : int
  val user_top : int
  val kernel_text_base : int
  val kernel_heap_base : int
  val kernel_stack_base : int
  val module_base : int
  val is_user : int -> bool
  val is_kernel : int -> bool
  val is_module_area : int -> bool
end

exception Fault of { addr : int; write : bool }
(** Access to the NULL guard page; caught at the syscall boundary where
    the oops path runs. *)

type t

val create : unit -> t

val fold_frames : t -> (int -> Bytes.t -> 'a -> 'a) -> 'a -> 'a
(** [fold_frames t f acc] folds [f base bytes] over every materialised
    frame, in no particular order; [base] is the frame's first address.
    Exported for [test_engine.ml], which compares two runs' memory. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

val read : t -> addr:int -> size:int -> int64
(** Little-endian load of [size] bytes (1..8). *)

val write : t -> addr:int -> size:int -> int64 -> unit
(** Little-endian store of the low [size] bytes (1..8). *)

val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit

val read_ptr : t -> int -> int
(** Pointer-sized (8-byte) load, returned as an address. *)

val write_ptr : t -> int -> int -> unit

val read_bytes : t -> addr:int -> len:int -> Bytes.t
val write_bytes : t -> addr:int -> string -> unit
val zero : t -> addr:int -> len:int -> unit

val blit : t -> src:int -> dst:int -> len:int -> unit
(** Copy within the address space (memcpy / uaccess paths). *)
