(** Minimal SysV shared memory — the CAN BCM exploit's victim (§8.1):
    [shmid_kernel] descriptors are 16-byte slab objects holding a
    function pointer that [shmctl] follows, and they land adjacent to
    the module's overflowed buffer in the 16-byte class. *)

val layout : Ktypes.strct
(** [struct shmid_kernel], laid out once per process. *)

val layouts : Ktypes.strct list
(** Every layout of this subsystem, in registration order. *)

val define_layout : Ktypes.t -> unit
(** Add {!layouts} to a booted system's registry. *)

val magic : int64

type t = {
  kst : Kstate.t;
  mutable segments : (int * int) list;
  mutable next_id : int;
  default_op : int;
}

val create : Kstate.t -> t

val sys_shmget : t -> int
(** Allocate a segment descriptor; returns its id. *)

val segment_addr : t -> int -> int

val sys_shmctl : t -> id:int -> int64
(** Follow the segment's operation pointer — the indirect call the
    exploit redirects. *)
