(** Simulated [struct task_struct] and credentials — memory-resident,
    so the uid field is a concrete target for confused-deputy writes
    (§1) and arbitrary-write exploits, and "privilege escalation" is
    the observable fact [uid = 0]. *)

type t = { addr : int; pid : int }

val user_ds : int
(** Normal address limit: uaccess only reaches user memory. *)

val kernel_ds : int
(** Raised address limit (set_fs(KERNEL_DS)): uaccess reaches kernel
    memory — the context CVE-2010-4258 abuses. *)

val layouts : Ktypes.strct list
(** Every layout of this subsystem, in registration order. *)

val define_layout : Ktypes.t -> unit
(** Add {!layouts} to a booted system's registry (called at kernel
    boot). *)

val field_addr : t -> string -> int
(** Address of a named field — e.g. [field_addr t "uid"] is what an
    exploit aims its arbitrary write at. *)

val create : Kmem.t -> Slab.t -> pid:int -> uid:int -> comm:string -> t
val uid : Kmem.t -> t -> int
val set_uid : Kmem.t -> t -> int -> unit
val addr_limit : Kmem.t -> t -> int
val set_addr_limit : Kmem.t -> t -> int -> unit
val clear_child_tid : Kmem.t -> t -> int
val set_clear_child_tid : Kmem.t -> t -> int -> unit
val comm : Kmem.t -> t -> string
val is_root : Kmem.t -> t -> bool
