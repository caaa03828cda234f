(** Socket layer: protocol-family registry and the syscall surface the
    attack programs and workloads use.  Protocol modules register a
    [net_proto_family] and a [proto_ops] table living in module memory;
    the kernel invokes create/sendmsg/recvmsg/ioctl/bind/release
    through those slots — the RDS and Econet exploits end at exactly
    such an invocation of a corrupted [proto_ops.ioctl]. *)

val ops_layout : Ktypes.strct
val npf_layout : Ktypes.strct
val socket_layout : Ktypes.strct

val layouts : Ktypes.strct list
(** Every layout of this subsystem, in registration order. *)

val define_layout : Ktypes.t -> unit
(** Add {!layouts} to a booted system's registry. *)

val af_rds : int
val af_can : int
val af_econet : int

type t = {
  kst : Kstate.t;
  families : (int, int) Hashtbl.t;
  fds : (int, int) Hashtbl.t;
  mutable next_fd : int;
}

val create : Kstate.t -> t

val sock_register : t -> int -> int64
(** Register a [net_proto_family] (module export surface); -EEXIST on
    duplicates. *)

val sock_unregister : t -> int -> unit
val sock_of_fd : t -> int -> int

val sys_socket : t -> family:int -> typ:int -> int
(** Allocate the socket object and call the module's create through the
    registered slot.  Returns the fd or a negative errno. *)

val sys_sendmsg : t -> fd:int -> buf:int -> len:int -> flags:int -> int64

val sys_sendpage : t -> fd:int -> buf:int -> len:int -> flags:int -> int64
(** The sendfile path: raises the address limit to KERNEL_DS around the
    module's sendmsg and — crucially for CVE-2010-4258 — does not
    restore it if the module oopses inside. *)

val sys_recvmsg : t -> fd:int -> buf:int -> len:int -> flags:int -> int64
val sys_ioctl : t -> fd:int -> cmd:int -> arg:int -> int64
val sys_bind : t -> fd:int -> addr:int -> alen:int -> int64
val sys_close : t -> fd:int -> int64
