(** Socket layer: protocol-family registry and the syscall surface that
    attack programs and workloads use ([socket]/[sendmsg]/[recvmsg]/
    [ioctl]/[bind]).

    Protocol modules (RDS, CAN, CAN-BCM, Econet in the paper's corpus)
    register a [net_proto_family] whose [create] pointer, and a
    [proto_ops] table whose operation pointers, live in {e module}
    memory.  The kernel invokes all of them indirectly — the RDS and
    Econet privilege-escalation exploits end with exactly such an
    invocation of a corrupted [proto_ops.ioctl]. *)

let ops_layout =
  Ktypes.layout "proto_ops"
    [
      ("release", 8, Ktypes.Funcptr "proto_ops.release");
      ("bind", 8, Ktypes.Funcptr "proto_ops.bind");
      ("ioctl", 8, Ktypes.Funcptr "proto_ops.ioctl");
      ("sendmsg", 8, Ktypes.Funcptr "proto_ops.sendmsg");
      ("recvmsg", 8, Ktypes.Funcptr "proto_ops.recvmsg");
    ]

let npf_layout =
  Ktypes.layout "net_proto_family"
    [ ("family", 4, Ktypes.Scalar); ("create", 8, Ktypes.Funcptr "net_proto_family.create") ]

let socket_layout =
  Ktypes.layout "socket"
    [
      ("state", 4, Ktypes.Scalar);
      ("type", 4, Ktypes.Scalar);
      ("ops", 8, Ktypes.Pointer);
      ("sk", 8, Ktypes.Pointer);
    ]

let layouts = [ ops_layout; npf_layout; socket_layout ]
let define_layout types = List.iter (Ktypes.add types) layouts

let s_type = Ktypes.offset_of socket_layout "type"
let s_ops = Ktypes.offset_of socket_layout "ops"
let npf_family = Ktypes.offset_of npf_layout "family"
let npf_create = Ktypes.offset_of npf_layout "create"

(* A proto_ops operation: its slot offset and its slot-type name. *)
let proto_op name = (Ktypes.offset_of ops_layout name, "proto_ops." ^ name)
let op_release = proto_op "release"
let op_bind = proto_op "bind"
let op_ioctl = proto_op "ioctl"
let op_sendmsg = proto_op "sendmsg"
let op_recvmsg = proto_op "recvmsg"

(* Address families used by the module corpus. *)
let af_rds = 21
let af_can = 29
let af_econet = 19

type t = {
  kst : Kstate.t;
  families : (int, int) Hashtbl.t;  (** family -> net_proto_family addr *)
  fds : (int, int) Hashtbl.t;  (** fd -> socket addr *)
  mutable next_fd : int;
}

let create kst = { kst; families = Hashtbl.create 8; fds = Hashtbl.create 16; next_fd = 3 }

(** [sock_register t npf] — exported to protocol modules. *)
let sock_register t npf =
  let fam = Kmem.read_u32 t.kst.mem (npf + npf_family) in
  if Hashtbl.mem t.families fam then -17L (* -EEXIST *)
  else begin
    Hashtbl.replace t.families fam npf;
    0L
  end

let sock_unregister t family = Hashtbl.remove t.families family

let sock_of_fd t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some s -> s
  | None -> raise (Kstate.Oops (Printf.sprintf "bad fd %d" fd))

(** [sys_socket t ~family ~typ] — allocates the socket object and calls
    the module's [create] through the registered npf slot. Returns the
    new fd, or a negative errno. *)
let sys_socket t ~family ~typ =
  let kst = t.kst in
  Kcycles.charge kst.cycles Kcycles.Kernel 120;
  match Hashtbl.find_opt t.families family with
  | None -> -97 (* -EAFNOSUPPORT *)
  | Some npf ->
      let sock = Slab.kmalloc kst.slab socket_layout.Ktypes.s_size in
      Kmem.write_u32 kst.mem (sock + s_type) typ;
      let slot = npf + npf_create in
      let ret =
        Kstate.call_ptr kst ~slot ~ftype:"net_proto_family.create"
          [ Int64.of_int sock; Int64.of_int typ ]
      in
      if ret <> 0L then Int64.to_int ret
      else begin
        let fd = t.next_fd in
        t.next_fd <- fd + 1;
        Hashtbl.replace t.fds fd sock;
        fd
      end

let op_call t ~fd (off, ftype) args =
  let kst = t.kst in
  Kcycles.charge kst.cycles Kcycles.Kernel 90 (* fd lookup, sockfd_lookup, copy msghdr *);
  let sock = sock_of_fd t fd in
  let ops = Kmem.read_ptr kst.mem (sock + s_ops) in
  if ops = 0 then raise (Kstate.Oops "socket without ops");
  Kstate.call_ptr kst ~slot:(ops + off) ~ftype (Int64.of_int sock :: args)

(** [sys_sendmsg t ~fd ~buf ~len ~flags] — user buffer address and
    length travel to the module's sendmsg. *)
let sys_sendmsg t ~fd ~buf ~len ~flags =
  op_call t ~fd op_sendmsg [ Int64.of_int buf; Int64.of_int len; Int64.of_int flags ]

(** [sys_sendpage t ~fd ...] — the sendfile/sendpage path: the kernel
    temporarily raises the address limit to KERNEL_DS around the
    protocol's sendmsg (as [sock_no_sendpage]-era kernels did).  If the
    module oopses inside, the limit is {e not} restored — the context
    CVE-2010-4258 needs. *)
let sys_sendpage t ~fd ~buf ~len ~flags =
  Kstate.set_fs t.kst Task.kernel_ds;
  let r =
    op_call t ~fd op_sendmsg [ Int64.of_int buf; Int64.of_int len; Int64.of_int flags ]
  in
  Kstate.set_fs t.kst Task.user_ds;
  r

let sys_recvmsg t ~fd ~buf ~len ~flags =
  op_call t ~fd op_recvmsg [ Int64.of_int buf; Int64.of_int len; Int64.of_int flags ]

let sys_ioctl t ~fd ~cmd ~arg =
  op_call t ~fd op_ioctl [ Int64.of_int cmd; Int64.of_int arg ]

let sys_bind t ~fd ~addr ~alen =
  op_call t ~fd op_bind [ Int64.of_int addr; Int64.of_int alen ]

let sys_close t ~fd =
  (match Hashtbl.find_opt t.fds fd with
  | Some _ ->
      let r = op_call t ~fd op_release [] in
      ignore r;
      Hashtbl.remove t.fds fd
  | None -> ());
  0L
