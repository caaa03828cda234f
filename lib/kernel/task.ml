(** Simulated [struct task_struct] and credentials.

    Tasks are memory-resident structures: the uid field at a fixed offset
    is precisely the kind of kernel data a confused-deputy write (the
    [spin_lock_init] example of paper §1) or an arbitrary-write exploit
    targets.  Privilege escalation in this simulation {e is} the
    observable fact [uid current = 0]. *)

type t = { addr : int; pid : int }

(** Address-limit values, mirroring [USER_DS]/[KERNEL_DS]. *)
let user_ds = 0

let kernel_ds = 1

let layout =
  Ktypes.layout "task_struct"
    [
      ("pid", 4, Ktypes.Scalar);
      ("uid", 4, Ktypes.Scalar);
      ("euid", 4, Ktypes.Scalar);
      ("suid", 4, Ktypes.Scalar);
      ("fsuid", 4, Ktypes.Scalar);
      ("addr_limit", 8, Ktypes.Scalar);
      ("clear_child_tid", 8, Ktypes.Pointer);
      ("comm", 16, Ktypes.Scalar);
    ]

let layouts = [ layout ]
let define_layout types = List.iter (Ktypes.add types) layouts

let off_pid = Ktypes.offset_of layout "pid"
let off_uid = Ktypes.offset_of layout "uid"
let off_euid = Ktypes.offset_of layout "euid"
let off_suid = Ktypes.offset_of layout "suid"
let off_fsuid = Ktypes.offset_of layout "fsuid"
let off_addr_limit = Ktypes.offset_of layout "addr_limit"
let off_clear_child_tid = Ktypes.offset_of layout "clear_child_tid"
let off_comm = Ktypes.offset_of layout "comm"

let field_addr t fname = t.addr + Ktypes.offset_of layout fname

let create mem slab ~pid ~uid ~comm =
  let addr = Slab.kmalloc slab layout.Ktypes.s_size in
  let t = { addr; pid } in
  Kmem.write_u32 mem (addr + off_pid) pid;
  Kmem.write_u32 mem (addr + off_uid) uid;
  Kmem.write_u32 mem (addr + off_euid) uid;
  Kmem.write_u32 mem (addr + off_suid) uid;
  Kmem.write_u32 mem (addr + off_fsuid) uid;
  Kmem.write_u64 mem (addr + off_addr_limit) (Int64.of_int user_ds);
  Kmem.write_bytes mem ~addr:(addr + off_comm)
    (let c = if String.length comm > 15 then String.sub comm 0 15 else comm in
     c ^ "\000");
  t

let uid mem t = Kmem.read_u32 mem (t.addr + off_uid)
let euid mem t = Kmem.read_u32 mem (t.addr + off_euid)

let set_uid mem t v =
  Kmem.write_u32 mem (t.addr + off_uid) v;
  Kmem.write_u32 mem (t.addr + off_euid) v

let addr_limit mem t = Int64.to_int (Kmem.read_u64 mem (t.addr + off_addr_limit))

let set_addr_limit mem t v =
  Kmem.write_u64 mem (t.addr + off_addr_limit) (Int64.of_int v)

let clear_child_tid mem t = Kmem.read_ptr mem (t.addr + off_clear_child_tid)
let set_clear_child_tid mem t p = Kmem.write_ptr mem (t.addr + off_clear_child_tid) p

let comm mem t =
  let b = Kmem.read_bytes mem ~addr:(t.addr + off_comm) ~len:16 in
  match String.index_opt (Bytes.to_string b) '\000' with
  | Some i -> String.sub (Bytes.to_string b) 0 i
  | None -> Bytes.to_string b

let is_root mem t = uid mem t = 0
