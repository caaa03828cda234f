(** Minimal System-V shared-memory subsystem — the {e victim} of the
    CAN BCM exploit (§8.1).

    In Jon Oberheide's original exploit, the attacker arranges for a
    [struct shmid_kernel] slab object to sit directly after the
    undersized CAN BCM buffer; the overflow rewrites a pointer that
    [shmctl] later follows to a function pointer the kernel invokes.
    Our [shmid_kernel] is collapsed to the essential 16 bytes — a magic
    word and the operation pointer itself — allocated from the same
    16-byte slab class as the overflowed buffer, so the adjacency the
    exploit needs arises exactly as on the real SLUB allocator. *)

let layout =
  Ktypes.layout "shmid_kernel"
    [ ("magic", 8, Ktypes.Scalar); ("ipc_op", 8, Ktypes.Funcptr "ipc_ops.getinfo") ]

let layouts = [ layout ]
let define_layout types = List.iter (Ktypes.add types) layouts

let ipc_op = Ktypes.offset_of layout "ipc_op"

let magic = 0x53484d4bL (* "SHMK" *)

type t = {
  kst : Kstate.t;
  mutable segments : (int * int) list;  (** shmid -> shmid_kernel address *)
  mutable next_id : int;
  default_op : int;  (** kernel function all segments start with *)
}

let create kst =
  let default_op =
    Kstate.register_kernel_fn kst "shm_getinfo" (fun _args ->
        Kcycles.charge kst.Kstate.cycles Kcycles.Kernel 25;
        0L)
  in
  { kst; segments = []; next_id = 1; default_op }

(** [sys_shmget t] allocates a segment descriptor from the slab and
    returns its id. *)
let sys_shmget t =
  let kst = t.kst in
  Kcycles.charge kst.cycles Kcycles.Kernel 150;
  let seg = Slab.kmalloc kst.Kstate.slab layout.Ktypes.s_size in
  Kmem.write_u64 kst.Kstate.mem seg magic;
  Kmem.write_ptr kst.Kstate.mem (seg + ipc_op) t.default_op;
  let id = t.next_id in
  t.next_id <- id + 1;
  t.segments <- (id, seg) :: t.segments;
  id

let segment_addr t id = List.assoc id t.segments

(** [sys_shmctl t ~id] — the kernel follows the segment's operation
    pointer: the indirect call the CAN BCM exploit redirects. *)
let sys_shmctl t ~id =
  let kst = t.kst in
  Kcycles.charge kst.cycles Kcycles.Kernel 100;
  match List.assoc_opt id t.segments with
  | None -> -22L
  | Some seg ->
      let slot = seg + ipc_op in
      Kstate.call_ptr kst ~slot ~ftype:"ipc_ops.getinfo" [ Int64.of_int seg ]
