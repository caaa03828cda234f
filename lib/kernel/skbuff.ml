(** Simulated [struct sk_buff] — the network packet structure.

    An sk_buff is the paper's running example of {e data structure
    integrity} (§2.2): it is a struct with an interior pointer to a
    separately-allocated payload, and the capability set it stands for is
    expressed with a programmer-supplied capability iterator
    ([skb_caps], Figure 4) covering both the struct and
    [skb->data .. skb->data+skb->len). *)

let layout =
  Ktypes.layout "sk_buff"
    [
      ("next", 8, Ktypes.Pointer);
      ("dev", 8, Ktypes.Pointer);
      ("head", 8, Ktypes.Pointer);
      ("data", 8, Ktypes.Pointer);
      ("len", 4, Ktypes.Scalar);
      ("truesize", 4, Ktypes.Scalar);
      ("protocol", 4, Ktypes.Scalar);
      ("priority", 4, Ktypes.Scalar);
    ]

let layouts = [ layout ]
let define_layout types = List.iter (Ktypes.add types) layouts

let size = layout.Ktypes.s_size
let off_dev = Ktypes.offset_of layout "dev"
let off_head = Ktypes.offset_of layout "head"
let off_data = Ktypes.offset_of layout "data"
let off_len = Ktypes.offset_of layout "len"
let off_truesize = Ktypes.offset_of layout "truesize"

let init (kst : Kstate.t) skb ~buf ~len =
  Kmem.write_ptr kst.mem (skb + off_head) buf;
  Kmem.write_ptr kst.mem (skb + off_data) buf;
  Kmem.write_u32 kst.mem (skb + off_len) len

(** [build kst ~buf ~len] wraps an existing [len]-byte buffer in a
    fresh sk_buff and returns the struct address. *)
let build (kst : Kstate.t) ~buf ~len =
  let skb = Slab.kmalloc kst.slab size in
  init kst skb ~buf ~len;
  skb

(** [alloc kst len] allocates an sk_buff with a [len]-byte payload buffer
    and returns the struct address. *)
let alloc (kst : Kstate.t) len =
  Kcycles.charge kst.cycles Kcycles.Kernel 35;
  let skb = Slab.kmalloc kst.slab size in
  let buf = Slab.kmalloc kst.slab (max len 1) in
  init kst skb ~buf ~len;
  Kmem.write_u32 kst.mem (skb + off_truesize) (Slab.usable_size kst.slab buf);
  skb

let data (kst : Kstate.t) skb = Kmem.read_ptr kst.mem (skb + off_data)
let len (kst : Kstate.t) skb = Kmem.read_u32 kst.mem (skb + off_len)
let set_len (kst : Kstate.t) skb v = Kmem.write_u32 kst.mem (skb + off_len) v
let dev (kst : Kstate.t) skb = Kmem.read_ptr kst.mem (skb + off_dev)
let set_dev (kst : Kstate.t) skb d = Kmem.write_ptr kst.mem (skb + off_dev) d

let free (kst : Kstate.t) skb =
  Kcycles.charge kst.cycles Kcycles.Kernel 22;
  let head = Kmem.read_ptr kst.mem (skb + off_head) in
  if head <> 0 && Slab.is_live kst.slab head then Slab.kfree kst.slab head;
  Slab.kfree kst.slab skb
