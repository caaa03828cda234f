(** Network-device core: [struct net_device], device ops, qdisc-lite
    transmit path, NAPI receive path.

    This is the Figure 1 interface of the paper: modules allocate a
    [net_device], point [dev->dev_ops] at their own ops table (in module
    memory!), and the core kernel later invokes [ndo_start_xmit] and the
    NAPI [poll] callback through those module-written pointers — the
    exact indirect-call sites the LXFI kernel rewriter must guard. *)

let qdisc_layout =
  Ktypes.layout "qdisc"
    [
      ("enqueue", 8, Ktypes.Funcptr "qdisc_ops.enqueue");
      ("dequeue", 8, Ktypes.Funcptr "qdisc_ops.dequeue");
      ("skb", 8, Ktypes.Pointer);
      ("qlen", 4, Ktypes.Scalar);
    ]

let ops_layout =
  Ktypes.layout "net_device_ops"
    [
      ("ndo_open", 8, Ktypes.Funcptr "net_device_ops.ndo_open");
      ("ndo_stop", 8, Ktypes.Funcptr "net_device_ops.ndo_stop");
      ("ndo_start_xmit", 8, Ktypes.Funcptr "net_device_ops.ndo_start_xmit");
      ("ndo_set_rx_mode", 8, Ktypes.Funcptr "net_device_ops.ndo_set_rx_mode");
    ]

let dev_layout =
  Ktypes.layout "net_device"
    [
      ("dev_ops", 8, Ktypes.Pointer);
      ("qdisc", 8, Ktypes.Pointer);
      ("priv", 8, Ktypes.Pointer);
      ("mtu", 4, Ktypes.Scalar);
      ("flags", 4, Ktypes.Scalar);
      ("tx_packets", 8, Ktypes.Scalar);
      ("tx_bytes", 8, Ktypes.Scalar);
      ("rx_packets", 8, Ktypes.Scalar);
      ("rx_bytes", 8, Ktypes.Scalar);
      ("name", 16, Ktypes.Scalar);
    ]

let napi_layout =
  Ktypes.layout "napi_struct"
    [
      ("dev", 8, Ktypes.Pointer);
      ("poll", 8, Ktypes.Funcptr "napi.poll");
      ("weight", 4, Ktypes.Scalar);
      ("scheduled", 4, Ktypes.Scalar);
    ]

let layouts = [ qdisc_layout; ops_layout; dev_layout; napi_layout ]
let define_layout types = List.iter (Ktypes.add types) layouts

let q_enqueue = Ktypes.offset_of qdisc_layout "enqueue"
let q_dequeue = Ktypes.offset_of qdisc_layout "dequeue"
let q_skb = Ktypes.offset_of qdisc_layout "skb"
let q_qlen = Ktypes.offset_of qdisc_layout "qlen"
let ops_start_xmit = Ktypes.offset_of ops_layout "ndo_start_xmit"
let d_dev_ops = Ktypes.offset_of dev_layout "dev_ops"
let d_qdisc = Ktypes.offset_of dev_layout "qdisc"
let d_mtu = Ktypes.offset_of dev_layout "mtu"
let d_tx_packets = Ktypes.offset_of dev_layout "tx_packets"
let d_tx_bytes = Ktypes.offset_of dev_layout "tx_bytes"
let d_rx_packets = Ktypes.offset_of dev_layout "rx_packets"
let d_rx_bytes = Ktypes.offset_of dev_layout "rx_bytes"
let d_name = Ktypes.offset_of dev_layout "name"
let n_dev = Ktypes.offset_of napi_layout "dev"
let n_poll = Ktypes.offset_of napi_layout "poll"
let n_weight = Ktypes.offset_of napi_layout "weight"
let n_scheduled = Ktypes.offset_of napi_layout "scheduled"

(* netdev_tx_t values *)
let netdev_tx_ok = 0L

type t = {
  kst : Kstate.t;
  mutable devices : int list;  (** registered net_device addresses *)
  mutable napis : int list;  (** registered napi_struct addresses *)
  mutable rx_delivered_pkts : int;
  mutable rx_delivered_bytes : int;
  pfifo_enqueue_addr : int;  (** kernel function behind qdisc enqueue slots *)
  pfifo_dequeue_addr : int;
  ptype_slot : int;  (** kernel-memory slot holding the L3 receive handler *)
}

let create kst =
  (* The default packet scheduler: kernel functions stored in kernel
     memory as function pointers and invoked indirectly by
     [dev_queue_xmit].  These are the indirect-call sites the writer-set
     fast path elides: no module ever receives WRITE on a qdisc. *)
  let enqueue_addr =
    Kstate.register_kernel_fn kst "pfifo_fast_enqueue" (fun args ->
        match args with
        | [ qdisc; skb ] ->
            let q = Int64.to_int qdisc in
            Kcycles.charge kst.Kstate.cycles Kcycles.Kernel 18;
            Kmem.write_ptr kst.Kstate.mem (q + q_skb)
              (Int64.to_int skb);
            Kmem.write_u32 kst.Kstate.mem (q + q_qlen) 1;
            0L
        | _ -> raise (Kstate.Oops "pfifo_fast_enqueue: bad arity"))
  in
  let dequeue_addr =
    Kstate.register_kernel_fn kst "pfifo_fast_dequeue" (fun args ->
        match args with
        | [ qdisc ] ->
            let q = Int64.to_int qdisc in
            Kcycles.charge kst.Kstate.cycles Kcycles.Kernel 18;
            let skb = Kmem.read_ptr kst.Kstate.mem (q + q_skb) in
            Kmem.write_u32 kst.Kstate.mem (q + q_qlen) 0;
            Int64.of_int skb
        | _ -> raise (Kstate.Oops "pfifo_fast_dequeue: bad arity"))
  in
  (* The protocol-layer receive handler (ip_rcv analogue), also reached
     through a kernel-memory function-pointer slot. *)
  let ip_rcv_addr =
    Kstate.register_kernel_fn kst "ip_rcv" (fun _args ->
        Kcycles.charge kst.Kstate.cycles Kcycles.Kernel 60;
        0L)
  in
  let ptype_slot = Slab.kmalloc kst.Kstate.slab 8 in
  Kmem.write_ptr kst.Kstate.mem ptype_slot ip_rcv_addr;
  {
    kst;
    devices = [];
    napis = [];
    rx_delivered_pkts = 0;
    rx_delivered_bytes = 0;
    pfifo_enqueue_addr = enqueue_addr;
    pfifo_dequeue_addr = dequeue_addr;
    ptype_slot;
  }

(** [alloc_netdev t ~name] allocates and minimally initialises a
    [net_device]; exported to modules as [alloc_etherdev]. *)
let alloc_netdev t ~name =
  let kst = t.kst in
  Kcycles.charge kst.cycles Kcycles.Kernel 80;
  let dev = Slab.kmalloc kst.slab dev_layout.Ktypes.s_size in
  Kmem.write_u32 kst.mem (dev + d_mtu) 1500;
  Kmem.write_bytes kst.mem ~addr:(dev + d_name)
    (let n = if String.length name > 15 then String.sub name 0 15 else name in
     n ^ "\000");
  (* Attach the default qdisc: a kernel-memory object whose function
     pointers point at core-kernel code. *)
  let q = Slab.kmalloc kst.slab qdisc_layout.Ktypes.s_size in
  Kmem.write_ptr kst.mem (q + q_enqueue) t.pfifo_enqueue_addr;
  Kmem.write_ptr kst.mem (q + q_dequeue) t.pfifo_dequeue_addr;
  Kmem.write_ptr kst.mem (dev + d_qdisc) q;
  dev

let register_netdev t dev =
  Kcycles.charge t.kst.cycles Kcycles.Kernel 120;
  t.devices <- dev :: t.devices;
  0L

let dev_name t dev =
  let b = Kmem.read_bytes t.kst.mem ~addr:(dev + d_name) ~len:16 in
  let s = Bytes.to_string b in
  match String.index_opt s '\000' with Some i -> String.sub s 0 i | None -> s

(** [netif_napi_add t ~dev ~napi ~poll] — the Figure 1 callback
    registration: stores the module's poll pointer into the napi
    struct. In the real kernel the module passes a bare function
    pointer; here module code stores it itself and calls this to
    register, which preserves the "pointer lives in module-writable
    memory" property the writer-set check needs. *)
let netif_napi_add t ~dev ~napi ~weight =
  Kcycles.charge t.kst.cycles Kcycles.Kernel 30;
  Kmem.write_ptr t.kst.mem (napi + n_dev) dev;
  Kmem.write_u32 t.kst.mem (napi + n_weight) weight;
  t.napis <- napi :: t.napis

let napi_schedule t napi =
  Kcycles.charge t.kst.cycles Kcycles.Kernel 12;
  Kmem.write_u32 t.kst.mem (napi + n_scheduled) 1

(** [dev_queue_xmit t skb] — core-kernel transmit path: charges the
    qdisc/stack cost and invokes the driver's [ndo_start_xmit] through
    the module-written ops slot (a guarded kernel indirect call). *)
let dev_queue_xmit t skb =
  let kst = t.kst in
  let dev = Skbuff.dev kst skb in
  if dev = 0 then raise (Kstate.Oops "dev_queue_xmit: skb without device");
  Kcycles.charge kst.cycles Kcycles.Kernel 55 (* txq lock, headers *);
  (* Packet scheduler: two kernel indirect calls through kernel-owned
     slots (writer-set fast path applies), then the driver's
     ndo_start_xmit through the module-owned ops slot. *)
  let q = Kmem.read_ptr kst.mem (dev + d_qdisc) in
  ignore
    (Kstate.call_ptr kst ~slot:(q + q_enqueue) ~ftype:"qdisc_ops.enqueue"
       [ Int64.of_int q; Int64.of_int skb ]);
  let skb' =
    Kstate.call_ptr kst ~slot:(q + q_dequeue) ~ftype:"qdisc_ops.dequeue"
      [ Int64.of_int q ]
  in
  let skb = Int64.to_int skb' in
  let ops = Kmem.read_ptr kst.mem (dev + d_dev_ops) in
  let slot = ops + ops_start_xmit in
  let ret =
    Kstate.call_ptr kst ~slot ~ftype:"net_device_ops.ndo_start_xmit"
      [ Int64.of_int skb; Int64.of_int dev ]
  in
  if ret = netdev_tx_ok then begin
    let tx_p = dev + d_tx_packets and tx_b = dev + d_tx_bytes in
    Kmem.write_u64 kst.mem tx_p (Int64.add (Kmem.read_u64 kst.mem tx_p) 1L);
    Kmem.write_u64 kst.mem tx_b
      (Int64.add (Kmem.read_u64 kst.mem tx_b) (Int64.of_int (Skbuff.len kst skb)))
  end;
  ret

(** [netif_rx t skb] — driver hands a received packet to the stack; the
    stack consumes (frees) it. *)
let netif_rx t skb =
  let kst = t.kst in
  Kcycles.charge kst.cycles Kcycles.Kernel 80 (* demux + socket queue *);
  (* Protocol dispatch through the packet-type handler slot (kernel
     memory; fast-path elidable). *)
  ignore
    (Kstate.call_ptr kst ~slot:t.ptype_slot ~ftype:"packet_type.func"
       [ Int64.of_int skb ]);
  t.rx_delivered_pkts <- t.rx_delivered_pkts + 1;
  t.rx_delivered_bytes <- t.rx_delivered_bytes + Skbuff.len kst skb;
  let dev = Skbuff.dev kst skb in
  if dev <> 0 then begin
    let rx_p = dev + d_rx_packets and rx_b = dev + d_rx_bytes in
    Kmem.write_u64 kst.mem rx_p (Int64.add (Kmem.read_u64 kst.mem rx_p) 1L);
    Kmem.write_u64 kst.mem rx_b
      (Int64.add (Kmem.read_u64 kst.mem rx_b) (Int64.of_int (Skbuff.len kst skb)))
  end;
  Skbuff.free kst skb;
  0L

(** [poll_scheduled t ~budget] — softirq loop: invoke each scheduled
    NAPI's module poll callback through its slot. Returns the total work
    reported by the polls. *)
let poll_scheduled t ~budget =
  let kst = t.kst in
  let total = ref 0 in
  List.iter
    (fun napi ->
      if Kmem.read_u32 kst.mem (napi + n_scheduled) = 1 then begin
        Kmem.write_u32 kst.mem (napi + n_scheduled) 0;
        Kcycles.charge kst.cycles Kcycles.Kernel 50;
        let slot = napi + n_poll in
        let done_ =
          Kstate.call_ptr kst ~slot ~ftype:"napi.poll"
            [ Int64.of_int napi; Int64.of_int budget ]
        in
        total := !total + Int64.to_int done_
      end)
    t.napis;
  !total

let stats t dev =
  let r off = Int64.to_int (Kmem.read_u64 t.kst.mem (dev + off)) in
  (r d_tx_packets, r d_tx_bytes, r d_rx_packets, r d_rx_bytes)
