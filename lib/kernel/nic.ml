(** Simulated e1000-class NIC hardware behind a PCI MMIO BAR.

    The device is driven entirely through memory-mapped registers and
    descriptor rings living inside the BAR, so every driver access is an
    ordinary (LXFI-guarded) store into simulated memory — which is what
    makes the netperf reproduction honest: the per-packet write-guard
    counts of Figure 13 come from real instrumented stores, not from
    bookkeeping shortcuts.

    BAR layout (offsets from BAR base):
    - [0x00] CTRL, [0x08] STATUS
    - [0x10] TDH (tx head, device-owned), [0x18] TDT (tx tail, driver)
    - [0x20] RDH (rx head, driver),       [0x28] RDT (rx tail, device)
    - [0x100 ..] 64 TX descriptors of 16 bytes: {addr:8, len:4, sta:4}
    - [0x500 ..] 64 RX descriptors of 16 bytes: {addr:8, len:4, sta:4} *)

let ring_entries = 64
let desc_size = 16
let reg_tdh = 0x10
let reg_tdt = 0x18
let reg_rdh = 0x20
let reg_rdt = 0x28
let tx_ring_off = 0x100
let rx_ring_off = 0x500
let sta_dd = 1 (* descriptor done *)

(* Total BAR size needed. *)
let bar_len = rx_ring_off + (ring_entries * desc_size)

type t = {
  kst : Kstate.t;
  bar : int;
  mutable tx_pkts : int;
  mutable tx_bytes : int;
  mutable rx_seq : int;  (** sequence for generated inbound frames *)
}

let create kst ~bar = { kst; bar; tx_pkts = 0; tx_bytes = 0; rx_seq = 0 }

let reg t r = Kmem.read_u32 t.kst.Kstate.mem (t.bar + r)
let set_reg t r v = Kmem.write_u32 t.kst.Kstate.mem (t.bar + r) v
let tx_desc t i = t.bar + tx_ring_off + (i * desc_size)
let rx_desc t i = t.bar + rx_ring_off + (i * desc_size)

(** [drain_tx t] — the device consumes descriptors between TDH and the
    driver-written TDT, "transmitting" each frame (counting it) and
    setting the DD status bit for the driver's clean-up path.  Returns
    packets transmitted. *)
let drain_tx t =
  let kst = t.kst in
  let head = ref (reg t reg_tdh) and tail = reg t reg_tdt in
  let sent = ref 0 in
  while !head <> tail do
    let d = tx_desc t !head in
    let len = Kmem.read_u32 kst.mem (d + 8) in
    Kcycles.charge kst.cycles Kcycles.Kernel 20 (* DMA + wire time proxy *);
    t.tx_pkts <- t.tx_pkts + 1;
    t.tx_bytes <- t.tx_bytes + len;
    Kmem.write_u32 kst.mem (d + 12) sta_dd;
    incr sent;
    head := (!head + 1) mod ring_entries
  done;
  set_reg t reg_tdh !head;
  !sent

(** [inject_rx t ~count ~frame_len] — the wire delivers [count] frames:
    the device DMAs payload into the posted buffers (read from the
    descriptors the driver wrote) and marks descriptors done, advancing
    RDT.  Returns frames actually injected (bounded by ring space). *)
let inject_rx t ~count ~frame_len =
  let kst = t.kst in
  let rdt = ref (reg t reg_rdt) and rdh = reg t reg_rdh in
  let injected = ref 0 in
  let space () = (rdh + ring_entries - 1 - !rdt) mod ring_entries in
  while !injected < count && space () > 0 do
    let d = rx_desc t !rdt in
    let buf = Kmem.read_ptr kst.Kstate.mem d in
    if buf = 0 then raise (Kstate.Oops "nic: rx descriptor without buffer");
    (* DMA the frame: a recognisable pattern, sequence-stamped. *)
    Kmem.write_u32 kst.mem buf t.rx_seq;
    t.rx_seq <- t.rx_seq + 1;
    Kmem.write_u32 kst.mem (d + 8) frame_len;
    Kmem.write_u32 kst.mem (d + 12) sta_dd;
    Kcycles.charge kst.cycles Kcycles.Kernel 20;
    incr injected;
    rdt := (!rdt + 1) mod ring_entries
  done;
  set_reg t reg_rdt !rdt;
  !injected

let tx_stats t = (t.tx_pkts, t.tx_bytes)
