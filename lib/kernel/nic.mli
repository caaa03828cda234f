(** e1000-class NIC hardware model behind a PCI MMIO BAR: registers and
    descriptor rings live inside the BAR, so every driver access is an
    ordinary (LXFI-guarded) store — the honest source of Figure 13's
    per-packet write-guard counts. *)

val ring_entries : int
val desc_size : int

(** Register offsets: TDH/TDT are the tx head (device-owned) and tail
    (driver-written); RDH/RDT the rx head (driver) and tail (device). *)

val reg_tdh : int
val reg_tdt : int
val reg_rdh : int
val reg_rdt : int
val tx_ring_off : int
val rx_ring_off : int

val sta_dd : int
(** Descriptor-done status bit. *)

val bar_len : int
(** BAR size covering registers + both rings. *)

type t = {
  kst : Kstate.t;
  bar : int;
  mutable tx_pkts : int;
  mutable tx_bytes : int;
  mutable rx_seq : int;
}

val create : Kstate.t -> bar:int -> t

val drain_tx : t -> int
(** The device consumes descriptors between TDH and the driver's TDT,
    "transmitting" each frame and setting DD; returns packets sent. *)

val inject_rx : t -> count:int -> frame_len:int -> int
(** The wire delivers frames: DMA into the posted buffers (read from
    the descriptors the driver wrote), mark DD, advance RDT.  Returns
    frames injected (bounded by ring space). *)

val tx_stats : t -> int * int
(** (packets, bytes) put on the wire so far. *)
