(** Network-device core — the paper's Figure 1 interface: modules
    allocate a [net_device], point [dev_ops] at their own ops table in
    module memory, and the core later invokes [ndo_start_xmit] and the
    NAPI poll through those module-written pointers.  The transmit
    path also performs two indirect calls through the kernel-owned
    default qdisc, and receive dispatches through a kernel-owned
    protocol-handler slot — the sites the writer-set fast path
    elides. *)

val layouts : Ktypes.strct list
(** Every layout of this subsystem, in registration order. *)

val define_layout : Ktypes.t -> unit
(** Add {!layouts} to a booted system's registry. *)

val netdev_tx_ok : int64

type t = {
  kst : Kstate.t;
  mutable devices : int list;
  mutable napis : int list;
  mutable rx_delivered_pkts : int;
  mutable rx_delivered_bytes : int;
  pfifo_enqueue_addr : int;
  pfifo_dequeue_addr : int;
  ptype_slot : int;
}

val create : Kstate.t -> t

val alloc_netdev : t -> name:string -> int
(** Allocate and minimally initialise a [net_device] (with its default
    qdisc attached); exported to modules as [alloc_etherdev]. *)

val register_netdev : t -> int -> int64
val dev_name : t -> int -> string
val netif_napi_add : t -> dev:int -> napi:int -> weight:int -> unit
val napi_schedule : t -> int -> unit

val dev_queue_xmit : t -> int -> int64
(** Core transmit: qdisc enqueue/dequeue (kernel ind-calls) then the
    driver's [ndo_start_xmit] (module ind-call); updates device stats
    on NETDEV_TX_OK. *)

val netif_rx : t -> int -> int64
(** Driver hands a packet up; protocol dispatch, stats, and the stack
    consumes (frees) the skb. *)

val poll_scheduled : t -> budget:int -> int
(** Softirq loop: invoke every scheduled NAPI's poll through its slot;
    returns total work reported. *)

val stats : t -> int -> int * int * int * int
(** (tx_packets, tx_bytes, rx_packets, rx_bytes) of a device. *)
