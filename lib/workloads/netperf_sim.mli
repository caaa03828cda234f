(** netperf over the simulated stack + instrumented e1000 — the Figure
    12/13 reproduction.  Cycles per packet/transaction are measured
    from real runs of the instrumented driver; throughput and CPU%%
    come from a calibrated analytic model of the paper's testbed (see
    the implementation header and EXPERIMENTS.md for every constant
    and deviation). *)

type env = {
  sys : Kmodules.Ksys.t;
  e1000 : Kmodules.Mod_common.handle;
  nic : Kernel_sim.Nic.t;
  dev : int;
  napi : int;
  irq : int;
}

val attach : Kmodules.Ksys.t -> env
(** One NIC and the e1000 module, added to a booted system. *)

val setup : Lxfi.Config.t -> env
(** [attach] on a fresh boot. *)

(** {1 Packet paths} — exposed for the trace workload driver. *)

val udp_send : env -> len:int -> unit
val tcp_send : env -> msg_len:int -> unit

val drain : env -> unit
(** Drain the NIC TX queue. *)

val rx_burst : env -> count:int -> frame_len:int -> int
(** Inject and NAPI-poll a receive burst; returns packets delivered. *)

type measure = {
  m_cycles_per_unit : float;
  m_guard_cycles_per_unit : float;
  m_stats : Lxfi.Stats.t;
  m_units : int;
}

type row = {
  r_test : string;
  r_unit : string;
  r_stock : float;
  r_lxfi : float;
  r_stock_cpu : float;  (** fraction, 0..1 *)
  r_lxfi_cpu : float;
}

val figure12 : ?pkts:int -> unit -> row list
(** The eight netperf rows, paper order. *)

type guard_row = {
  g_type : string;
  g_per_packet : float;
  g_paper_per_packet : float;
}

val figure13 : ?pkts:int -> unit -> guard_row list * measure
(** Guards per packet on UDP_STREAM TX, with the paper's column. *)

type ws_ablation = {
  ws_on_elided_fraction : float;
  ws_on_checked : float;
  ws_off_checked : float;
}

val writer_set_ablation : ?pkts:int -> unit -> ws_ablation
(** §8.4's "2/3 of indirect-call checks elided". *)
