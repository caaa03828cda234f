(** Cycle accounting for the simulated single-core CPU: every unit of
    work charges cycles in one of three categories, and the benchmark
    harness converts totals into throughput/CPU%% against a fixed clock
    (the paper's 3.2 GHz i3-550). *)

type category =
  | Kernel  (** core-kernel work: socket layer, qdisc, slab, IRQs *)
  | Module  (** interpreted module (MIR) instructions *)
  | Guard  (** LXFI guards: write checks, wrappers, annotations *)

type t = Trace.cycles = { mutable kernel : int; mutable module_ : int; mutable guard : int }
(** The record {!Trace.attach} stamps events from. *)

val create : unit -> t
val charge : t -> category -> int -> unit
val total : t -> int
val module_ : t -> int
val guard : t -> int

val snapshot : t -> t
(** An independent copy, for differential measurement. *)

val since : t -> t -> t
(** Per-category deltas since the snapshot, as a fresh value. *)
