(** Cycle accounting for the simulated single-core CPU.

    The netperf reproduction (paper §8.4) reports CPU utilization; on real
    hardware that is time spent executing instructions and LXFI guards.  In
    the simulator every unit of work charges cycles to a [t], and the
    benchmark harness converts accumulated cycles into utilization against
    a fixed clock rate (the paper's test machine is an Intel i3-550 at
    3.2 GHz).

    Charges are split into coarse categories so the harness can report
    where time goes (kernel path vs. module instructions vs. guards),
    mirroring the paper's Figure 13 breakdown. *)

type category =
  | Kernel  (** core-kernel work: socket layer, qdisc, slab, IRQs *)
  | Module  (** interpreted module (MIR) instructions *)
  | Guard  (** LXFI runtime guards: write checks, wrappers, annotations *)

(* Defined in [lib/trace], which sits below this library, so that a
   trace ring stamps its events straight from the live counters. *)
type t = Trace.cycles = {
  mutable kernel : int;
  mutable module_ : int;
  mutable guard : int;
}

let create () = { kernel = 0; module_ = 0; guard = 0 }

let charge t cat n =
  match cat with
  | Kernel -> t.kernel <- t.kernel + n
  | Module -> t.module_ <- t.module_ + n
  | Guard -> t.guard <- t.guard + n

(** Total cycles consumed since creation. *)
let total t = t.kernel + t.module_ + t.guard

let kernel t = t.kernel
let module_ t = t.module_
let guard t = t.guard

(** Snapshot for differential measurement around a workload section. *)
let snapshot t = { t with kernel = t.kernel }

let since t s =
  {
    kernel = t.kernel - s.kernel;
    module_ = t.module_ - s.module_;
    guard = t.guard - s.guard;
  }
