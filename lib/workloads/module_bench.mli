(** Per-module isolation overhead — an evaluation extension beyond the
    paper (which benchmarks only e1000): one representative steady-state
    workload per module family, reporting simulated cycles per operation
    under stock and LXFI. *)

type row = {
  mb_module : string;
  mb_op : string;
  mb_stock_cycles : float;
  mb_lxfi_cycles : float;
  mb_overhead : float;  (** lxfi/stock − 1 *)
}

val table : ?ops:int -> unit -> row list
