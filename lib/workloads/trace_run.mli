(** The `lxfi_sim trace` workload driver: boot an LXFI system, attach a
    trace ring buffer, drive a seed-determined op mix through a
    workload, print the per-principal / per-entry-point profile and
    optionally write Chrome trace-event JSON.  Byte-identical output
    for a fixed seed. *)

val workload_names : string list
(** ["netperf"; "can"; "rds"]. *)

val run :
  ?seed:int ->
  ?limit:int ->
  ?out:string ->
  workload:string ->
  Format.formatter ->
  int
(** Returns 0 when the per-principal cycle totals reconcile with the
    {!Kernel_sim.Kcycles} clock, 1 otherwise.  Raises
    [Invalid_argument] on an unknown workload. *)
