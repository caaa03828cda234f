(** CLI driver for the adversarial fuzz campaign (`lxfi_sim fuzz`):
    runs {!Fuzz.Campaign.run}, prints the per-class detection table,
    writes minimized repros to a directory and the deterministic
    [FUZZ_*.json] report.  Output contains no timestamps — two runs
    with the same seed are byte-identical. *)

val json_of_report : Fuzz.Campaign.report -> Bench_json.t
(** The [--json] report; exported for the determinism regression test. *)

val print :
  ?mutants_per_case:int ->
  ?out:string ->
  ?json:string ->
  seed:int ->
  runs:int ->
  unit ->
  int
(** Run a campaign and print the report; returns 0 when every oracle
    passed (the process exit code). *)

val print_exemplars : seed:int -> out:string -> unit -> int
(** Write the per-class corpus exemplars ({!Fuzz.Campaign.exemplars})
    into [out]. *)
