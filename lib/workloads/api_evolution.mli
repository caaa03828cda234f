(** Kernel API churn — the Figure 10 reproduction: a deterministic
    generative model standing in for the paper's ctags survey (no Linux
    trees here), anchored at the published 2.6.21 datapoints and the
    curves' endpoints. *)

type row = {
  version : string;
  released : string;
  exported_total : int;
  exported_changed : int;
  fptr_total : int;
  fptr_changed : int;
}

val table : unit -> row list
(** Twenty releases, 2.6.20–2.6.39; deterministic. *)

val paper_anchor : string * int * int * int * int
(** (version, exported_total, exported_changed, fptr_total,
    fptr_changed) from the paper; exported for the test that checks
    {!table} against it. *)
