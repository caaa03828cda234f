(** The ten-module corpus of the paper's evaluation, plus the Figure 9
    annotation-effort accounting ("unique" = used by no other module in
    the corpus — the sharing that makes marginal module support cheap,
    §8.2). *)

val all : Mod_common.spec list
(** e1000, snd-intel8x0, snd-ens1370, rds, can, can-bcm, econet,
    dm-crypt, dm-zero, dm-snapshot. *)

val find : string -> Mod_common.spec option

type effort_row = {
  e_module : string;
  e_category : string;
  e_functions_all : int;
  e_functions_unique : int;
  e_fptrs_all : int;
  e_fptrs_unique : int;
}

val annotation_effort : Ksys.t -> effort_row list * int * int
(** Per-module rows plus the distinct totals (functions, fptr types). *)
