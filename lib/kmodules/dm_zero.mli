(** dm-zero: the smallest module of the corpus — reads return zeroes,
    writes are discarded. *)

val spec : Mod_common.spec
