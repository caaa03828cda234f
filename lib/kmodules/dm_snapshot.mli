(** dm-snapshot: copy-on-write target with a per-device exception
    table; the first write to each chunk preserves the original into a
    COW block. *)

val spec : Mod_common.spec
