(** The RDS protocol module, carrying CVE-2010-3904: the receive path
    copies to the user-supplied destination with the unchecked copy
    primitive.  [rds_ops] lives in [.rodata]; [spec_writable_ops] is
    the paper's second experiment with the table made writable. *)

val spec : Mod_common.spec
val spec_writable_ops : Mod_common.spec
