(** The CAN broadcast-manager module, carrying CVE-2010-2959: the
    RX_SETUP allocation size is a 32-bit multiplication that overflows,
    and a later RX_UPDATE writes "in bounds" of the corrupted frame
    count — out of bounds of the real allocation. *)

val family : int
val op_rx_setup : int
val op_rx_update : int
val spec : Mod_common.spec
