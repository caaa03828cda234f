(** dm-crypt: encrypting device-mapper target with a per-device key
    context owned by that device's instance principal — the §2.1
    malicious-USB-stick scenario's subject. *)

val spec : Mod_common.spec
