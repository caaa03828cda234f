(** snd-ens1370: Ensoniq AudioPCI driver (PCI 1274:5000). *)

val vendor : int
val device : int
val spec : Mod_common.spec
