(** snd-intel8x0: Intel AC'97 audio controller driver (PCI 8086:2415). *)

val vendor : int
val device : int
val spec : Mod_common.spec
