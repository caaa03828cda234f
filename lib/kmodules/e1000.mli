(** The e1000 network driver in MIR — the module the paper's
    performance evaluation isolates (§8.4): PCI probe with the Figure 4
    check/alias sequence, per-adapter private state, descriptor-ring
    transmit with completion cleanup, registered IRQ handler, and NAPI
    receive with buffer replenishment. *)

val vendor : int
val device : int
val spec : Mod_common.spec

val spec_strict : Mod_common.spec
(** Guideline 4 (§6) variant: the receive path uses kernel-side sk_buff
    field accessors gated on a [REF(sk_buff_fields)], so the driver
    never holds WRITE over packet structs — least privilege for the
    52-field sk_buff of which the real e1000 writes five. *)

val napi_addr : Ksys.t -> pcidev:int -> int
(** Address of the adapter's embedded NAPI context. *)
