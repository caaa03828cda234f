(** The base CAN protocol module (raw frames; no known vulnerability —
    part of the Figure 9 annotation-effort corpus). *)

val spec : Mod_common.spec
