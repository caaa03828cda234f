(** ALSA-like sound core for the snd-* corpus: drivers create a card,
    install a [snd_pcm_ops] table in module memory, and the core drives
    playback by calling trigger/pointer through those slots while the
    module fills the DMA area with guarded stores. *)

val card_layout : Ktypes.strct

val layouts : Ktypes.strct list
(** Every layout of this subsystem, in registration order. *)

val define_layout : Ktypes.t -> unit
(** Add {!layouts} to a booted system's registry. *)

type t = { kst : Kstate.t; mutable cards : int list; mutable periods_elapsed : int }

val create : Kstate.t -> t

val snd_card_create : t -> name:string -> dma_bytes:int -> int
(** Allocate a card and its DMA buffer; the [snd_card_caps] iterator on
    the export grants the caller WRITE on both plus the registration
    REF. *)

val snd_card_register : t -> int -> int64
val dma_area : t -> int -> int
val dma_bytes : t -> int -> int
val snd_pcm_period_elapsed : t -> int -> int64

val playback : t -> int -> polls:int -> int64
(** Userspace-side playback: open, start, poll the hardware pointer
    [polls] times, stop, close; returns the final position. *)
