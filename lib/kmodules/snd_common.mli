(** Shared builder for the two PCI sound drivers: probe creates the
    card (WRITE + DMA + REF via the snd_card_caps iterator), claims the
    codec's I/O port (REF io_port — Guideline 3), installs the pcm ops
    table, and playback fills the DMA area from the pointer callback. *)

val p_pcidev : int
val p_port : int

val make :
  Ksys.t ->
  name:string ->
  vendor:int ->
  device:int ->
  dma_bytes:int ->
  fill_words:int ->
  Mir.Ast.prog

val slot_types : string list
