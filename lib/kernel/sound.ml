(** ALSA-like sound core, hosting the two sound drivers of the paper's
    corpus (snd-intel8x0, snd-ens1370).

    A sound driver creates a card, installs a [snd_pcm_ops] table in its
    own memory, and the core drives playback by calling [trigger] and
    [pointer] through those slots while the module fills the DMA area
    with (LXFI-guarded) stores. *)

let ops_layout =
  Ktypes.layout "snd_pcm_ops"
    [
      ("open", 8, Ktypes.Funcptr "snd_pcm_ops.open");
      ("close", 8, Ktypes.Funcptr "snd_pcm_ops.close");
      ("trigger", 8, Ktypes.Funcptr "snd_pcm_ops.trigger");
      ("pointer", 8, Ktypes.Funcptr "snd_pcm_ops.pointer");
    ]

let card_layout =
  Ktypes.layout "snd_card"
    [
      ("pcm_ops", 8, Ktypes.Pointer);
      ("dma_area", 8, Ktypes.Pointer);
      ("dma_bytes", 4, Ktypes.Scalar);
      ("running", 4, Ktypes.Scalar);
      ("private", 8, Ktypes.Pointer);
      ("name", 16, Ktypes.Scalar);
    ]

let layouts = [ ops_layout; card_layout ]
let define_layout types = List.iter (Ktypes.add types) layouts

let c_pcm_ops = Ktypes.offset_of card_layout "pcm_ops"
let c_dma_area = Ktypes.offset_of card_layout "dma_area"
let c_dma_bytes = Ktypes.offset_of card_layout "dma_bytes"
let c_name = Ktypes.offset_of card_layout "name"

(* A snd_pcm_ops operation: its slot offset and its slot-type name. *)
let pcm_op name = (Ktypes.offset_of ops_layout name, "snd_pcm_ops." ^ name)
let op_open = pcm_op "open"
let op_close = pcm_op "close"
let op_trigger = pcm_op "trigger"
let op_pointer = pcm_op "pointer"

(* trigger commands *)
let trigger_start = 1L
let trigger_stop = 0L

type t = { kst : Kstate.t; mutable cards : int list; mutable periods_elapsed : int }

let create kst = { kst; cards = []; periods_elapsed = 0 }

(** [snd_card_create t ~name ~dma_bytes] — exported: allocates the card
    and its DMA buffer; the caller module receives WRITE on the DMA area
    via the export's annotation. *)
let snd_card_create t ~name ~dma_bytes =
  let kst = t.kst in
  Kcycles.charge kst.cycles Kcycles.Kernel 150;
  let card = Slab.kmalloc kst.slab card_layout.Ktypes.s_size in
  let dma = Slab.kmalloc kst.slab dma_bytes in
  Kmem.write_ptr kst.mem (card + c_dma_area) dma;
  Kmem.write_u32 kst.mem (card + c_dma_bytes) dma_bytes;
  Kmem.write_bytes kst.mem ~addr:(card + c_name)
    (let n = if String.length name > 15 then String.sub name 0 15 else name in
     n ^ "\000");
  card

let snd_card_register t card =
  t.cards <- card :: t.cards;
  0L

let dma_area t card = Kmem.read_ptr t.kst.mem (card + c_dma_area)
let dma_bytes t card = Kmem.read_u32 t.kst.mem (card + c_dma_bytes)

(** [snd_pcm_period_elapsed t card] — exported; drivers call it from
    their interrupt path. *)
let snd_pcm_period_elapsed t _card =
  Kcycles.charge t.kst.cycles Kcycles.Kernel 40;
  t.periods_elapsed <- t.periods_elapsed + 1;
  0L

let op_call t card (off, ftype) args =
  let kst = t.kst in
  let ops = Kmem.read_ptr kst.mem (card + c_pcm_ops) in
  if ops = 0 then raise (Kstate.Oops "snd card without pcm ops");
  Kstate.call_ptr kst ~slot:(ops + off) ~ftype (Int64.of_int card :: args)

(** Userspace-side playback sequence: open, start trigger, poll the
    hardware pointer [polls] times, stop, close. Returns the last
    hardware pointer position. *)
let playback t card ~polls =
  ignore (op_call t card op_open []);
  ignore (op_call t card op_trigger [ trigger_start ]);
  let pos = ref 0L in
  for _ = 1 to polls do
    Kcycles.charge t.kst.cycles Kcycles.Kernel 30;
    pos := op_call t card op_pointer []
  done;
  ignore (op_call t card op_trigger [ trigger_stop ]);
  ignore (op_call t card op_close []);
  !pos
