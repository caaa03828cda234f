(** Simulated 64-bit kernel address space.

    A sparse byte store that models 4 KiB pages ({!page_size}: slab and
    module-area rounding use it) and keeps their bytes in smaller
    frames (see below).  Addresses are plain OCaml [int]s (63 bits —
    ample for the layout below).  Nothing here enforces
    protection: as on real x86-64, the kernel is a single privilege
    domain, and every write a module performs lands directly in this
    store.  All isolation is provided by the LXFI layer above, which
    guards module stores and boundary crossings.

    The address-space layout mirrors Linux well enough for the paper's
    exploits to be expressed naturally:

    - a user-space range (attacker-controlled; the RDS and Econet
      exploits make the kernel write into, or call into, this range);
    - kernel text (exported functions get addresses here);
    - kernel heap (slab pages);
    - kernel stacks (with adjacent LXFI shadow stacks);
    - module area (per-module text/rodata/data/bss/stack sections). *)

let page_size = 0x1000

(** Address-space layout constants. *)
module Layout = struct
  let null_guard_top = 0x1000

  (** User mappings: [0x1000, 0x8000_0000). *)
  let user_base = 0x1000

  let user_top = 0x8000_0000

  (** Kernel text: exported kernel functions are assigned fake text
      addresses here so CALL capabilities and indirect calls can refer to
      them uniformly. *)
  let kernel_text_base = 0x1_0000_0000

  (** Kernel heap: slab allocator pages. *)
  let kernel_heap_base = 0x2_0000_0000

  (** Kernel thread stacks (and their adjacent shadow stacks). *)
  let kernel_stack_base = 0x3_0000_0000

  (** Module sections: text, rodata, data, bss, module stacks. *)
  let module_base = 0x4_0000_0000

  let is_null a = a >= 0 && a < null_guard_top
  let is_user a = a >= user_base && a < user_top
  let is_kernel a = a >= kernel_text_base
  let is_module_area a = a >= module_base
end

(** Raised on access to the NULL guard page; the kernel substrate
    catches this at the syscall boundary and runs the oops path, exactly
    where CVE-2010-4258's [do_exit] bug lives. *)
exception Fault of { addr : int; write : bool }

(* Storage is finer than the modelled page: memory lives in 512-byte
   frames, so a frame (65 words with its header) is below the minor
   heap's 256-word limit and a short-lived system's memory dies young
   instead of being allocated straight into the major heap, as a
   4 KiB buffer would be.  Only [fold_frames], which a test compares
   memory through, shows frames outside this file. *)
let frame_shift = 9
let frame_size = 1 lsl frame_shift
let frame_mask = frame_size - 1

(* A small direct-mapped cache of frames.  A slot is the frame index
   folded with its page index ([idx lsr 3]): the eight frames of a page
   take eight slots, and pages whose indexes agree in their low bits (a
   kernel stack, a module stack and a slab page, say) spread over the
   cache instead of evicting each other, which keeps misses at about
   14% of netperf's lookups and 7% of lifecycle's (about 45% and 72%
   missed a one-entry page cache). *)
let cache_bits = 5
let cache_mask = (1 lsl cache_bits) - 1
let cache_slot idx = (idx lxor (idx lsr 3)) land cache_mask

type t = {
  frames : Bytes.t Inttbl.t;
      (** materialised frames by frame index; any other frame is added
          zero-filled on its first access *)
  tags : int array;  (** frame index each cache slot holds; [-1] when empty *)
  cached : Bytes.t array;
}

let create () =
  {
    frames = Inttbl.create 64;
    tags = Array.make (cache_mask + 1) (-1);
    cached = Array.make (cache_mask + 1) Bytes.empty;
  }

(* Demand-zero: the first read or write of a frame materialises it
   zero-filled, so nothing maps memory ahead of use.  Frames are never
   unmapped, so the cache needs no invalidation, and only a frame that
   passed the NULL check is ever cached: a hit needs no check. *)
let miss t ~write addr idx slot =
  if Layout.is_null addr || addr < 0 then raise (Fault { addr; write });
  let b =
    (* a frame is absent only until its first access *)
    match Inttbl.find t.frames idx with
    | b -> b
    | exception Not_found ->
        let b = Bytes.make frame_size '\000' in
        Inttbl.replace t.frames idx b;
        b
  in
  Array.unsafe_set t.tags slot idx;
  Array.unsafe_set t.cached slot b;
  b

let frame_of t ~write addr =
  let idx = addr lsr frame_shift in
  let slot = cache_slot idx in
  if Array.unsafe_get t.tags slot = idx then Array.unsafe_get t.cached slot
  else miss t ~write addr idx slot

let fold_frames t f acc = Inttbl.fold (fun idx b acc -> f (idx lsl frame_shift) b acc) t.frames acc

let read_u8 t addr =
  let b = frame_of t ~write:false addr in
  Char.code (Bytes.get b (addr land frame_mask))

let write_u8 t addr v =
  let b = frame_of t ~write:true addr in
  Bytes.set b (addr land frame_mask) (Char.chr (v land 0xff))

(** [read t ~addr ~size] reads a little-endian [size]-byte integer
    ([size] in 1..8) and returns it as an [int64].  Power-of-two sizes
    that stay within one frame are single word accesses; everything
    else falls back to the byte loop. *)
let read t ~addr ~size =
  assert (size >= 1 && size <= 8);
  let off = addr land frame_mask in
  if off + size <= frame_size then
    let b = frame_of t ~write:false addr in
    match size with
    | 1 -> Int64.of_int (Bytes.get_uint8 b off)
    | 2 -> Int64.of_int (Bytes.get_uint16_le b off)
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le b off)) 0xffff_ffffL
    | 8 -> Bytes.get_int64_le b off
    | _ ->
        let v = ref 0L in
        for i = size - 1 downto 0 do
          v :=
            Int64.logor (Int64.shift_left !v 8)
              (Int64.of_int (Bytes.get_uint8 b (off + i)))
        done;
        !v
  else begin
    let v = ref 0L in
    for i = size - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read_u8 t (addr + i)))
    done;
    !v
  end

(** [write t ~addr ~size v] stores the low [size] bytes of [v]
    little-endian at [addr]. *)
let write t ~addr ~size v =
  assert (size >= 1 && size <= 8);
  let off = addr land frame_mask in
  if off + size <= frame_size then
    let b = frame_of t ~write:true addr in
    match size with
    | 1 -> Bytes.set_uint8 b off (Int64.to_int v land 0xff)
    | 2 -> Bytes.set_uint16_le b off (Int64.to_int v land 0xffff)
    | 4 -> Bytes.set_int32_le b off (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le b off v
    | _ ->
        for i = 0 to size - 1 do
          Bytes.set_uint8 b (off + i)
            (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
        done
  else
    for i = 0 to size - 1 do
      write_u8 t (addr + i)
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL))
    done

let read_u64 t addr = read t ~addr ~size:8
let write_u64 t addr v = write t ~addr ~size:8 v
let read_u32 t addr = Int64.to_int (read t ~addr ~size:4)
let write_u32 t addr v = write t ~addr ~size:4 (Int64.of_int v)

(** Pointer-sized loads/stores; pointers are stored as 8-byte values. *)
let read_ptr t addr = Int64.to_int (read t ~addr ~size:8)

let write_ptr t addr p = write t ~addr ~size:8 (Int64.of_int p)

(* Bulk operations walk the range one frame at a time. *)

let read_bytes t ~addr ~len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land frame_mask in
    let chunk = min (len - !pos) (frame_size - off) in
    let b = frame_of t ~write:false a in
    Bytes.blit b off out !pos chunk;
    pos := !pos + chunk
  done;
  out

let write_bytes t ~addr s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land frame_mask in
    let chunk = min (len - !pos) (frame_size - off) in
    let b = frame_of t ~write:true a in
    Bytes.blit_string s !pos b off chunk;
    pos := !pos + chunk
  done

let zero t ~addr ~len =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land frame_mask in
    let chunk = min (len - !pos) (frame_size - off) in
    let b = frame_of t ~write:true a in
    Bytes.fill b off chunk '\000';
    pos := !pos + chunk
  done

(** [blit t ~src ~dst ~len] copies [len] bytes within the address space
    (used by the simulated [memcpy] / [copy_to_user] paths). *)
let blit t ~src ~dst ~len =
  let tmp = read_bytes t ~addr:src ~len in
  write_bytes t ~addr:dst (Bytes.to_string tmp)
