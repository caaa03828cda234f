(** Simulated 64-bit kernel address space.

    A sparse, page-granular byte store.  Addresses are plain OCaml [int]s
    (63 bits — ample for the layout below).  Nothing here enforces
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

let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1

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

type t = {
  pages : Bytes.t Inttbl.t;
      (** materialised pages; any other page is added zero-filled on its
          first access *)
  mutable last_idx : int;  (** single-entry page-lookup cache (TLB of one) *)
  mutable last_page : Bytes.t;
}

let create () = { pages = Inttbl.create 1024; last_idx = -1; last_page = Bytes.empty }

(* Demand-zero: the first read or write of a page materialises it
   zero-filled, so nothing maps memory ahead of use.  Pages are never
   unmapped, so the cache needs no invalidation. *)
let page_of t ~write addr =
  if Layout.is_null addr || addr < 0 then raise (Fault { addr; write });
  let idx = addr lsr page_shift in
  if idx = t.last_idx then t.last_page
  else
    let b =
      (* a page is absent only until its first access *)
      match Inttbl.find t.pages idx with
      | b -> b
      | exception Not_found ->
          let b = Bytes.make page_size '\000' in
          Inttbl.replace t.pages idx b;
          b
    in
    t.last_idx <- idx;
    t.last_page <- b;
    b

let read_u8 t addr =
  let b = page_of t ~write:false addr in
  Char.code (Bytes.get b (addr land page_mask))

let write_u8 t addr v =
  let b = page_of t ~write:true addr in
  Bytes.set b (addr land page_mask) (Char.chr (v land 0xff))

(** [read t ~addr ~size] reads a little-endian [size]-byte integer
    ([size] in 1..8) and returns it as an [int64].  Power-of-two sizes
    that stay within one page are single word accesses; everything else
    falls back to the byte loop. *)
let read t ~addr ~size =
  assert (size >= 1 && size <= 8);
  let off = addr land page_mask in
  if off + size <= page_size then
    let b = page_of t ~write:false addr in
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
  let off = addr land page_mask in
  if off + size <= page_size then
    let b = page_of t ~write:true addr in
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

(* Bulk operations walk the range one page-sized chunk at a time. *)

let read_bytes t ~addr ~len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land page_mask in
    let chunk = min (len - !pos) (page_size - off) in
    let b = page_of t ~write:false a in
    Bytes.blit b off out !pos chunk;
    pos := !pos + chunk
  done;
  out

let write_bytes t ~addr s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land page_mask in
    let chunk = min (len - !pos) (page_size - off) in
    let b = page_of t ~write:true a in
    Bytes.blit_string s !pos b off chunk;
    pos := !pos + chunk
  done

let zero t ~addr ~len =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land page_mask in
    let chunk = min (len - !pos) (page_size - off) in
    let b = page_of t ~write:true a in
    Bytes.fill b off chunk '\000';
    pos := !pos + chunk
  done

(** [blit t ~src ~dst ~len] copies [len] bytes within the address space
    (used by the simulated [memcpy] / [copy_to_user] paths). *)
let blit t ~src ~dst ~len =
  let tmp = read_bytes t ~addr:src ~len in
  write_bytes t ~addr:dst (Bytes.to_string tmp)
