(** Writer-set tracking (§4.1, §5) — the fast path for kernel
    indirect-call checks.

    The runtime tracks, per 64-byte line of the address space, whether
    {e any} module principal has ever been granted a WRITE capability
    covering it since it was last cleared.  Before the expensive
    indirect-call capability check, the kernel consults this bitmap: a
    function-pointer slot no module could have written needs no check
    at all.  The paper reports this eliminates ~2/3 of indirect-call
    checks on the UDP TX path (Figure 13); the ablation benchmark
    reproduces that ratio.

    The bitmap has two levels, like a page table: an int-keyed table
    ({!Kernel_sim.Inttbl}) maps a chunk index (the line index shifted
    right by [chunk_shift]) to an int whose low 32 bits are the marks
    of that chunk's 32 lines (2 KB of address space).  Chunks with no
    marked line have no entry, so the table only holds memory some
    principal could write.

    False positives (a line granted but never actually written) cost
    only an unnecessary check; false negatives cannot arise from module
    stores because a store needs a WRITE capability, which marks the
    line first.  The remaining false-negative channel — the kernel
    copying a module-written pointer into kernel-private memory — is
    handled at rewrite time by the origin analysis (the kernel call
    sites in [lib/kernel] always pass the original slot address). *)

open Kernel_sim

let line_shift = 6
let chunk_shift = 5
let chunk_mask = (1 lsl chunk_shift) - 1

type t = int Inttbl.t

let create () : t = Inttbl.create 64

(* [f chunk mask] for every chunk, ascending, that the lines of
   [base, base+size) touch; [mask] selects those lines in the chunk. *)
let iter_chunks ~base ~size f =
  if size > 0 then begin
    let first = base lsr line_shift and last = (base + size - 1) lsr line_shift in
    for c = first lsr chunk_shift to last lsr chunk_shift do
      let lo = if c = first lsr chunk_shift then first land chunk_mask else 0 in
      let hi = if c = last lsr chunk_shift then last land chunk_mask else chunk_mask in
      f c (((1 lsl (hi - lo + 1)) - 1) lsl lo)
    done
  end

let mark_range t ~base ~size =
  iter_chunks ~base ~size (fun c mask ->
      match Inttbl.find_opt t c with
      | Some m -> if m lor mask <> m then Inttbl.replace t c (m lor mask)
      | None -> Inttbl.add t c mask)

let maybe_written t addr =
  let l = addr lsr line_shift in
  match Inttbl.find_opt t (l lsr chunk_shift) with
  | Some m -> m land (1 lsl (l land chunk_mask)) <> 0
  | None -> false

let clear_range t ~base ~size =
  iter_chunks ~base ~size (fun c mask ->
      match Inttbl.find_opt t c with
      | Some m ->
          let m' = m land lnot mask in
          if m' = 0 then Inttbl.remove t c else if m' <> m then Inttbl.replace t c m'
      | None -> ())

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

let marked_lines t = Inttbl.fold (fun _ m n -> n + popcount m) t 0

let fold_chunks t ~base ~size f acc =
  let acc = ref acc in
  iter_chunks ~base ~size (fun c mask ->
      match Inttbl.find_opt t c with
      | Some m when m land mask <> 0 -> acc := f !acc c (m land mask)
      | Some _ | None -> ());
  !acc

let lines_of_chunks chunks =
  List.fold_right
    (fun (c, m) acc ->
      let rec bits b acc =
        if b < 0 then acc
        else
          let acc = if m land (1 lsl b) <> 0 then ((c lsl chunk_shift) lor b) :: acc else acc in
          bits (b - 1) acc
      in
      bits chunk_mask acc)
    chunks []
