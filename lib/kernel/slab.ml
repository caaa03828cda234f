(** SLUB-style slab allocator over the simulated kernel heap.

    Faithful in the two properties the paper's evaluation depends on:

    - {b size classes}: a request is rounded up to the next class, so an
      integer-overflowed size (CAN BCM, CVE-2010-2959) yields an
      undersized object while the caller believes it got more;
    - {b adjacency}: objects of one class are carved sequentially from
      the same slab page, so the CAN BCM exploit can arrange a victim
      object ([struct shmid_kernel] in the original) to sit directly
      after the undersized buffer and corrupt it with an out-of-bounds
      write.

    [kmalloc] returns the object address; LXFI's annotation on kmalloc
    grants the calling module a WRITE capability for the {e actual}
    allocated size — which is exactly how LXFI stops the CAN BCM
    exploit. *)

type class_ = {
  obj_size : int;
  mutable cur_page : int;  (** current partially-carved slab page, 0 if none *)
  mutable next_off : int;  (** carve offset within [cur_page] *)
  free : int Stack.t;  (** freed objects, reused LIFO like SLUB *)
}

type t = {
  mem : Kmem.t;
  cycles : Kcycles.t;
  classes : class_ array;
  mutable heap_cursor : int;  (** bump pointer for fresh slab / large pages *)
  live : int Inttbl.t;  (** object addr -> allocated (class) size *)
  mutable alloc_count : int;
  mutable finject : Finject.t option;
      (** when armed, {!kmalloc} consults it and may fail on purpose *)
}

let size_classes = [| 16; 32; 64; 96; 128; 192; 256; 512; 1024; 2048; 4096 |]

exception Out_of_memory
exception Bad_free of int

let create mem cycles =
  {
    mem;
    cycles;
    classes =
      Array.map
        (fun s -> { obj_size = s; cur_page = 0; next_off = 0; free = Stack.create () })
        size_classes;
    heap_cursor = Kmem.Layout.kernel_heap_base;
    live = Inttbl.create 256;
    alloc_count = 0;
    finject = None;
  }

let fresh_pages t n =
  let addr = t.heap_cursor in
  t.heap_cursor <- t.heap_cursor + (n * Kmem.page_size);
  addr

(* Every class is a multiple of 16 bytes, so the smallest class of at
   least [size] bytes is the smallest of at least [16 * ceil(size / 16)]:
   [class_index.(q)] is the index of the smallest class of at least
   [16 * q] bytes, for [q] up to the largest class's. *)
let max_class = size_classes.(Array.length size_classes - 1)

let class_index =
  Array.init ((max_class / 16) + 1) (fun q ->
      let rec go i = if size_classes.(i) >= 16 * q then i else go (i + 1) in
      go 0)

(* The class a request of [size] (at least 1) bytes rounds up to, or
   [None] above the largest class. *)
let class_for t size =
  if size > max_class then None else Some t.classes.(class_index.((size + 15) / 16))

(** [kmalloc t size] allocates [size] bytes ([size >= 1]); the object is
    zeroed (we model the common kzalloc-ish discipline so that
    writer-set semantics — "since the last time the location was
    zeroed" — are well defined at allocation).  Returns the address.

    The usable size is [usable_size t addr], which may exceed [size]
    (size-class rounding); LXFI grants WRITE for the usable size, as the
    kernel's annotation on kmalloc does in the paper. *)
let kmalloc t size =
  if size <= 0 then invalid_arg "Slab.kmalloc: size <= 0";
  Kcycles.charge t.cycles Kcycles.Kernel 25;
  (match t.finject with
  | Some fi when Finject.fires fi Finject.Alloc_fail -> raise Out_of_memory
  | _ -> ());
  t.alloc_count <- t.alloc_count + 1;
  match class_for t size with
  | Some c ->
      let addr =
        if not (Stack.is_empty c.free) then Stack.pop c.free
        else begin
          if c.cur_page = 0 || c.next_off + c.obj_size > Kmem.page_size then begin
            c.cur_page <- fresh_pages t 1;
            c.next_off <- 0
          end;
          let a = c.cur_page + c.next_off in
          c.next_off <- c.next_off + c.obj_size;
          a
        end
      in
      Kmem.zero t.mem ~addr ~len:c.obj_size;
      Inttbl.replace t.live addr c.obj_size;
      if !Trace.on then Trace.emit (Trace.Slab_alloc (addr, c.obj_size));
      addr
  | None ->
      (* Large allocation: whole pages. *)
      let npages = (size + Kmem.page_size - 1) / Kmem.page_size in
      let addr = fresh_pages t npages in
      Inttbl.replace t.live addr (npages * Kmem.page_size);
      if !Trace.on then Trace.emit (Trace.Slab_alloc (addr, npages * Kmem.page_size));
      addr

(** Actual usable size of a live object (class size, not request size). *)
let usable_size t addr =
  match Inttbl.find_opt t.live addr with
  | Some s -> s
  | None -> raise (Bad_free addr)

let kfree t addr =
  Kcycles.charge t.cycles Kcycles.Kernel 18;
  match Inttbl.find_opt t.live addr with
  | None -> raise (Bad_free addr)
  | Some size ->
      Inttbl.remove t.live addr;
      if !Trace.on then Trace.emit (Trace.Slab_free addr);
      (match class_for t size with
      | Some c when c.obj_size = size -> Stack.push addr c.free
      | _ -> () (* large allocation: pages leak back to nothing; fine for sim *));
      ()

let is_live t addr = Inttbl.mem t.live addr
let live_objects t = Inttbl.length t.live
let allocations t = t.alloc_count
