(** Bounded ring-buffer event tracing for the simulated kernel.

    An ftrace-style observability layer: hook points in the runtime,
    the MIR interpreter, the quarantine policy, the slab allocator and
    the fault injector emit typed events, each stamped with the
    simulated cycle clock (split by {!Kcycles} category) and the
    current principal.  The buffer is a bounded ring that keeps the
    {e newest} events.  Like ftrace's ring of fixed-size pages, it is
    stored as blocks of at most 256 entries, each added the first
    time the ring reaches it and never copied, so a short run
    never pays for a large bound.  A block holds its entries by column
    (three stamp arrays, the principal labels and the kinds), every
    array small enough for the minor heap: a ring that dies with its
    run is never promoted.  Events become records only when read.
    Aggregation and export live in {!Trace_profile}.

    {2 Zero cost when disabled, cheap when on}

    Tracing is off by default.  Every hook site is guarded by a single
    flag check — [if !Trace.on then ...] — and constructs nothing (no
    event, no strings, no closure) unless the flag is set, so a build
    with tracing compiled in but disabled runs the exact same
    instruction stream it would without the hooks (see DESIGN.md,
    "Tracing").  Guard counters and simulated cycle totals are byte
    identical either way: emitting an event never charges cycles.  When
    on, hook sites pass values they already hold (a {!cap}, a
    principal's description rendered once) and format no text; text is
    rendered on read, by {!pp_event} and {!Trace_profile}.

    {2 Layering}

    This library sits {e below} [kernel_sim] in the dependency order,
    so the cycle counters are defined here as {!cycles} and
    [Kernel_sim.Kcycles.t] re-exports that record: {!attach} takes the
    live counters themselves, and {!emit} reads its stamps straight
    from them.  The current principal comes from a provider callback
    that the LXFI runtime installs ([Lxfi.Runtime.attach_trace]).  The
    capability type of §3.2 is defined here too: [Lxfi.Capability.t]
    is {!cap}, whose one printer is {!pp_cap}.

    {2 Determinism}

    Events carry only simulated quantities (cycle stamps, simulated
    addresses, principal descriptions), so a trace of a fixed-seed
    workload is byte-identical across runs — the property the CI trace
    smoke step diffs for. *)

(** Guard hit types, mirroring the {!Lxfi.Stats} counters. *)
type guard =
  | Gentry  (** wrapper/function entry guard *)
  | Gexit
  | Gwrite  (** module store guard *)
  | Gindcall  (** module-side indirect-call guard *)
  | Gkindcall_checked  (** kernel indirect call, full capability check *)
  | Gkindcall_elided  (** kernel indirect call, writer-set fast path *)

let guard_name = function
  | Gentry -> "entry"
  | Gexit -> "exit"
  | Gwrite -> "write"
  | Gindcall -> "indcall"
  | Gkindcall_checked -> "kindcall-checked"
  | Gkindcall_elided -> "kindcall-elided"

let guard_count = 6
let guard_index = function
  | Gentry -> 0
  | Gexit -> 1
  | Gwrite -> 2
  | Gindcall -> 3
  | Gkindcall_checked -> 4
  | Gkindcall_elided -> 5

(** Wrapper direction: a kernel→module crossing is a kernel entry
    point (the unit the per-entry-point profile attributes to); a
    module→kernel crossing is an annotated kexport call. *)
type span = K2m | M2k

type cap =
  | Cwrite of { base : int; size : int }
  | Cref of { rtype : string; addr : int }
  | Ccall of { target : int }

let pp_cap ppf = function
  | Cwrite { base; size } -> Fmt.pf ppf "WRITE(0x%x,+%d)" base size
  | Cref { rtype; addr } -> Fmt.pf ppf "REF(%s,0x%x)" rtype addr
  | Ccall { target } -> Fmt.pf ppf "CALL(0x%x)" target

type cap_op =
  | Grant
  | Revoke
  | Dropped  (** grant suppressed by fault injection *)

let cap_op_name = function
  | Grant -> "grant"
  | Revoke -> "revoke"
  | Dropped -> "dropped"

type kind =
  | Guard of guard
  | Cap of cap_op * cap * string
      (** operation, capability, annotation context (e.g. "copy(post)") *)
  | Switch of string  (** principal switch; payload = new principal *)
  | Span_begin of span * string  (** wrapper entered *)
  | Span_end of span * string  (** wrapper left (including exception paths) *)
  | Violation of string * string  (** violation kind name, module *)
  | Quarantine of string * string  (** principal description, reason *)
  | Escalation of string * string  (** module, reason *)
  | Slab_alloc of int * int  (** address, size *)
  | Slab_free of int  (** address *)
  | Fault_injected of string  (** injection site name *)
  | Mod_call of string  (** intra-module function activation *)

type event = {
  ev_kernel : int;  (** cycle stamp, Kernel category *)
  ev_module : int;  (** cycle stamp, Module category *)
  ev_guard : int;  (** cycle stamp, Guard category *)
  ev_principal : string;  (** "(kernel)" when no module principal runs *)
  ev_kind : kind;
}

let ev_total e = e.ev_kernel + e.ev_module + e.ev_guard

(** The simulated cycle counters, one per category; [Kernel_sim.Kcycles.t]
    is this record. *)
type cycles = { mutable kernel : int; mutable module_ : int; mutable guard : int }

(* Ring storage: fixed blocks of at most [block_size] entries, held by
   column.  Each column array is at most 256 words, the minor heap's
   limit, and so is the block table of a ring of up to 65,536 events. *)
let block_bits = 8
let block_size = 1 lsl block_bits

type block = {
  b_kernel : int array;
  b_module : int array;
  b_guard : int array;
  b_principal : string array;
  b_kind : kind array;
}

type t = {
  capacity : int;
  blocks : block array;  (** [unused] until the ring first reaches a block *)
  mutable next : int;  (** next write slot *)
  mutable total : int;  (** events ever emitted *)
}

let default_capacity = 65_536

let unused =
  { b_kernel = [||]; b_module = [||]; b_guard = [||]; b_principal = [||]; b_kind = [||] }

let make ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.make: capacity <= 0";
  let blocks = Array.make (((capacity - 1) lsr block_bits) + 1) unused in
  { capacity; blocks; next = 0; total = 0 }

(* Block [b]'s storage: full-size, except that the last block holds
   only what the capacity leaves. *)
let add_block t b =
  let n = min block_size (t.capacity - (b lsl block_bits)) in
  let blk =
    {
      b_kernel = Array.make n 0;
      b_module = Array.make n 0;
      b_guard = Array.make n 0;
      b_principal = Array.make n "";
      b_kind = Array.make n (Guard Gentry);
    }
  in
  t.blocks.(b) <- blk;
  blk

(** The single flag every hook site checks.  Reading a [bool ref] is
    the whole disabled-path cost. *)
let on = ref false

let current : t option ref = ref None
let idle = { kernel = 0; module_ = 0; guard = 0 }
let cycles = ref idle
let principal : (unit -> string) ref = ref (fun () -> "(kernel)")

(** [attach buf ~cycles ~principal] makes [buf] the live trace sink and
    turns the flag on.  Events are stamped from the live counters
    [cycles]; [principal] describes the currently running principal. *)
let attach buf ~cycles:c ~principal:pr =
  current := Some buf;
  cycles := c;
  principal := pr;
  on := true

(** [detach ()] turns tracing off and forgets the providers.  The
    buffer keeps its events for aggregation. *)
let detach () =
  on := false;
  current := None;
  cycles := idle;
  principal := (fun () -> "(kernel)")

(** [attached ()] — the live sink, if any. *)
let attached () = !current

(** [emit kind] stores an event stamped with the current counters and
    principal; it allocates only when the ring reaches a block for the
    first time.  No-op when no buffer is attached; hook sites guard
    with [!on] anyway so the disabled path never reaches here. *)
let emit kind =
  match !current with
  | None -> ()
  | Some t ->
      let i = t.next in
      let b = i lsr block_bits and j = i land (block_size - 1) in
      let blk = t.blocks.(b) in
      let blk = if blk == unused then add_block t b else blk in
      let c = !cycles in
      blk.b_kernel.(j) <- c.kernel;
      blk.b_module.(j) <- c.module_;
      blk.b_guard.(j) <- c.guard;
      blk.b_principal.(j) <- !principal ();
      blk.b_kind.(j) <- kind;
      t.next <- (if i + 1 = t.capacity then 0 else i + 1);
      t.total <- t.total + 1

let total t = t.total
let dropped t = max 0 (t.total - t.capacity)
let capacity t = t.capacity

let clear t =
  t.next <- 0;
  t.total <- 0

(* The ring slot of the [i]th retained event, oldest first. *)
let slot t i =
  if t.total <= t.capacity then i
  else
    let s = t.next + i in
    if s >= t.capacity then s - t.capacity else s

(* The [i]th retained event, oldest first, as a record. *)
let nth t i =
  let s = slot t i in
  let blk = t.blocks.(s lsr block_bits) and j = s land (block_size - 1) in
  {
    ev_kernel = blk.b_kernel.(j);
    ev_module = blk.b_module.(j);
    ev_guard = blk.b_guard.(j);
    ev_principal = blk.b_principal.(j);
    ev_kind = blk.b_kind.(j);
  }

(* Read results start filled with this constant, which lives outside
   the minor heap: an [Array.make] or [Array.init] seeded with a young
   record forces a minor collection whenever the result is longer than
   256 entries. *)
let filler =
  { ev_kernel = 0; ev_module = 0; ev_guard = 0; ev_principal = ""; ev_kind = Guard Gentry }

(* Retained events [start] to [start + n - 1], oldest first. *)
let copy t start n =
  let a = Array.make n filler in
  for k = 0 to n - 1 do
    a.(k) <- nth t (start + k)
  done;
  a

(** [events t] — retained events, oldest first.  When the ring wrapped,
    these are the newest [capacity t] events. *)
let events t = copy t 0 (min t.total t.capacity)

(** [fold t init f] — [f] over the retained events, oldest first, each
    passed as its fields, read in place from the block columns. *)
let fold t init f =
  let n = min t.total t.capacity in
  let rec go i acc =
    if i = n then acc
    else
      let s = slot t i in
      let blk = t.blocks.(s lsr block_bits) and j = s land (block_size - 1) in
      go (i + 1)
        (f acc ~kernel:blk.b_kernel.(j) ~module_:blk.b_module.(j) ~guard:blk.b_guard.(j)
           ~principal:blk.b_principal.(j) blk.b_kind.(j))
  in
  go 0 init

(** [since_last t p] — the retained events from the newest one that
    satisfies [p] on, oldest first; every retained event when none
    does.  It scans back from the newest event and copies only the
    events it returns. *)
let since_last t p =
  let n = min t.total t.capacity in
  let rec back i = if i <= 0 || p (nth t i) then max i 0 else back (i - 1) in
  let start = back (n - 1) in
  copy t start (n - start)

let kind_label = function
  | Guard g -> "guard:" ^ guard_name g
  | Cap (op, cap, ctx) ->
      Fmt.str "cap-%s %a%s" (cap_op_name op) pp_cap cap
        (if ctx = "" then "" else " [" ^ ctx ^ "]")
  | Switch p -> "switch -> " ^ p
  | Span_begin (K2m, w) -> "enter " ^ w
  | Span_begin (M2k, w) -> "call " ^ w
  | Span_end (K2m, w) -> "leave " ^ w
  | Span_end (M2k, w) -> "ret " ^ w
  | Violation (k, m) -> Printf.sprintf "VIOLATION [%s] in %s" k m
  | Quarantine (p, r) -> Printf.sprintf "QUARANTINE %s (%s)" p r
  | Escalation (m, r) -> Printf.sprintf "ESCALATION %s (%s)" m r
  | Slab_alloc (addr, size) -> Printf.sprintf "slab-alloc 0x%x +%d" addr size
  | Slab_free addr -> Printf.sprintf "slab-free 0x%x" addr
  | Fault_injected site -> "FAULT-INJECTED " ^ site
  | Mod_call f -> "mcall " ^ f

let pp_event ppf e =
  Fmt.pf ppf "[%10d] %-28s %s" (ev_total e) e.ev_principal (kind_label e.ev_kind)
