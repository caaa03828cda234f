(** Bounded ring-buffer event tracing for the simulated kernel.

    An ftrace-style observability layer: hook points in the runtime,
    the MIR interpreter, the quarantine policy, the slab allocator and
    the fault injector emit typed events, each stamped with the
    simulated cycle clock (split by {!Kcycles} category) and the
    current principal.  The buffer is a bounded ring that keeps the
    {e newest} events; it starts small and doubles as events arrive,
    up to its capacity, so a short run never pays for a large bound.
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
    so it cannot read the cycle clock or the current principal itself.
    Both are supplied as provider callbacks by {!attach} — the LXFI
    runtime installs providers that read its own state
    ([Lxfi.Runtime.attach_trace]).  So is the capability type of §3.2:
    [Lxfi.Capability.t] is {!cap}, whose one printer is {!pp_cap}.

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

type t = {
  capacity : int;
  mutable ring : event array;  (** doubles on demand up to [capacity] *)
  mutable next : int;  (** next write slot *)
  mutable total : int;  (** events ever emitted *)
}

let default_capacity = 65_536

let dummy =
  { ev_kernel = 0; ev_module = 0; ev_guard = 0; ev_principal = ""; ev_kind = Guard Gentry }

let make ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.make: capacity <= 0";
  { capacity; ring = Array.make (min capacity 256) dummy; next = 0; total = 0 }

(** The single flag every hook site checks.  Reading a [bool ref] is
    the whole disabled-path cost. *)
let on = ref false

let current : t option ref = ref None
let clock : (unit -> int * int * int) ref = ref (fun () -> (0, 0, 0))
let principal : (unit -> string) ref = ref (fun () -> "(kernel)")

(** [attach buf ~clock ~principal] makes [buf] the live trace sink and
    turns the flag on.  [clock] returns the (kernel, module, guard)
    cycle totals; [principal] describes the currently running
    principal. *)
let attach buf ~clock:ck ~principal:pr =
  current := Some buf;
  clock := ck;
  principal := pr;
  on := true

(** [detach ()] turns tracing off and forgets the providers.  The
    buffer keeps its events for aggregation. *)
let detach () =
  on := false;
  current := None;
  clock := (fun () -> (0, 0, 0));
  principal := (fun () -> "(kernel)")

(** [attached ()] — the live sink, if any. *)
let attached () = !current

(** [emit kind] appends an event stamped with the current clock and
    principal.  No-op when no buffer is attached; hook sites guard with
    [!on] anyway so the disabled path never reaches here. *)
let emit kind =
  match !current with
  | None -> ()
  | Some t ->
      let k, m, g = !clock () in
      (* [next] reaches the array's end only while it is below
         [capacity]; at [capacity] it wraps to 0 instead. *)
      if t.next = Array.length t.ring then
        t.ring <- Array.append t.ring (Array.make (min t.next (t.capacity - t.next)) dummy);
      t.ring.(t.next) <-
        { ev_kernel = k; ev_module = m; ev_guard = g; ev_principal = !principal (); ev_kind = kind };
      t.next <- (t.next + 1) mod t.capacity;
      t.total <- t.total + 1

let total t = t.total
let dropped t = max 0 (t.total - t.capacity)
let capacity t = t.capacity

let clear t =
  t.next <- 0;
  t.total <- 0

(* The [i]th retained event, oldest first. *)
let nth t i = if t.total <= t.capacity then t.ring.(i) else t.ring.((t.next + i) mod t.capacity)

(** [events t] — retained events, oldest first.  When the ring wrapped,
    these are the newest [capacity t] events. *)
let events t =
  let n = min t.total t.capacity in
  if t.total <= t.capacity then Array.sub t.ring 0 n else Array.init n (nth t)

(** [since_last t p] — the retained events from the newest one that
    satisfies [p] on, oldest first; every retained event when none
    does.  It scans back from the newest event and copies only the
    events it returns. *)
let since_last t p =
  let n = min t.total t.capacity in
  let rec back i = if i <= 0 || p (nth t i) then max i 0 else back (i - 1) in
  let start = back (n - 1) in
  Array.init (n - start) (fun j -> nth t (start + j))

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
