(** MIR interpreter — the "CPU" module text runs on.

    Stores go straight to simulated memory; [Guard] statements invoke
    the [guard_write]/[guard_indcall] callbacks (wired to the LXFI
    runtime by the loader; absent in stock code); calls to imports
    dispatch through [call_ext]; the entry/exit hooks fire around every
    function activation when [hooks_enabled].  Each evaluated IR node
    is one step and charges one [Kcycles.Module] cycle; the charges are
    batched and flush to the global clock at every observable boundary
    (external calls, guards, hooks, fuel exhaustion, interpreter exit).

    Functions are compiled once, on first activation, into closures
    with names, addresses, frame slots and widths resolved;
    compilation is structural, so step counts and cycle totals match
    direct AST interpretation exactly.  An [Alloca] whose size lies
    outside [\[0, stack_len\]] is a stack-overflow oops, so an alloca
    buffer always lies in the module stack. *)

open Kernel_sim

type engine
(** Compile cache and step accounting. *)

type ctx = {
  kst : Kstate.t;
  prog : Ast.prog;
  global_addr : string -> int;
  func_addr : string -> int;
  ext_addr : string -> int;
  call_ext : int -> int64 list -> int64;
  guard_write : addr:int -> size:int -> unit;
  guard_indcall : target:int -> unit;
  on_entry : string -> unit;
  on_exit : string -> unit;
  hooks_enabled : bool;
  stack_base : int;
  stack_len : int;
  mutable stack_ptr : int;
  mutable watchdog : bool;
      (** raise {!Fuel_exhausted} instead of an Oops on exhaustion (set
          by the LXFI runtime when an entry watchdog budget is active) *)
  mutable cur_fn : string;
      (** innermost executing function ("" outside any activation);
          violation reports use it as the fault location *)
  eng : engine;
}

exception Fuel_exhausted of string
(** Fuel ran out under [watchdog] mode; carries the module name.  The
    kernel→module wrapper converts this into a watchdog violation. *)

val default_fuel : int

val create :
  kst:Kstate.t ->
  prog:Ast.prog ->
  global_addr:(string -> int) ->
  func_addr:(string -> int) ->
  ext_addr:(string -> int) ->
  call_ext:(int -> int64 list -> int64) ->
  guard_write:(addr:int -> size:int -> unit) ->
  guard_indcall:(target:int -> unit) ->
  on_entry:(string -> unit) ->
  on_exit:(string -> unit) ->
  hooks_enabled:bool ->
  stack_base:int ->
  stack_len:int ->
  ctx

val steps : ctx -> int
(** Steps executed since [create] (fault locations report it). *)

val truncate : Ast.width -> int64 -> int64
(** Mask a value to a width (arithmetic wraps at the declared width —
    how the CAN BCM overflow is expressed). *)

val eval_binop : Ast.binop -> Ast.width -> int64 -> int64 -> int64
(** Binop semantics; every binop node calls it.  Division by zero is a
    [Kstate.Oops].  Signed compares sign-extend narrow operands; shift
    amounts wrap at the operation width. *)

val flush_cycles : ctx -> unit
(** Charge the batched module cycles to the global clock.  The
    interpreter calls this at every boundary where other code can
    observe {!Kcycles}; external callers only need it if they read the
    cycle clock mid-execution from outside a guard/hook/wrapper. *)

val run : ctx -> string -> int64 list -> int64
(** Invoke a module function by name.  Module bugs surface as
    [Kmem.Fault] / [Kstate.Oops]; guard callbacks may raise LXFI
    violations.  Pending cycles are flushed on both normal and
    exceptional exit. *)

val refuel : ?fuel:int -> ctx -> unit
(** Reset the runaway-loop budget (long benchmarks).  Cycles pending at
    the call stay pending. *)
