(** MIR interpreter — executes module code against the simulated kernel
    address space.

    The interpreter is the "CPU" on which module text runs.  Its
    security-relevant behaviour is deliberately minimal:

    - stores go straight to {!Kernel_sim.Kmem} (no protection);
    - explicit [Guard] statements (inserted by the LXFI rewriter) invoke
      the [guard_write]/[guard_indcall] callbacks, which the LXFI
      runtime points at its checkers — in stock mode no guards exist;
    - calls to imported functions are dispatched through [call_ext]
      (LXFI routes these to annotated wrappers; stock calls raw
      implementations);
    - the [on_entry]/[on_exit] hooks fire around every function
      activation when [hooks_enabled] (shadow-stack/accounting guards
      of §4.2/§5);
    - an [Alloca] never moves the stack pointer outside the module
      stack, so the buffer it returns really is module stack.  The
      rewriter's safe-store elision relies on this, and on its own
      check that the variable holding the buffer is bound by nothing
      else in the function.

    Returns inside the interpreter use OCaml's own stack, so return-
    address integrity is structural here; the shadow stack still
    enforces the boundary-crossing discipline at wrappers, and the
    entry/exit hook cost is what Figure 13's "function entry/exit"
    guards measure.

    Each function is compiled once, on its first activation, into OCaml
    closures: one closure per AST node, [frame -> int64] for an
    expression and [frame -> unit] for a statement.  Everything static
    is resolved while compiling: locals to frame slots, global,
    function and import names to addresses, and load/store widths.  A
    binop node calls {!eval_binop}, and a call looks its callee up by
    name when it runs.  Compilation is structural, so every node still
    costs exactly one step, taken in the order a direct AST interpreter
    would take it.

    Step accounting is a single counter: a step decrements [fuel] and
    compares it with zero, nothing else.  The module cycles not yet
    charged to {!Kcycles} are [mark - fuel], where [mark] is the fuel
    left at the last flush, and the step count is the steps flushed so
    far plus that same difference.  Flushes happen at every observable
    boundary — external calls, guard callbacks, entry/exit hooks, fuel
    exhaustion, and interpreter exit — so any code that can observe the
    cycle clock (wrappers, guards, the quarantine policy's escalation
    window) sees exactly the value per-step charging would have
    produced. *)

open Kernel_sim
open Ast

exception Return_value of int64

exception Fuel_exhausted of string
(** Raised (module name) instead of [Kstate.Oops] when [watchdog] is
    set: the enclosing kernel→module wrapper owns the budget and turns
    exhaustion into a graceful quarantine instead of a crash. *)

let default_fuel = 50_000_000

(** An activation frame: locals live in [slots]; [bound] distinguishes
    a never-assigned local (access is an oops) from a zero one. *)
type frame = { slots : int64 array; bound : bool array }

(** A function compiled to closures. *)
type fn = {
  fn_params : int array;  (** frame slot of each positional parameter *)
  fn_nslots : int;
  fn_body : frame -> unit;
}

type engine = {
  mutable fuel : int;  (** the only counter a step touches *)
  mutable mark : int;  (** [fuel] at the last flush *)
  mutable flushed : int;  (** steps charged by earlier flushes *)
  fns : (string, fn) Hashtbl.t;  (** compile cache, filled lazily *)
  mutable by_addr : (int, string) Hashtbl.t option;
      (** text address -> function name, built on first indirect
          intra-module call *)
}

type ctx = {
  kst : Kstate.t;
  prog : prog;
  global_addr : string -> int;  (** module global name -> address *)
  func_addr : string -> int;  (** module function name -> text address *)
  ext_addr : string -> int;  (** import name -> callable address *)
  call_ext : int -> int64 list -> int64;
      (** dispatch a call to an external (kernel) address *)
  guard_write : addr:int -> size:int -> unit;
  guard_indcall : target:int -> unit;
  on_entry : string -> unit;
  on_exit : string -> unit;
  hooks_enabled : bool;
  stack_base : int;
  stack_len : int;
  mutable stack_ptr : int;
  mutable watchdog : bool;
      (** when set, fuel exhaustion raises [Fuel_exhausted] for the
          runtime to convert into a watchdog violation; otherwise it is
          a plain soft-lockup oops *)
  mutable cur_fn : string;  (** innermost executing function, for fault reports *)
  eng : engine;
}

let create ~kst ~prog ~global_addr ~func_addr ~ext_addr ~call_ext ~guard_write
    ~guard_indcall ~on_entry ~on_exit ~hooks_enabled ~stack_base ~stack_len =
  {
    kst;
    prog;
    global_addr;
    func_addr;
    ext_addr;
    call_ext;
    guard_write;
    guard_indcall;
    on_entry;
    on_exit;
    hooks_enabled;
    stack_base;
    stack_len;
    stack_ptr = stack_base;
    watchdog = false;
    cur_fn = "";
    eng =
      {
        fuel = default_fuel;
        mark = default_fuel;
        flushed = 0;
        fns = Hashtbl.create 16;
        by_addr = None;
      };
  }

let steps ctx = ctx.eng.flushed + (ctx.eng.mark - ctx.eng.fuel)

(** [flush_cycles ctx] charges the batched module cycles to the global
    clock.  Called automatically at every boundary where other code can
    observe {!Kcycles} (external calls, guards, hooks, interpreter
    exit); callers outside the interpreter never need it. *)
let flush_cycles ctx =
  let eng = ctx.eng in
  let pending = eng.mark - eng.fuel in
  if pending > 0 then begin
    Kcycles.charge ctx.kst.Kstate.cycles Kcycles.Module pending;
    eng.flushed <- eng.flushed + pending;
    eng.mark <- eng.fuel
  end

(** [refuel ctx] resets the runaway-loop budget (long benchmarks);
    cycles still pending stay pending. *)
let refuel ?(fuel = default_fuel) ctx =
  let eng = ctx.eng in
  eng.mark <- fuel + (eng.mark - eng.fuel);
  eng.fuel <- fuel

let[@inline never] exhausted ctx =
  flush_cycles ctx;
  if ctx.watchdog then raise (Fuel_exhausted ctx.prog.pname)
  else raise (Kstate.Oops (Printf.sprintf "soft lockup in module %s" ctx.prog.pname))

(* One step: the whole per-node cost of the accounting. *)
let[@inline] tick ctx =
  let eng = ctx.eng in
  eng.fuel <- eng.fuel - 1;
  if eng.fuel <= 0 then exhausted ctx

let truncate w v =
  match w with
  | W64 -> v
  | W32 -> Int64.logand v 0xffff_ffffL
  | W16 -> Int64.logand v 0xffffL
  | W8 -> Int64.logand v 0xffL

let bits_of_width = function W8 -> 8 | W16 -> 16 | W32 -> 32 | W64 -> 64

(** Reinterpret the low [w] bits of [v] as a signed value (narrow
    values circulate zero-extended; signed compares must not). *)
let sign_extend w v =
  match w with
  | W64 -> v
  | _ ->
      let sh = 64 - bits_of_width w in
      Int64.shift_right (Int64.shift_left v sh) sh

let bool_ b = if b then 1L else 0L
let divide_error () = raise (Kstate.Oops "divide error")

let eval_binop op w a b =
  (* Shift amounts wrap at the operation width, as on x86; signed
     compares sign-extend both operands to the width first. *)
  match op with
  | Add -> truncate w (Int64.add a b)
  | Sub -> truncate w (Int64.sub a b)
  | Mul -> truncate w (Int64.mul a b)
  | Udiv -> if b = 0L then divide_error () else truncate w (Int64.unsigned_div a b)
  | Urem -> if b = 0L then divide_error () else truncate w (Int64.unsigned_rem a b)
  | Band -> truncate w (Int64.logand a b)
  | Bor -> truncate w (Int64.logor a b)
  | Bxor -> truncate w (Int64.logxor a b)
  | Shl -> truncate w (Int64.shift_left a (Int64.to_int b land (bits_of_width w - 1)))
  | Lshr ->
      truncate w
        (Int64.shift_right_logical (truncate w a) (Int64.to_int b land (bits_of_width w - 1)))
  | Eq -> bool_ (Int64.equal a b)
  | Ne -> bool_ (not (Int64.equal a b))
  | Lt -> bool_ (Int64.compare (sign_extend w a) (sign_extend w b) < 0)
  | Le -> bool_ (Int64.compare (sign_extend w a) (sign_extend w b) <= 0)
  | Gt -> bool_ (Int64.compare (sign_extend w a) (sign_extend w b) > 0)
  | Ge -> bool_ (Int64.compare (sign_extend w a) (sign_extend w b) >= 0)
  | Ult -> bool_ (Int64.unsigned_compare a b < 0)

(* ------------------------------------------------------------------ *)
(* Compilation: AST -> closures, once per function.                    *)

type slotmap = { stbl : (string, int) Hashtbl.t; mutable snext : int }

let slot_of sm name =
  match Hashtbl.find_opt sm.stbl name with
  | Some i -> i
  | None ->
      let i = sm.snext in
      sm.snext <- i + 1;
      Hashtbl.replace sm.stbl name i;
      i

let oops ctx fmt =
  Printf.ksprintf (fun m -> raise (Kstate.Oops m)) ("module %s: " ^^ fmt) ctx.prog.pname

let unbound ctx name = oops ctx "unbound local %s" name
let stack_overflow ctx = oops ctx "stack overflow"

(** Text address -> function name.  First-match-wins, as a scan of
    [prog.funcs] would be. *)
let addr_index ctx =
  match ctx.eng.by_addr with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 16 in
      List.iter
        (fun (f : func) ->
          let a = ctx.func_addr f.fname in
          if not (Hashtbl.mem t a) then Hashtbl.replace t a f.fname)
        ctx.prog.funcs;
      ctx.eng.by_addr <- Some t;
      t

(* Frame teardown is unconditional — including the exception path,
   where a quarantined fault must not leak the faulting frame's alloca
   space (repeated -EFAULT containment would otherwise manufacture a
   spurious stack overflow). *)
let leave ctx name prev_fn saved_sp =
  ctx.cur_fn <- prev_fn;
  ctx.stack_ptr <- saved_sp;
  if ctx.hooks_enabled then begin
    flush_cycles ctx;
    ctx.on_exit name
  end

(* Arguments evaluate left to right, as the AST lists them. *)
let arg_array args fr =
  let n = Array.length args in
  let vs = Array.make n 0L in
  for i = 0 to n - 1 do
    vs.(i) <- args.(i) fr
  done;
  vs

let rec expr ctx sm (e : Ast.expr) : frame -> int64 =
  match e with
  | Const n -> fun _ -> tick ctx; n
  | Var name ->
      let i = slot_of sm name in
      fun fr -> tick ctx; if fr.bound.(i) then fr.slots.(i) else unbound ctx name
  | Glob name -> address ctx ctx.global_addr name
  | Funcaddr name -> address ctx ctx.func_addr name
  | Extaddr name -> address ctx ctx.ext_addr name
  | Load (w, a) ->
      let a = expr ctx sm a in
      let mem = ctx.kst.Kstate.mem and size = bytes_of_width w in
      fun fr -> tick ctx; Kmem.read mem ~addr:(Int64.to_int (a fr)) ~size
  | Binop (op, w, a, b) ->
      let a = expr ctx sm a in
      let b = expr ctx sm b in
      fun fr ->
        tick ctx;
        let x = a fr in
        let y = b fr in
        eval_binop op w x y
  | Call (target, args) -> (
      let args = Array.of_list (List.map (expr ctx sm) args) in
      match target with
      | Direct name ->
          fun fr ->
            tick ctx;
            invoke ctx name (arg_array args fr)
      | Ext name -> (
          match ctx.ext_addr name with
          | addr ->
              fun fr ->
                tick ctx;
                let vs = arg_array args fr in
                flush_cycles ctx;
                ctx.call_ext addr (Array.to_list vs)
          | exception exn ->
              fun fr ->
                tick ctx;
                ignore (arg_array args fr);
                raise exn)
      | Indirect t ->
          (* The rewriter places a Gindcall guard immediately before any
             indirect call; by the time we get here the target is
             approved (or we are running unguarded stock/xfi code). *)
          let t = expr ctx sm t in
          fun fr ->
            tick ctx;
            let target = Int64.to_int (t fr) in
            call_address ctx target (arg_array args fr))

(* A name that does not resolve still costs its step, then raises. *)
and address ctx resolve name =
  match resolve name with
  | a ->
      let a = Int64.of_int a in
      fun _ -> tick ctx; a
  | exception exn -> fun _ -> tick ctx; raise exn

and call_address ctx target vs =
  (* Intra-module function addresses run in the interpreter; everything
     else goes out through the external dispatcher. *)
  match Hashtbl.find_opt (addr_index ctx) target with
  | Some name -> invoke ctx name vs
  | None ->
      flush_cycles ctx;
      ctx.call_ext target (Array.to_list vs)

(** Call module function [name]: look it up (compiling it on its first
    activation), check the arity, and run it. *)
and invoke ctx name vs =
  let f =
    match Hashtbl.find_opt ctx.eng.fns name with
    | Some f -> f
    | None -> (
        match find_func ctx.prog name with
        | None -> oops ctx "no function %s" name
        | Some fd ->
            let f = compile ctx fd in
            Hashtbl.replace ctx.eng.fns name f;
            f)
  in
  let nparams = Array.length f.fn_params in
  let nargs = Array.length vs in
  if nparams <> nargs then oops ctx "%s arity mismatch (%d args, want %d)" name nargs nparams;
  enter ctx name f vs

and enter ctx name f vs =
  let fr = { slots = Array.make f.fn_nslots 0L; bound = Array.make f.fn_nslots false } in
  for i = 0 to Array.length vs - 1 do
    let s = f.fn_params.(i) in
    fr.slots.(s) <- vs.(i);
    fr.bound.(s) <- true
  done;
  let saved_sp = ctx.stack_ptr in
  if ctx.hooks_enabled then begin
    flush_cycles ctx;
    ctx.on_entry name
  end;
  if !Trace.on then begin
    flush_cycles ctx;
    Trace.emit (Trace.Mod_call name)
  end;
  let prev_fn = ctx.cur_fn in
  ctx.cur_fn <- name;
  match f.fn_body fr with
  | () ->
      leave ctx name prev_fn saved_sp;
      0L
  | exception Return_value v ->
      leave ctx name prev_fn saved_sp;
      v
  | exception e ->
      leave ctx name prev_fn saved_sp;
      raise e

and stmt ctx sm (s : Ast.stmt) : frame -> unit =
  match s with
  | Let (name, e) ->
      let e = expr ctx sm e in
      let i = slot_of sm name in
      fun fr ->
        tick ctx;
        let v = e fr in
        fr.slots.(i) <- v;
        fr.bound.(i) <- true
  | Alloca (name, n) ->
      let i = slot_of sm name in
      (* A size outside [0, stack_len] could only move the stack pointer
         out of the module stack (or wrap the rounding below), so it is
         refused before any stack arithmetic. *)
      if n < 0 || n > ctx.stack_len then fun _ -> tick ctx; stack_overflow ctx
      else
        let aligned = (n + 15) land lnot 15 in
        let top = ctx.stack_base + ctx.stack_len in
        fun fr ->
          tick ctx;
          let addr = ctx.stack_ptr in
          if addr + aligned > top then stack_overflow ctx;
          ctx.stack_ptr <- addr + aligned;
          fr.slots.(i) <- Int64.of_int addr;
          fr.bound.(i) <- true
  | Store (w, a, v) ->
      let a = expr ctx sm a in
      let v = expr ctx sm v in
      let mem = ctx.kst.Kstate.mem and size = bytes_of_width w in
      fun fr ->
        tick ctx;
        let addr = Int64.to_int (a fr) in
        Kmem.write mem ~addr ~size (v fr)
  | If (c, t, e) ->
      let c = expr ctx sm c in
      let t = block ctx sm t in
      let e = block ctx sm e in
      fun fr -> tick ctx; if c fr <> 0L then t fr else e fr
  | While (c, b) ->
      let c = expr ctx sm c in
      let b = block ctx sm b in
      fun fr ->
        tick ctx;
        while c fr <> 0L do
          b fr
        done
  | Expr e ->
      let e = expr ctx sm e in
      fun fr -> tick ctx; ignore (e fr)
  | Return e ->
      let e = expr ctx sm e in
      fun fr -> tick ctx; raise (Return_value (e fr))
  | Guard (Gwrite (w, a)) ->
      let a = expr ctx sm a and size = bytes_of_width w in
      fun fr ->
        tick ctx;
        let addr = Int64.to_int (a fr) in
        flush_cycles ctx;
        ctx.guard_write ~addr ~size
  | Guard (Gindcall a) ->
      let a = expr ctx sm a in
      fun fr ->
        tick ctx;
        let target = Int64.to_int (a fr) in
        flush_cycles ctx;
        ctx.guard_indcall ~target

and block ctx sm stmts =
  match Array.of_list (List.map (stmt ctx sm) stmts) with
  | [||] -> fun _ -> ()
  | [| s |] -> s
  | ss ->
      fun fr ->
        for i = 0 to Array.length ss - 1 do
          ss.(i) fr
        done

and compile ctx (f : func) =
  let sm = { stbl = Hashtbl.create 16; snext = 0 } in
  let fn_params = Array.of_list (List.map (slot_of sm) f.params) in
  let fn_body = block ctx sm f.body in
  { fn_params; fn_nslots = sm.snext; fn_body }

(** [run ctx fname args] invokes module function [fname]. *)
let run ctx fname args =
  match invoke ctx fname (Array.of_list args) with
  | r ->
      flush_cycles ctx;
      r
  | exception e ->
      flush_cycles ctx;
      raise e
