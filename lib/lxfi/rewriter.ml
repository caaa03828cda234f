(** Compile-time module rewriting (§4.2) — the clang-plugin analogue.

    [instrument] transforms a MIR program so every dangerous operation
    is preceded by an explicit runtime guard:

    - every store gains a [Gwrite] guard on its (hoisted) address;
    - every indirect call gains a [Gindcall] guard on its (hoisted)
      target;
    - calls to imports are already routed through annotated wrappers by
      the loader, and function entry/exit hooks are enabled by the
      interpreter when running instrumented code.

    Two of the paper's optimizations are implemented, because the
    Figure 11 microbenchmark results depend on them:

    - {e trivial-function inlining}: single-[Return] leaf functions are
      inlined at direct call sites before guarding, eliminating their
      entry/exit guards (this is why lld is 11% under LXFI vs 93%
      under binary-rewriting XFI);
    - {e safe-store elision}: stores at constant offsets inside a
      function-local [Alloca] buffer, provably in bounds, need no
      write guard (this is why MD5 is ~2% vs 27%).  This is sound
      only while the variable really holds the buffer: the
      interpreter keeps every alloca buffer in the module stack (it
      refuses any size outside [0, stack_len]), and the rewriter elides
      a store only through a variable that the alloca is the sole
      binding of — no parameter, [Let] or second [Alloca] of that name
      anywhere in the function.

    Like the paper's rewriter (§7), this one refuses module code it
    cannot analyse: an indirect call buried in a subexpression makes
    [instrument] raise [Rewrite_error] — the module developer must
    hoist it (the paper reports changing 18 lines across 10 modules for
    the same reason). *)

open Mir.Ast

exception Rewrite_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Rewrite_error s)) fmt

type report = {
  r_orig_size : int;
  r_inst_size : int;  (** includes per-function entry/exit hook cost *)
  r_write_guards : int;
  r_write_elided : int;
  r_indcall_guards : int;
  r_inlined_calls : int;
  r_dropped_funcs : int;
}

let empty_report =
  {
    r_orig_size = 0;
    r_inst_size = 0;
    r_write_guards = 0;
    r_write_elided = 0;
    r_indcall_guards = 0;
    r_inlined_calls = 0;
    r_dropped_funcs = 0;
  }

(** {1 Trivial-function inlining} *)

(** A function is trivial when its body is a single [Return] of an
    expression with no calls, and each parameter occurs at most once
    (so substituting argument expressions cannot duplicate effects). *)
let rec expr_has_call = function
  | Const _ | Var _ | Glob _ | Funcaddr _ | Extaddr _ -> false
  | Load (_, e) -> expr_has_call e
  | Binop (_, _, a, b) -> expr_has_call a || expr_has_call b
  | Call _ -> true

let rec count_var name = function
  | Var x -> if x = name then 1 else 0
  | Const _ | Glob _ | Funcaddr _ | Extaddr _ -> 0
  | Load (_, e) -> count_var name e
  | Binop (_, _, a, b) -> count_var name a + count_var name b
  | Call (c, args) ->
      let n = match c with Indirect e -> count_var name e | _ -> 0 in
      List.fold_left (fun acc e -> acc + count_var name e) n args

let trivial_body f =
  match f.body with
  | [ Return e ] when (not (expr_has_call e)) && expr_size e <= 12
                      && List.for_all (fun p -> count_var p e <= 1) f.params ->
      Some e
  | _ -> None

let rec subst map = function
  | Var x as e -> ( match List.assoc_opt x map with Some r -> r | None -> e)
  | (Const _ | Glob _ | Funcaddr _ | Extaddr _) as e -> e
  | Load (w, e) -> Load (w, subst map e)
  | Binop (op, w, a, b) -> Binop (op, w, subst map a, subst map b)
  | Call (c, args) ->
      let c = match c with Indirect e -> Indirect (subst map e) | c -> c in
      Call (c, List.map (subst map) args)

(** One inlining pass over the whole program; [inlined] counts replaced
    call sites and [inlined_names] records which functions were
    substituted somewhere (only those may later be dropped — a module's
    entry points must survive even when their bodies are trivial). *)
let inline_pass prog inlined inlined_names =
  let candidates =
    List.filter_map
      (fun f -> match trivial_body f with Some e -> Some (f.fname, (f.params, e)) | None -> None)
      prog.funcs
  in
  if candidates = [] then prog
  else begin
    let rec rewrite_expr e =
      match e with
      | Call (Direct name, args) -> (
          let args = List.map rewrite_expr args in
          match List.assoc_opt name candidates with
          | Some (params, body) when List.length params = List.length args ->
              incr inlined;
              Hashtbl.replace inlined_names name ();
              subst (List.combine params args) body
          | _ -> Call (Direct name, args))
      | Call (c, args) ->
          let c = match c with Indirect t -> Indirect (rewrite_expr t) | c -> c in
          Call (c, List.map rewrite_expr args)
      | Load (w, e) -> Load (w, rewrite_expr e)
      | Binop (op, w, a, b) -> Binop (op, w, rewrite_expr a, rewrite_expr b)
      | (Const _ | Var _ | Glob _ | Funcaddr _ | Extaddr _) as e -> e
    in
    let rec rewrite_stmt = function
      | Let (x, e) -> Let (x, rewrite_expr e)
      | Alloca _ as s -> s
      | Store (w, a, v) -> Store (w, rewrite_expr a, rewrite_expr v)
      | If (c, t, e) -> If (rewrite_expr c, List.map rewrite_stmt t, List.map rewrite_stmt e)
      | While (c, b) -> While (rewrite_expr c, List.map rewrite_stmt b)
      | Expr e -> Expr (rewrite_expr e)
      | Return e -> Return (rewrite_expr e)
      | Guard _ as s -> s
    in
    { prog with funcs = List.map (fun f -> { f with body = List.map rewrite_stmt f.body }) prog.funcs }
  end

(** Is [fname]'s address taken anywhere (stored in globals or used as a
    [Funcaddr] expression)?  Address-taken functions must survive
    inlining. *)
let address_taken prog fname =
  let rec in_expr = function
    | Funcaddr f -> f = fname
    | Const _ | Var _ | Glob _ | Extaddr _ -> false
    | Load (_, e) -> in_expr e
    | Binop (_, _, a, b) -> in_expr a || in_expr b
    | Call (c, args) ->
        (match c with Indirect e -> in_expr e | _ -> false)
        || List.exists in_expr args
  in
  let rec in_stmt = function
    | Let (_, e) | Expr e | Return e -> in_expr e
    | Alloca _ | Guard _ -> false
    | Store (_, a, v) -> in_expr a || in_expr v
    | If (c, t, e) -> in_expr c || List.exists in_stmt t || List.exists in_stmt e
    | While (c, b) -> in_expr c || List.exists in_stmt b
  in
  List.exists
    (fun g -> List.exists (function Ifunc (_, f) -> f = fname | _ -> false) g.ginit)
    prog.globals
  || List.exists (fun f -> List.exists in_stmt f.body) prog.funcs

let called_directly prog fname =
  let rec in_expr = function
    | Call (Direct f, args) -> f = fname || List.exists in_expr args
    | Call (c, args) ->
        (match c with Indirect e -> in_expr e | _ -> false)
        || List.exists in_expr args
    | Load (_, e) -> in_expr e
    | Binop (_, _, a, b) -> in_expr a || in_expr b
    | Const _ | Var _ | Glob _ | Funcaddr _ | Extaddr _ -> false
  in
  let rec in_stmt = function
    | Let (_, e) | Expr e | Return e -> in_expr e
    | Alloca _ | Guard _ -> false
    | Store (_, a, v) -> in_expr a || in_expr v
    | If (c, t, e) -> in_expr c || List.exists in_stmt t || List.exists in_stmt e
    | While (c, b) -> in_expr c || List.exists in_stmt b
  in
  List.exists (fun f -> f.fname <> fname && List.exists in_stmt f.body) prog.funcs

(** {1 Safe-store analysis} *)

(** Temporaries the rewriter binds itself are named [tmp_prefix ^ n]. *)
let tmp_prefix = "__lxfi"

(** [stable_allocas f] maps a local of [f] to its alloca size when that
    one [Alloca] is the only binding of the name in [f]: not a
    parameter, bound by no [Let] (before or after the alloca, in any
    branch or loop) and by no second [Alloca], and not a name the
    rewriter may bind for a temporary.  Any other binding could leave a
    different address in the variable when a store through it runs. *)
let stable_allocas f =
  let binds = Hashtbl.create 8 in
  List.iter (fun x -> Hashtbl.add binds x None) f.params;
  let rec scan = function
    | Alloca (x, n) -> Hashtbl.add binds x (Some n)
    | Let (x, _) -> Hashtbl.add binds x None
    | If (_, t, e) ->
        List.iter scan t;
        List.iter scan e
    | While (_, b) -> List.iter scan b
    | Store _ | Expr _ | Return _ | Guard _ -> ()
  in
  List.iter scan f.body;
  fun x ->
    match Hashtbl.find_all binds x with
    | [ Some n ] when not (String.starts_with ~prefix:tmp_prefix x) -> Some n
    | _ -> None

(** A store address provably inside a stable alloca: [buf] or
    [buf + const] with the access in bounds. *)
let safe_store alloca_size w addr_expr =
  let width = bytes_of_width w in
  let check buf off =
    match alloca_size buf with Some n -> off >= 0 && off + width <= n | None -> false
  in
  match addr_expr with
  | Var buf -> check buf 0
  | Binop (Add, _, Var buf, Const k) -> check buf (Int64.to_int k)
  | Binop (Add, _, Const k, Var buf) -> check buf (Int64.to_int k)
  | _ -> false

(** {1 Guard insertion} *)

type counters = {
  mutable wguards : int;
  mutable welided : int;
  mutable iguards : int;
  mutable tmp : int;
}

let fresh c =
  c.tmp <- c.tmp + 1;
  tmp_prefix ^ string_of_int c.tmp

(** Expressions may not contain indirect calls (they must be hoisted to
    statement position so the guard can precede them). *)
let rec reject_nested_indcall fname = function
  | Call (Indirect _, _) ->
      fail "function %s: indirect call in subexpression; hoist it to a statement" fname
  | Call (_, args) -> List.iter (reject_nested_indcall fname) args
  | Load (_, e) -> reject_nested_indcall fname e
  | Binop (_, _, a, b) ->
      reject_nested_indcall fname a;
      reject_nested_indcall fname b
  | Const _ | Var _ | Glob _ | Funcaddr _ | Extaddr _ -> ()

let check_args_only fname args = List.iter (reject_nested_indcall fname) args

let instrument_func (cfg : Config.t) counters f =
  let alloca_size = stable_allocas f in
  let rec stmts l = List.concat_map stmt l
  and guard_indirect_call mk te args =
    check_args_only f.fname args;
    let t = fresh counters in
    counters.iguards <- counters.iguards + 1;
    [ Let (t, te); Guard (Gindcall (Var t)); mk (Call (Indirect (Var t), args)) ]
  and stmt s =
    match s with
    | Let (x, Call (Indirect te, args)) ->
        reject_nested_indcall f.fname te;
        guard_indirect_call (fun call -> Let (x, call)) te args
    | Expr (Call (Indirect te, args)) ->
        reject_nested_indcall f.fname te;
        guard_indirect_call (fun call -> Expr call) te args
    | Return (Call (Indirect te, args)) ->
        reject_nested_indcall f.fname te;
        guard_indirect_call (fun call -> Return call) te args
    | Let (_, e) as s ->
        reject_nested_indcall f.fname e;
        [ s ]
    | Alloca _ as s -> [ s ]
    | Store (w, ea, ev) ->
        reject_nested_indcall f.fname ea;
        reject_nested_indcall f.fname ev;
        if cfg.Config.opt_elide_safe_writes && safe_store alloca_size w ea then begin
          counters.welided <- counters.welided + 1;
          [ Store (w, ea, ev) ]
        end
        else begin
          counters.wguards <- counters.wguards + 1;
          let t = fresh counters in
          [ Let (t, ea); Guard (Gwrite (w, Var t)); Store (w, Var t, ev) ]
        end
    | If (c, th, el) ->
        reject_nested_indcall f.fname c;
        [ If (c, stmts th, stmts el) ]
    | While (c, b) ->
        reject_nested_indcall f.fname c;
        [ While (c, stmts b) ]
    | Expr e ->
        reject_nested_indcall f.fname e;
        [ Expr e ]
    | Return e ->
        reject_nested_indcall f.fname e;
        [ Return e ]
    | Guard _ -> fail "function %s: already instrumented" f.fname
  in
  { f with body = stmts f.body }

(** [instrument cfg prog] — full pipeline: inline (optional), insert
    guards, drop dead inlined leaves.  Returns the instrumented program
    and a report.  For [Config.Stock] the program is returned
    unchanged. *)
let inline_program prog inlined =
  let inlined_names = Hashtbl.create 8 in
  let rec fixpoint p n =
    let before = !inlined in
    let p' = inline_pass p inlined inlined_names in
    if !inlined = before || n = 0 then p' else fixpoint p' (n - 1)
  in
  let p = fixpoint prog 4 in
  (* Drop only leaves that were actually inlined away and are no longer
     referenced; entry points keep their definitions. *)
  let keep f =
    (not (Hashtbl.mem inlined_names f.fname))
    || f.export <> None || address_taken p f.fname || called_directly p f.fname
  in
  { p with funcs = List.filter keep p.funcs }

let instrument (cfg : Config.t) prog : prog * report =
  let orig = prog_size prog in
  if cfg.Config.mode = Config.Stock then begin
    (* The stock baseline still gets the ordinary compiler optimization
       (gcc inlines trivial functions with or without LXFI); only the
       guards and hooks are LXFI's. *)
    let inlined = ref 0 in
    let prog =
      if cfg.Config.opt_inline_trivial then inline_program prog inlined else prog
    in
    ( prog,
      {
        empty_report with
        r_orig_size = orig;
        r_inst_size = prog_size prog;
        r_inlined_calls = !inlined;
      } )
  end
  else begin
    let n_before = List.length prog.funcs in
    let inlined = ref 0 in
    let prog =
      if cfg.Config.opt_inline_trivial then inline_program prog inlined else prog
    in
    let counters = { wguards = 0; welided = 0; iguards = 0; tmp = 0 } in
    let funcs = List.map (instrument_func cfg counters) prog.funcs in
    let prog = { prog with funcs } in
    (* Entry/exit hooks cost 2 IR nodes per remaining function. *)
    let inst = prog_size prog + (2 * List.length funcs) in
    ( prog,
      {
        r_orig_size = orig;
        r_inst_size = inst;
        r_write_guards = counters.wguards;
        r_write_elided = counters.welided;
        r_indcall_guards = counters.iguards;
        r_inlined_calls = !inlined;
        r_dropped_funcs = max 0 (n_before - List.length funcs);
      } )
  end

let pp_report ppf r =
  Fmt.pf ppf
    "size %d -> %d (%.2fx); write guards %d (+%d elided); indcall guards %d; inlined %d"
    r.r_orig_size r.r_inst_size
    (float_of_int r.r_inst_size /. float_of_int (max 1 r.r_orig_size))
    r.r_write_guards r.r_write_elided r.r_indcall_guards r.r_inlined_calls
