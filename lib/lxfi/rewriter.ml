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
    expression of at most 12 nodes with no calls, and each parameter
    occurs at most once (so substituting argument expressions cannot
    duplicate effects). *)
let trivial_body f =
  match f.body with
  | [ Return e ] ->
      let nodes = fold_expr (fun acc x -> x :: acc) [] e in
      let uses p = List.length (List.filter (fun x -> x = Var p) nodes) in
      if List.length nodes <= 12
         && (not (List.exists (function Call _ -> true | _ -> false) nodes))
         && List.for_all (fun p -> uses p <= 1) f.params
      then Some e
      else None
  | _ -> None

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
    let inline = function
      | Call (Direct name, args) as e -> (
          match List.assoc_opt name candidates with
          | Some (params, body) when List.length params = List.length args ->
              incr inlined;
              Hashtbl.replace inlined_names name ();
              let actuals = List.combine params args in
              map_expr
                (function Var x as v -> Option.value (List.assoc_opt x actuals) ~default:v | e -> e)
                body
          | _ -> e)
      | e -> e
    in
    let inline_func f = { f with body = List.map (map_stmt inline) f.body } in
    { prog with funcs = List.map inline_func prog.funcs }
  end

(** Functions [prog] still refers to: by address (a global initialiser
    or a [Funcaddr] expression) or by a direct call from another
    function.  Inlined leaves outside this list are dead. *)
let referenced prog =
  List.fold_left
    (fun acc f ->
      fold_stmts
        (fun acc -> function
          | Funcaddr g -> g :: acc
          | Call (Direct g, _) when g <> f.fname -> g :: acc
          | _ -> acc)
        acc f.body)
    (List.concat_map
       (fun g ->
         List.filter_map (function Ifunc (_, f) -> Some f | Iword _ | Iext _ -> None) g.ginit)
       prog.globals)
    prog.funcs

(** {1 Safe-store analysis} *)

(** Temporaries the rewriter binds itself are named [tmp_prefix ^ n]. *)
let tmp_prefix = "__lxfi"

(** [stable_allocas f] maps a local of [f] to its alloca size when that
    one [Alloca] is the only binding of the name in [f]: not a
    parameter, bound by no [Let] (before or after the alloca, in any
    branch or loop) and by no second [Alloca], and not a name the
    rewriter may bind for a temporary.  Any other binding could leave a
    different address in the variable when a store through it runs.
    Only the allocas' names are counted, by a walk each. *)
let stable_allocas f =
  (* [g] over every binder of the body, in order: [Some n] for an
     alloca of [n] bytes, [None] for a [Let] *)
  let rec binders g acc l =
    List.fold_left
      (fun acc -> function
        | Alloca (x, n) -> g acc x (Some n)
        | Let (x, _) -> g acc x None
        | If (_, t, e) -> binders g (binders g acc t) e
        | While (_, b) -> binders g acc b
        | Store _ | Expr _ | Return _ | Guard _ -> acc)
      acc l
  in
  let allocas = binders (fun acc x -> function Some n -> (x, n) :: acc | None -> acc) [] f.body in
  let bound_once (x, _) =
    (not (List.mem x f.params))
    && (not (String.starts_with ~prefix:tmp_prefix x))
    && binders (fun k y _ -> if String.equal x y then k + 1 else k) 0 f.body = 1
  in
  let stable = List.filter bound_once allocas in
  fun x -> List.assoc_opt x stable

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

let instrument_func (cfg : Config.t) counters f =
  let alloca_size = if cfg.Config.opt_rewrite then stable_allocas f else fun _ -> None in
  (* Expressions may not contain indirect calls (they must be hoisted to
     statement position so the guard can precede them). *)
  let flat e =
    fold_expr
      (fun () -> function
        | Call (Indirect _, _) ->
            fail "function %s: indirect call in subexpression; hoist it to a statement" f.fname
        | _ -> ())
      () e
  in
  let rec stmts l = List.concat_map stmt l
  and guard_indirect_call mk te args =
    List.iter flat (te :: args);
    let t = fresh counters in
    counters.iguards <- counters.iguards + 1;
    [ Let (t, te); Guard (Gindcall (Var t)); mk (Call (Indirect (Var t), args)) ]
  and stmt s =
    match s with
    | Let (x, Call (Indirect te, args)) -> guard_indirect_call (fun call -> Let (x, call)) te args
    | Expr (Call (Indirect te, args)) -> guard_indirect_call (fun call -> Expr call) te args
    | Return (Call (Indirect te, args)) -> guard_indirect_call (fun call -> Return call) te args
    | Let (_, e) | Expr e | Return e ->
        flat e;
        [ s ]
    | Alloca _ -> [ s ]
    | Store (w, ea, ev) ->
        flat ea;
        flat ev;
        if safe_store alloca_size w ea then begin
          counters.welided <- counters.welided + 1;
          [ Store (w, ea, ev) ]
        end
        else begin
          counters.wguards <- counters.wguards + 1;
          let t = fresh counters in
          [ Let (t, ea); Guard (Gwrite (w, Var t)); Store (w, Var t, ev) ]
        end
    | If (c, th, el) ->
        flat c;
        [ If (c, stmts th, stmts el) ]
    | While (c, b) ->
        flat c;
        [ While (c, stmts b) ]
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
  if Hashtbl.length inlined_names = 0 then p
  else
    let refs = referenced p in
    let keep f =
      (not (Hashtbl.mem inlined_names f.fname)) || f.export <> None || List.mem f.fname refs
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
      if cfg.Config.opt_rewrite then inline_program prog inlined else prog
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
      if cfg.Config.opt_rewrite then inline_program prog inlined else prog
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
