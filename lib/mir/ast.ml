(** MIR — the module intermediate representation.

    Kernel modules in this reproduction are written in MIR, a small
    C-like IR that plays the role the compiler IR plays for the paper's
    clang rewriting plugin (§4.2): it is the program form the LXFI
    rewriter instruments (write guards, indirect-call guards, wrapper
    redirection, entry/exit hooks) and the form an interpreter executes
    against the simulated kernel address space.

    Deliberate properties shared with compiled C kernel code:

    - arithmetic wraps at a declared width (32/64), so the CAN BCM
      integer-overflow bug can be written exactly as in C;
    - locals are registers (unaddressable), but [Alloca] carves
      addressable buffers from the module stack — the target of the MD5
      microbenchmark's guard-elision optimization;
    - function pointers are first-class integers ([Funcaddr]) that
      module code stores into memory, where they can be corrupted;
    - calls are direct (intra-module), external (imported kernel
      functions, which LXFI forces through annotated wrappers), or
      indirect (through a computed address, which LXFI guards). *)

type width = W8 | W16 | W32 | W64

let bytes_of_width = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8

type binop =
  | Add
  | Sub
  | Mul
  | Udiv
  | Urem
  | Band
  | Bor
  | Bxor
  | Shl
  | Lshr
  | Eq
  | Ne
  | Lt  (** signed < *)
  | Le
  | Gt
  | Ge
  | Ult  (** unsigned < *)

type callee =
  | Direct of string  (** call to a function in the same module *)
  | Ext of string  (** call to an imported kernel function *)
  | Indirect of expr  (** call through a computed address *)

and expr =
  | Const of int64
  | Var of string  (** local or parameter *)
  | Glob of string  (** address of a module global *)
  | Funcaddr of string  (** address of a module function *)
  | Extaddr of string  (** address of an imported function's wrapper *)
  | Load of width * expr
  | Binop of binop * width * expr * expr
  | Call of callee * expr list

type guard =
  | Gwrite of width * expr  (** write-capability check for [expr] *)
  | Gindcall of expr  (** call-capability check for target [expr] *)

type stmt =
  | Let of string * expr  (** bind or rebind a local *)
  | Alloca of string * int  (** bind local to a fresh [n]-byte stack buffer *)
  | Store of width * expr * expr  (** [Store (w, addr, value)] *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Expr of expr  (** evaluate for effect *)
  | Return of expr
  | Guard of guard  (** inserted by the LXFI rewriter *)

type func = {
  fname : string;
  params : string list;
  body : stmt list;
  export : string option;
      (** slot-type name if this function's address is installed in a
          kernel-visible function-pointer slot (drives annotation
          propagation, §4.2) *)
}

(** Initialised datum inside a global. *)
type ginit =
  | Iword of int * width * int64  (** offset, width, value *)
  | Ifunc of int * string  (** offset, module function name *)
  | Iext of int * string  (** offset, imported function name (wrapper address) *)

type section = Data | Rodata | Bss

type glob = {
  gname : string;
  gsize : int;
  gsection : section;
  ginit : ginit list;
  gstruct : string option;
      (** struct type of this global if it instantiates a known kernel
          struct (lets the loader find typed function-pointer slots) *)
}

type prog = {
  pname : string;  (** module name *)
  funcs : func list;
  globals : glob list;
  imports : string list;  (** kernel functions in the symbol table *)
}

let find_func prog name = List.find_opt (fun f -> f.fname = name) prog.funcs

let find_global prog name = List.find_opt (fun g -> g.gname = name) prog.globals

(** {1 Traversal}

    The one place that says which constructors hold subexpressions.
    Every fold visits a node before its operands and operands left to
    right, an indirect callee before its arguments.  A statement's own
    expressions come before its nested bodies (then-branch before
    else-branch).  Guard operands are expressions like any other: the
    engine evaluates them.  [prog_size] walks the same shape by direct
    recursion. *)

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Const _ | Var _ | Glob _ | Funcaddr _ | Extaddr _ -> acc
  | Load (_, a) -> fold_expr f acc a
  | Binop (_, _, a, b) -> fold_expr f (fold_expr f acc a) b
  | Call (c, args) ->
      let acc = match c with Indirect t -> fold_expr f acc t | Direct _ | Ext _ -> acc in
      List.fold_left (fold_expr f) acc args

let rec fold_stmts f acc l =
  List.fold_left
    (fun acc s ->
      match s with
      | Let (_, e) | Expr e | Return e | Guard (Gwrite (_, e) | Gindcall e) -> fold_expr f acc e
      | Alloca _ -> acc
      | Store (_, a, v) -> fold_expr f (fold_expr f acc a) v
      | If (c, t, e) -> fold_stmts f (fold_stmts f (fold_expr f acc c) t) e
      | While (c, b) -> fold_stmts f (fold_expr f acc c) b)
    acc l

let rec map_expr f e =
  f
    (match e with
    | Const _ | Var _ | Glob _ | Funcaddr _ | Extaddr _ -> e
    | Load (w, a) -> Load (w, map_expr f a)
    | Binop (op, w, a, b) ->
        let a = map_expr f a in
        Binop (op, w, a, map_expr f b)
    | Call (c, args) ->
        let c = match c with Indirect t -> Indirect (map_expr f t) | Direct _ | Ext _ -> c in
        Call (c, List.map (map_expr f) args))

let rec map_stmt f s =
  match s with
  | Let (x, e) -> Let (x, map_expr f e)
  | Alloca _ -> s
  | Store (w, a, v) ->
      let a = map_expr f a in
      Store (w, a, map_expr f v)
  | If (c, t, e) ->
      let c = map_expr f c in
      let t = List.map (map_stmt f) t in
      If (c, t, List.map (map_stmt f) e)
  | While (c, b) ->
      let c = map_expr f c in
      While (c, List.map (map_stmt f) b)
  | Expr e -> Expr (map_expr f e)
  | Return e -> Return (map_expr f e)
  | Guard (Gwrite (w, e)) -> Guard (Gwrite (w, map_expr f e))
  | Guard (Gindcall e) -> Guard (Gindcall (map_expr f e))

(** Structural size in IR nodes — the "code size" metric used by the
    Figure 11 reproduction (Δ code size under instrumentation): one per
    expression node and per statement, but none for an [Expr] wrapper,
    two for a guard and two per function. *)
let prog_size p =
  (* Direct recursion, not a fold: no closure call per node. *)
  let rec expr n = function
    | Const _ | Var _ | Glob _ | Funcaddr _ | Extaddr _ -> n + 1
    | Load (_, a) -> expr (n + 1) a
    | Binop (_, _, a, b) -> expr (expr (n + 1) a) b
    | Call (Indirect t, args) -> exprs (expr (n + 1) t) args
    | Call ((Direct _ | Ext _), args) -> exprs (n + 1) args
  and exprs n = function [] -> n | e :: l -> exprs (expr n e) l
  and stmts n = function
    | [] -> n
    | s :: l ->
        let n =
          match s with
          | Expr e -> expr n e
          | Let (_, e) | Return e -> expr (n + 1) e
          | Guard (Gwrite (_, e) | Gindcall e) -> expr (n + 2) e
          | Alloca _ -> n + 1
          | Store (_, a, v) -> expr (expr (n + 1) a) v
          | If (c, t, e) -> stmts (stmts (expr (n + 1) c) t) e
          | While (c, b) -> stmts (expr (n + 1) c) b
        in
        stmts n l
  in
  let rec funcs n = function [] -> n | f :: l -> funcs (stmts (n + 2) f.body) l in
  funcs 0 p.funcs
