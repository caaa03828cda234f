(** MIR — the module intermediate representation: the program form the
    LXFI rewriter instruments and the interpreter executes, standing in
    for the compiler IR the paper's clang plugin rewrites (§4.2).

    Deliberately C-like where it matters: arithmetic wraps at a
    declared width (the CAN BCM overflow is expressible verbatim),
    locals are registers but [Alloca] carves addressable stack buffers
    (the target of safe-store elision), function pointers are plain
    integers module code stores into corruptible memory, and calls are
    direct (intra-module), external (imported kernel functions, forced
    through annotated wrappers) or indirect (guarded). *)

type width = W8 | W16 | W32 | W64

val bytes_of_width : width -> int

type binop =
  | Add
  | Sub
  | Mul
  | Udiv  (** unsigned; division by zero is a kernel oops *)
  | Urem
  | Band
  | Bor
  | Bxor
  | Shl
  | Lshr  (** logical shift right *)
  | Eq
  | Ne
  | Lt  (** signed comparison *)
  | Le
  | Gt
  | Ge
  | Ult  (** unsigned < *)

type callee =
  | Direct of string  (** function in the same module *)
  | Ext of string  (** imported kernel function (wrapper-routed) *)
  | Indirect of expr  (** through a computed address (guarded) *)

and expr =
  | Const of int64
  | Var of string
  | Glob of string  (** address of a module global *)
  | Funcaddr of string  (** address of a module function *)
  | Extaddr of string  (** address of an import's wrapper *)
  | Load of width * expr
  | Binop of binop * width * expr * expr
  | Call of callee * expr list

type guard =
  | Gwrite of width * expr  (** write-capability check (rewriter-inserted) *)
  | Gindcall of expr  (** call-capability check (rewriter-inserted) *)

type stmt =
  | Let of string * expr  (** bind or rebind a local *)
  | Alloca of string * int  (** bind local to a fresh stack buffer *)
  | Store of width * expr * expr  (** [Store (w, addr, value)] *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Expr of expr
  | Return of expr
  | Guard of guard

type func = {
  fname : string;
  params : string list;
  body : stmt list;
  export : string option;
      (** slot-type name when this function may be installed in a
          kernel-visible function-pointer slot (annotation propagation,
          §4.2) *)
}

type ginit =
  | Iword of int * width * int64  (** offset, width, value *)
  | Ifunc of int * string  (** offset, module function (fp initialiser) *)
  | Iext of int * string  (** offset, imported symbol's address *)

type section = Data | Rodata | Bss

type glob = {
  gname : string;
  gsize : int;
  gsection : section;
  ginit : ginit list;
  gstruct : string option;
      (** kernel struct this global instantiates, if any — lets the
          loader find its typed function-pointer slots *)
}

type prog = {
  pname : string;
  funcs : func list;
  globals : glob list;
  imports : string list;
}

val find_func : prog -> string -> func option
val find_global : prog -> string -> glob option

(** {1 Traversal}

    The one place that says which constructors hold subexpressions.
    Every fold visits a node before its operands and operands left to
    right, an indirect callee before its arguments.  A statement's own
    expressions come before its nested [If] and [While] bodies
    (then-branch before else-branch).  Guard operands are visited like
    any other expression, because the engine evaluates them. *)

val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a
(** [fold_expr f acc e] folds [f] over every node of [e], [e] first. *)

val fold_stmts : ('a -> expr -> 'a) -> 'a -> stmt list -> 'a
(** [fold_stmts f acc l] folds [f] over every node of every expression
    that the statements of [l] and their nested bodies hold. *)

val map_expr : (expr -> expr) -> expr -> expr
(** [map_expr f e] rebuilds [e] bottom-up: [f] sees each node after its
    operands have been mapped, and its result is not traversed again. *)

val map_stmt : (expr -> expr) -> stmt -> stmt
(** [map_stmt f s] applies [map_expr f] to every expression of [s] and
    of its nested bodies. *)

val prog_size : prog -> int
(** Structural code-size metric in IR nodes (the Figure 11 Δcode
    basis). *)
