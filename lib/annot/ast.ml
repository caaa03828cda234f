(** AST of the LXFI annotation language (paper Figure 2).

    {v
    annotation ::= pre(action) | post(action) | principal(c-expr)
    action     ::= copy(caplist) | transfer(caplist) | check(caplist)
                 | if (c-expr) action
    caplist    ::= (c, ptr, [size]) | iterator-func(c-expr)
    v}

    [c] is a capability type (WRITE, CALL, or [ref(struct foo)]); [ptr]
    and [size] are C expressions over the annotated function's
    parameters and (in post clauses) its return value.  The [size]
    parameter defaults to the size of the pointed-to struct when the
    parameter's referent type is registered, else to 8 bytes. *)

type captype =
  | Write  (** WRITE(ptr, size): may store to [ptr, ptr+size) *)
  | Call  (** CALL(a): may call/jump to address a *)
  | Ref of string  (** REF(t, a): may pass a where a REF of type t is required *)

type binop = Oeq | One | Olt | Ole | Ogt | Oge | Oadd | Osub | Omul | Oand | Oor

type cexpr =
  | Cint of int64
  | Cparam of string  (** named parameter of the annotated function *)
  | Creturn  (** the function's return value (post clauses only) *)
  | Cbin of binop * cexpr * cexpr
  | Cneg of cexpr
  | Csizeof of string  (** [sizeof(struct foo)] *)

type caplist =
  | Inline of captype * cexpr * cexpr option  (** (c, ptr, [size]) *)
  | Iter of string * cexpr list
      (** programmer-supplied capability iterator, e.g. [skb_caps(skb)] *)

type action =
  | Copy of caplist
  | Transfer of caplist
  | Check of caplist
  | Cif of cexpr * action

type principal_spec =
  | Pglobal  (** run as the module's global principal *)
  | Pshared  (** run as the module's shared principal (the default) *)
  | Pexpr of cexpr  (** instance principal named by this pointer value *)

type clause = Pre of action | Post of action | Principal of principal_spec

type t = clause list

(** {1 Canonical printing}

    The canonical form is what gets hashed for the kernel rewriter's
    annotation-match check (§4.1): a module function stored into a
    function-pointer slot must carry annotations whose canonical hash
    equals the slot type's. *)

let rec cexpr_to_string = function
  | Cint n -> Int64.to_string n
  | Cparam p -> p
  | Creturn -> "return"
  | Cneg e -> "-" ^ cexpr_to_string e
  | Csizeof s -> Printf.sprintf "sizeof(struct %s)" s
  | Cbin (op, a, b) ->
      let s =
        match op with
        | Oeq -> "=="
        | One -> "!="
        | Olt -> "<"
        | Ole -> "<="
        | Ogt -> ">"
        | Oge -> ">="
        | Oadd -> "+"
        | Osub -> "-"
        | Omul -> "*"
        | Oand -> "&&"
        | Oor -> "||"
      in
      Printf.sprintf "(%s %s %s)" (cexpr_to_string a) s (cexpr_to_string b)

let captype_to_string = function
  | Write -> "write"
  | Call -> "call"
  | Ref s -> Printf.sprintf "ref(struct %s)" s

let caplist_to_string = function
  | Inline (c, p, None) ->
      Printf.sprintf "%s, %s" (captype_to_string c) (cexpr_to_string p)
  | Inline (c, p, Some s) ->
      Printf.sprintf "%s, %s, %s" (captype_to_string c) (cexpr_to_string p)
        (cexpr_to_string s)
  | Iter (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map cexpr_to_string args))

let rec action_to_string = function
  | Copy cl -> Printf.sprintf "copy(%s)" (caplist_to_string cl)
  | Transfer cl -> Printf.sprintf "transfer(%s)" (caplist_to_string cl)
  | Check cl -> Printf.sprintf "check(%s)" (caplist_to_string cl)
  | Cif (c, a) -> Printf.sprintf "if (%s) %s" (cexpr_to_string c) (action_to_string a)

let clause_to_string = function
  | Pre a -> Printf.sprintf "pre(%s)" (action_to_string a)
  | Post a -> Printf.sprintf "post(%s)" (action_to_string a)
  | Principal Pglobal -> "principal(global)"
  | Principal Pshared -> "principal(shared)"
  | Principal (Pexpr e) -> Printf.sprintf "principal(%s)" (cexpr_to_string e)

let to_string (t : t) = String.concat " " (List.map clause_to_string t)

(** The principal clause of an annotation set, if any ({!validate}
    refuses a second one). *)
let principal_of (t : t) =
  List.find_map (function Principal p -> Some p | _ -> None) t

let pre_actions (t : t) = List.filter_map (function Pre a -> Some a | _ -> None) t
let post_actions (t : t) = List.filter_map (function Post a -> Some a | _ -> None) t

(** [eval_binop op a b] — what an operator means: comparisons and the
    logical connectives yield 1 or 0, arithmetic wraps at 64 bits.
    The runtime's evaluator and the linter's constant folder share it. *)
let eval_binop op a b =
  let bool_ x = if x then 1L else 0L in
  match op with
  | Oeq -> bool_ (Int64.equal a b)
  | One -> bool_ (not (Int64.equal a b))
  | Olt -> bool_ (Int64.compare a b < 0)
  | Ole -> bool_ (Int64.compare a b <= 0)
  | Ogt -> bool_ (Int64.compare a b > 0)
  | Oge -> bool_ (Int64.compare a b >= 0)
  | Oadd -> Int64.add a b
  | Osub -> Int64.sub a b
  | Omul -> Int64.mul a b
  | Oand -> bool_ (a <> 0L && b <> 0L)
  | Oor -> bool_ (a <> 0L || b <> 0L)

(** {1 Traversal}

    The one place that says which annotation nodes hold expressions.
    [fold_cexpr] visits a node before its operands and operands left to
    right; a caplist's expressions and an action's guards come in source
    order. *)

let rec fold_cexpr f acc e =
  let acc = f acc e in
  match e with
  | Cint _ | Cparam _ | Creturn | Csizeof _ -> acc
  | Cneg a -> fold_cexpr f acc a
  | Cbin (_, a, b) -> fold_cexpr f (fold_cexpr f acc a) b

(** The expressions naming the objects a caplist covers: an inline
    capability's pointer, an iterator's arguments. *)
let caplist_objects = function Inline (_, p, _) -> [ p ] | Iter (_, args) -> args

(** Every expression of a caplist: its objects, then an inline size. *)
let caplist_exprs = function
  | Inline (_, p, Some s) -> [ p; s ]
  | cl -> caplist_objects cl

type verb = [ `Copy | `Transfer | `Check ]

(** [leaf a] — the verb and caplist that action [a] ends in, with the
    conditions of the [if]s guarding it, outermost first. *)
let leaf a =
  let rec go guards = function
    | Copy cl -> ((`Copy : verb), cl, List.rev guards)
    | Transfer cl -> (`Transfer, cl, List.rev guards)
    | Check cl -> (`Check, cl, List.rev guards)
    | Cif (c, a) -> go (c :: guards) a
  in
  go [] a

(** {1 What an action does (§3.3)}

    The wrappers of §5 run a slot type's actions on kernel→module
    entries and a kernel export's on module→kernel calls, the pre
    actions before the callee runs and the post actions after it.
    {!cap_effect} is the one statement of what a verb then does to each
    capability its caplist names. *)

type direction =
  | M2K  (** a module calling a kernel export *)
  | K2M  (** the kernel invoking a module function *)

type phase = [ `Pre | `Post ]

(** What an action does to one capability, from the module side of the
    crossing (the calling module for [M2K], the callee for [K2M]); the
    kernel side is trusted and owns everything. *)
type cap_effect =
  | No_effect  (** a check whose caller is the kernel *)
  | Own  (** the module side must own it *)
  | Grant  (** the module side receives it *)
  | Own_then_revoke  (** the module side must own it; then every principal loses it *)
  | Revoke_then_grant  (** every principal loses it; then the module side receives it *)

(** Capabilities flow from the side that gives to the side that
    receives: a module gives in an [M2K] pre and a [K2M] post, and
    receives in the other two.  [copy] gives a copy, [transfer] gives
    the capability itself, and [check] only asks a module caller what it
    owns. *)
let cap_effect ~dir ~(phase : phase) (verb : verb) =
  match (verb, dir, phase) with
  | `Check, M2K, _ -> Own
  | `Check, K2M, _ -> No_effect
  | `Copy, M2K, `Pre | `Copy, K2M, `Post -> Own
  | `Copy, M2K, `Post | `Copy, K2M, `Pre -> Grant
  | `Transfer, M2K, `Pre | `Transfer, K2M, `Post -> Own_then_revoke
  | `Transfer, M2K, `Post | `Transfer, K2M, `Pre -> Revoke_then_grant

(** Does the module side receive the capability? *)
let grants = function
  | Grant | Revoke_then_grant -> true
  | No_effect | Own | Own_then_revoke -> false

(** {1 Static validation}

    An annotation that references an unknown parameter, or the return
    value in a pre clause, would only fail at its first runtime
    evaluation; [validate] rejects it when the interface is declared
    instead (the linter the paper's reliance on trusted annotations
    calls for — §2.2: "if there is any mistake ... LXFI will enforce
    the policy specified in the annotation"; at least the
    non-evaluable mistakes are caught early). *)

(** [validate ~params t] — [Error msg] for the first problem in source
    order: an expression node that references an undeclared parameter
    or uses [return] outside a post clause, or a second principal
    clause (an entry runs as one principal). *)
let validate ~params (t : t) : (unit, string) result =
  let node ~allow_return acc e =
    match (acc, e) with
    | Error _, _ -> acc
    | Ok (), Cparam p when not (List.mem p params) ->
        Error (Printf.sprintf "unknown parameter %s (have: %s)" p (String.concat ", " params))
    | Ok (), Creturn when not allow_return ->
        Error "return value referenced in a pre/principal context"
    | Ok (), _ -> acc
  in
  let action ~allow_return acc a =
    let _, cl, guards = leaf a in
    List.fold_left (fold_cexpr (node ~allow_return)) acc (guards @ caplist_exprs cl)
  in
  let principal (acc, seen) spec =
    match (acc, spec) with
    | Error _, _ -> (acc, seen)
    | Ok (), _ when seen ->
        let clause = clause_to_string (Principal spec) in
        (Error (Printf.sprintf "second principal clause %s" clause), seen)
    | Ok (), Pexpr e -> (fold_cexpr (node ~allow_return:false) acc e, true)
    | Ok (), (Pglobal | Pshared) -> (acc, true)
  in
  fst
    (List.fold_left
       (fun (acc, seen) -> function
         | Pre a -> (action ~allow_return:false acc a, seen)
         | Post a -> (action ~allow_return:true acc a, seen)
         | Principal spec -> principal (acc, seen) spec)
       (Ok (), false) t)
