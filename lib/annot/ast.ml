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

(** The principal clause of an annotation set, if any. *)
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

(** {1 Static validation}

    An annotation that references an unknown parameter, or the return
    value in a pre clause, would only fail at its first runtime
    evaluation; [validate] rejects it when the interface is declared
    instead (the linter the paper's reliance on trusted annotations
    calls for — §2.2: "if there is any mistake ... LXFI will enforce
    the policy specified in the annotation"; at least the
    non-evaluable mistakes are caught early). *)

let rec validate_cexpr ~params ~allow_return = function
  | Cint _ -> Ok ()
  | Cparam p ->
      if List.mem p params then Ok ()
      else Error (Printf.sprintf "unknown parameter %s (have: %s)" p (String.concat ", " params))
  | Creturn -> if allow_return then Ok () else Error "return value referenced in a pre/principal context"
  | Cneg e -> validate_cexpr ~params ~allow_return e
  | Csizeof _ -> Ok ()
  | Cbin (_, a, b) -> (
      match validate_cexpr ~params ~allow_return a with
      | Ok () -> validate_cexpr ~params ~allow_return b
      | Error _ as e -> e)

let validate_caplist ~params ~allow_return = function
  | Inline (_, p, s) -> (
      match validate_cexpr ~params ~allow_return p with
      | Ok () -> (
          match s with
          | None -> Ok ()
          | Some e -> validate_cexpr ~params ~allow_return e)
      | Error _ as e -> e)
  | Iter (_, args) ->
      List.fold_left
        (fun acc e ->
          match acc with Ok () -> validate_cexpr ~params ~allow_return e | e -> e)
        (Ok ()) args

let rec validate_action ~params ~allow_return = function
  | Copy cl | Transfer cl | Check cl -> validate_caplist ~params ~allow_return cl
  | Cif (c, a) -> (
      match validate_cexpr ~params ~allow_return c with
      | Ok () -> validate_action ~params ~allow_return a
      | Error _ as e -> e)

(** [validate ~params t] — [Error msg] if any clause references an
    undeclared parameter or uses [return] outside a post clause. *)
let validate ~params (t : t) : (unit, string) result =
  List.fold_left
    (fun acc clause ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match clause with
          | Pre a -> validate_action ~params ~allow_return:false a
          | Post a -> validate_action ~params ~allow_return:true a
          | Principal (Pexpr e) -> validate_cexpr ~params ~allow_return:false e
          | Principal (Pglobal | Pshared) -> Ok ()))
    (Ok ()) t
