(** Recursive-descent parser for the annotation language of Figure 2.

    Annotations are written as strings attached to kernel exports and
    function-pointer slot types, e.g.:

    {v
    principal(pcidev)
    pre(copy(ref(struct pci_dev), pcidev))
    post(if (return < 0) transfer(ref(struct pci_dev), pcidev))
    pre(transfer(skb_caps(skb)))
    pre(check(write, lock, 4))
    v}

    Parse failures come back as a structured {!error} carrying the byte
    offset and the offending token, so the static checker can point at
    the exact spot in the annotation instead of reporting a generic
    failure. *)

open Ast

type token =
  | Tident of string
  | Tint of int64
  | Tlparen
  | Trparen
  | Tcomma
  | Top of string  (** ==, !=, <, <=, >, >=, +, -, *, &&, || *)

type error = {
  err_msg : string;  (** what the parser expected or rejected *)
  err_pos : int option;  (** byte offset into the annotation source *)
  err_token : string option;  (** the offending token text, if any *)
}

exception Parse_error of error

let token_text = function
  | Tident s -> s
  | Tint n -> Int64.to_string n
  | Tlparen -> "("
  | Trparen -> ")"
  | Tcomma -> ","
  | Top o -> o

let fail_at ?pos ?token fmt =
  Format.kasprintf
    (fun s -> raise (Parse_error { err_msg = s; err_pos = pos; err_token = token }))
    fmt

let error_to_string ?src e =
  let where =
    match (e.err_pos, e.err_token) with
    | Some p, Some t -> Printf.sprintf " at offset %d (near %S)" p t
    | Some p, None -> Printf.sprintf " at offset %d" p
    | None, Some t -> Printf.sprintf " (near %S)" t
    | None, None -> ""
  in
  match src with
  | Some s -> Printf.sprintf "annotation %S: %s%s" s e.err_msg where
  | None -> Printf.sprintf "%s%s" e.err_msg where

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

(* The tokenizer pairs every token with its starting byte offset. *)
let tokenize (s : string) : (token * int) list =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let emit t = toks := (t, !i) :: !toks in
  let peek k = if !i + k < n then Some s.[!i + k] else None in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' then (emit Tlparen; incr i)
    else if c = ')' then (emit Trparen; incr i)
    else if c = ',' then (emit Tcomma; incr i)
    else if c = '=' && peek 1 = Some '=' then (emit (Top "=="); i := !i + 2)
    else if c = '!' && peek 1 = Some '=' then (emit (Top "!="); i := !i + 2)
    else if c = '<' && peek 1 = Some '=' then (emit (Top "<="); i := !i + 2)
    else if c = '>' && peek 1 = Some '=' then (emit (Top ">="); i := !i + 2)
    else if c = '&' && peek 1 = Some '&' then (emit (Top "&&"); i := !i + 2)
    else if c = '|' && peek 1 = Some '|' then (emit (Top "||"); i := !i + 2)
    else if c = '<' || c = '>' || c = '+' || c = '-' || c = '*' then
      (emit (Top (String.make 1 c)); incr i)
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      let j = ref !i in
      if c = '0' && (peek 1 = Some 'x' || peek 1 = Some 'X') then begin
        j := !i + 2;
        while !j < n && (is_ident_char s.[!j]) do incr j done
      end
      else while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      let text = String.sub s start (!j - start) in
      (match Int64.of_string_opt text with
      | Some v -> toks := (Tint v, start) :: !toks
      | None -> fail_at ~pos:start ~token:text "bad integer literal %S" text);
      i := !j
    end
    else if is_ident_char c then begin
      let start = !i in
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do incr j done;
      toks := (Tident (String.sub s start (!j - start)), start) :: !toks;
      i := !j
    end
    else fail_at ~pos:!i ~token:(String.make 1 c) "unexpected character %C" c
  done;
  List.rev !toks

type state = { mutable toks : (token * int) list; src_len : int }

let peek st = match st.toks with [] -> None | (t, _) :: _ -> Some t

(* Error helpers that know where the parse stopped. *)
let fail_here st fmt =
  match st.toks with
  | (t, p) :: _ -> fail_at ~pos:p ~token:(token_text t) fmt
  | [] -> fail_at ~pos:st.src_len fmt

let advance st =
  match st.toks with
  | [] -> fail_here st "unexpected end of annotation"
  | _ :: r -> st.toks <- r

let expect st t =
  match st.toks with
  | (x, _) :: r when x = t -> st.toks <- r
  | (x, _) :: _ -> fail_here st "expected %s, found %s" (token_text t) (token_text x)
  | [] -> fail_here st "expected %s, found end of annotation" (token_text t)

let ident st =
  match st.toks with
  | (Tident s, _) :: r ->
      st.toks <- r;
      s
  | _ -> fail_here st "expected identifier"

(* c-expr precedence climbing *)
let rec parse_or st =
  let a = parse_and st in
  match peek st with
  | Some (Top "||") ->
      advance st;
      Cbin (Oor, a, parse_or st)
  | _ -> a

and parse_and st =
  let a = parse_cmp st in
  match peek st with
  | Some (Top "&&") ->
      advance st;
      Cbin (Oand, a, parse_and st)
  | _ -> a

and parse_cmp st =
  let a = parse_add st in
  match peek st with
  | Some (Top (("==" | "!=" | "<" | "<=" | ">" | ">=") as o)) ->
      advance st;
      let b = parse_add st in
      let op =
        match o with
        | "==" -> Oeq
        | "!=" -> One
        | "<" -> Olt
        | "<=" -> Ole
        | ">" -> Ogt
        | _ -> Oge
      in
      Cbin (op, a, b)
  | _ -> a

and parse_add st =
  let rec go a =
    match peek st with
    | Some (Top "+") ->
        advance st;
        go (Cbin (Oadd, a, parse_mul st))
    | Some (Top "-") ->
        advance st;
        go (Cbin (Osub, a, parse_mul st))
    | _ -> a
  in
  go (parse_mul st)

and parse_mul st =
  let rec go a =
    match peek st with
    | Some (Top "*") ->
        advance st;
        go (Cbin (Omul, a, parse_atom st))
    | _ -> a
  in
  go (parse_atom st)

and parse_atom st =
  match st.toks with
  | (Tint n, _) :: r ->
      st.toks <- r;
      Cint n
  | (Top "-", _) :: r ->
      st.toks <- r;
      Cneg (parse_atom st)
  | (Tident "return", _) :: r ->
      st.toks <- r;
      Creturn
  | (Tident "sizeof", _) :: r ->
      st.toks <- r;
      expect st Tlparen;
      (match ident st with
      | "struct" ->
          let s = ident st in
          expect st Trparen;
          Csizeof s
      | other -> fail_here st "sizeof expects 'struct <name>', got %s" other)
  | (Tident x, _) :: r ->
      st.toks <- r;
      Cparam x
  | (Tlparen, _) :: r ->
      st.toks <- r;
      let e = parse_or st in
      expect st Trparen;
      e
  | _ -> fail_here st "expected expression"

let parse_captype st name =
  match name with
  | "write" -> Write
  | "call" -> Call
  | "ref" ->
      expect st Tlparen;
      (match ident st with
      | "struct" ->
          let s = ident st in
          expect st Trparen;
          Ref s
      | (* allow special (non-struct) REF types per Guideline 3 *) other ->
          expect st Trparen;
          Ref other)
  | other -> fail_here st "unknown capability type %s" other

(* caplist — already inside the enclosing parens of copy/transfer/check *)
let parse_caplist st =
  match st.toks with
  | (Tident (("write" | "call" | "ref") as ct), _) :: r ->
      st.toks <- r;
      let c = parse_captype st ct in
      expect st Tcomma;
      let ptr = parse_or st in
      let size =
        match peek st with
        | Some Tcomma ->
            advance st;
            Some (parse_or st)
        | _ -> None
      in
      Inline (c, ptr, size)
  | (Tident iter, _) :: r ->
      st.toks <- r;
      expect st Tlparen;
      let rec args acc =
        match peek st with
        | Some Trparen ->
            advance st;
            List.rev acc
        | _ -> (
            let e = parse_or st in
            match peek st with
            | Some Tcomma ->
                advance st;
                args (e :: acc)
            | _ ->
                expect st Trparen;
                List.rev (e :: acc))
      in
      Iter (iter, args [])
  | _ -> fail_here st "expected capability list"

let rec parse_action st =
  match st.toks with
  | (Tident "copy", _) :: r ->
      st.toks <- r;
      expect st Tlparen;
      let cl = parse_caplist st in
      expect st Trparen;
      Copy cl
  | (Tident "transfer", _) :: r ->
      st.toks <- r;
      expect st Tlparen;
      let cl = parse_caplist st in
      expect st Trparen;
      Transfer cl
  | (Tident "check", _) :: r ->
      st.toks <- r;
      expect st Tlparen;
      let cl = parse_caplist st in
      expect st Trparen;
      Check cl
  | (Tident "if", _) :: r ->
      st.toks <- r;
      expect st Tlparen;
      let c = parse_or st in
      expect st Trparen;
      let a = parse_action st in
      Cif (c, a)
  | _ -> fail_here st "expected action (copy/transfer/check/if)"

let parse_clause st =
  match st.toks with
  | (Tident "pre", _) :: r ->
      st.toks <- r;
      expect st Tlparen;
      let a = parse_action st in
      expect st Trparen;
      Pre a
  | (Tident "post", _) :: r ->
      st.toks <- r;
      expect st Tlparen;
      let a = parse_action st in
      expect st Trparen;
      Post a
  | (Tident "principal", _) :: r -> (
      st.toks <- r;
      expect st Tlparen;
      match st.toks with
      | (Tident "global", _) :: r2 ->
          st.toks <- r2;
          expect st Trparen;
          Principal Pglobal
      | (Tident "shared", _) :: r2 ->
          st.toks <- r2;
          expect st Trparen;
          Principal Pshared
      | _ ->
          let e = parse_or st in
          expect st Trparen;
          Principal (Pexpr e))
  | _ -> fail_here st "expected clause (pre/post/principal)"

(** [parse s] parses a whitespace-separated sequence of clauses. *)
let parse (s : string) : (t, error) result =
  try
    let st = { toks = tokenize s; src_len = String.length s } in
    let rec clauses acc =
      match st.toks with [] -> List.rev acc | _ -> clauses (parse_clause st :: acc)
    in
    Ok (clauses [])
  with Parse_error e -> Error e
