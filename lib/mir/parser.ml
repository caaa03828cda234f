(** Parser for MIR's textual form — the exact language {!Printer}
    emits, so [parse (Printer.to_string p) = p] (a qcheck-pinned
    round trip).  This is what lets modules live in [.mir] files and be
    loaded by the CLI ([lxfi_sim runmod]) instead of being built with
    the OCaml EDSL. *)

open Ast

exception Parse_error of { line : int; msg : string }

let fail ~line fmt =
  Format.kasprintf (fun msg -> raise (Parse_error { line; msg })) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Tident of string  (** also sections (".data") and dotted/colon names *)
  | Tint of int64
  | Tpunct of string  (** ( ) { } [ ] , ; = and operators *)

type lexed = { tok : token; at : int (* line *) }

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '.'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = ':'

let tokenize (src : string) : lexed list =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 in
  let emit tok = out := { tok; at = !line } :: !out in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then (incr line; incr i)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && peek 1 = Some '*' then begin
      (* comment: skip to the closing marker *)
      let j = ref (!i + 2) in
      while
        !j + 1 < n && not (src.[!j] = '*' && src.[!j + 1] = '/')
      do
        if src.[!j] = '\n' then incr line;
        incr j
      done;
      if !j + 1 >= n then fail ~line:!line "unterminated comment";
      i := !j + 2
    end
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && ((src.[!j] >= '0' && src.[!j] <= '9') || src.[!j] = 'x'
                       || (src.[!j] >= 'a' && src.[!j] <= 'f')
                       || (src.[!j] >= 'A' && src.[!j] <= 'F'))
      do incr j done;
      let text = String.sub src !i (!j - !i) in
      (match Int64.of_string_opt text with
      | Some v -> emit (Tint v)
      | None -> fail ~line:!line "bad number %S" text);
      i := !j
    end
    else if (c = '-' || c = '+') && (match peek 1 with Some d -> d >= '0' && d <= '9' | None -> false)
    then begin
      let sign = if c = '-' then -1L else 1L in
      let j = ref (!i + 1) in
      while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do incr j done;
      let text = String.sub src (!i + 1) (!j - !i - 1) in
      (match Int64.of_string_opt text with
      | Some v -> emit (Tint (Int64.mul sign v))
      | None -> fail ~line:!line "bad number %S" text);
      i := !j
    end
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do incr j done;
      emit (Tident (String.sub src !i (!j - !i)));
      i := !j
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "==" | "!=" | "<=" | ">=" | "<u" | "<<" | ">>" | "&&" ->
          emit (Tpunct two);
          i := !i + 2
      | _ -> (
          match c with
          | '(' | ')' | '{' | '}' | '[' | ']' | ',' | ';' | '=' | '+' | '-' | '*'
          | '/' | '%' | '&' | '|' | '^' | '<' | '>' | ':' ->
              emit (Tpunct (String.make 1 c));
              incr i
          | _ -> fail ~line:!line "unexpected character %C" c)
    end
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Parser state                                                        *)
(* ------------------------------------------------------------------ *)

type state = { mutable toks : lexed list; mutable line : int }

let peek st = match st.toks with [] -> None | l :: _ -> Some l.tok

let advance st =
  match st.toks with
  | [] -> fail ~line:st.line "unexpected end of input"
  | l :: r ->
      st.line <- l.at;
      st.toks <- r;
      l.tok

let expect_punct st p =
  match advance st with
  | Tpunct q when q = p -> ()
  | t ->
      fail ~line:st.line "expected %S, found %s" p
        (match t with
        | Tident s -> s
        | Tint v -> Int64.to_string v
        | Tpunct q -> q)

let ident st =
  match advance st with
  | Tident s -> s
  | _ -> fail ~line:st.line "expected identifier"

let keyword st kw =
  let s = ident st in
  if s <> kw then fail ~line:st.line "expected %S, found %S" kw s

let int_ st =
  match advance st with
  | Tint v -> v
  | _ -> fail ~line:st.line "expected number"

let width_of_name st = function
  | "u8" -> W8
  | "u16" -> W16
  | "u32" -> W32
  | "u64" -> W64
  | s -> fail ~line:st.line "expected width (u8/u16/u32/u64), found %S" s

let binop_of_symbol st = function
  | "+" -> Add
  | "-" -> Sub
  | "*" -> Mul
  | "/" -> Udiv
  | "%" -> Urem
  | "&" -> Band
  | "|" -> Bor
  | "^" -> Bxor
  | "<<" -> Shl
  | ">>" -> Lshr
  | "==" -> Eq
  | "!=" -> Ne
  | "<" -> Lt
  | "<=" -> Le
  | ">" -> Gt
  | ">=" -> Ge
  | "<u" -> Ult
  | s -> fail ~line:st.line "expected operator, found %S" s

(* Operators carry a dot-separated width suffix for non-64-bit widths:
   "+" is 64-bit, "*.u32" wraps at 32 (the dot keeps "<.u16" distinct
   from the unsigned comparison "<u").  The suffix lexes as the ident
   ".u16" because '.' starts identifiers. *)
let parse_op st =
  match advance st with
  | Tpunct p ->
      let op = binop_of_symbol st p in
      let w =
        match peek st with
        | Some (Tident (".u8" | ".u16" | ".u32" | ".u64" as wn)) ->
            ignore (advance st);
            width_of_name st (String.sub wn 1 (String.length wn - 1))
        | _ -> W64
      in
      (op, w)
  | _ -> fail ~line:st.line "expected operator"

let ext_prefix = "ext:"

let strip_ext name =
  if String.length name > 4 && String.sub name 0 4 = ext_prefix then
    Some (String.sub name 4 (String.length name - 4))
  else None

let rec parse_expr st : expr =
  match advance st with
  | Tint v -> Const v
  | Tpunct "&" -> Glob (ident st)
  | Tpunct "&&" -> (
      let name = ident st in
      match strip_ext name with Some e -> Extaddr e | None -> Funcaddr name)
  | Tpunct "*" ->
      (* load: *width(expr) *)
      let w = width_of_name st (ident st) in
      expect_punct st "(";
      let e = parse_expr st in
      expect_punct st ")";
      Load (w, e)
  | Tpunct "[" ->
      (* indirect call: [target](args) *)
      let t = parse_expr st in
      expect_punct st "]";
      expect_punct st "(";
      Call (Indirect t, parse_args st)
  | Tpunct "(" ->
      (* parenthesized binop: (a op b) *)
      let a = parse_expr st in
      let op, w = parse_op st in
      let b = parse_expr st in
      expect_punct st ")";
      Binop (op, w, a, b)
  | Tident name -> (
      (* variable, or direct/external call *)
      match peek st with
      | Some (Tpunct "(") ->
          ignore (advance st);
          let args = parse_args st in
          (match strip_ext name with
          | Some e -> Call (Ext e, args)
          | None -> Call (Direct name, args))
      | _ -> Var name)
  | Tpunct p -> fail ~line:st.line "unexpected %S in expression" p

and parse_args st : expr list =
  match peek st with
  | Some (Tpunct ")") ->
      ignore (advance st);
      []
  | _ ->
      let rec go acc =
        let e = parse_expr st in
        match advance st with
        | Tpunct "," -> go (e :: acc)
        | Tpunct ")" -> List.rev (e :: acc)
        | _ -> fail ~line:st.line "expected ',' or ')' in arguments"
      in
      go []

let rec parse_stmt st : stmt =
  match peek st with
  | Some (Tident "return") ->
      ignore (advance st);
      let e = parse_expr st in
      expect_punct st ";";
      Return e
  | Some (Tident "if") ->
      ignore (advance st);
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      let t = parse_block st in
      let e =
        match peek st with
        | Some (Tident "else") ->
            ignore (advance st);
            parse_block st
        | _ -> []
      in
      If (c, t, e)
  | Some (Tident "while") ->
      ignore (advance st);
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      While (c, parse_block st)
  | Some (Tident "lxfi_guard_write") ->
      ignore (advance st);
      expect_punct st "(";
      let e = parse_expr st in
      expect_punct st ",";
      let w = width_of_name st (ident st) in
      expect_punct st ")";
      expect_punct st ";";
      Guard (Gwrite (w, e))
  | Some (Tident "lxfi_guard_indcall") ->
      ignore (advance st);
      expect_punct st "(";
      let e = parse_expr st in
      expect_punct st ")";
      expect_punct st ";";
      Guard (Gindcall e)
  | Some (Tpunct "*") -> (
      (* either a store "*w(addr) = v;" or a bare load expression
         statement "*w(addr);" *)
      ignore (advance st);
      let w = width_of_name st (ident st) in
      expect_punct st "(";
      let a = parse_expr st in
      expect_punct st ")";
      match advance st with
      | Tpunct "=" ->
          let v = parse_expr st in
          expect_punct st ";";
          Store (w, a, v)
      | Tpunct ";" -> Expr (Load (w, a))
      | _ -> fail ~line:st.line "expected '=' or ';' after load/store address")
  | Some (Tident name) -> (
      ignore (advance st);
      match peek st with
      | Some (Tpunct "=") -> (
          ignore (advance st);
          (* alloca or plain binding *)
          match peek st with
          | Some (Tident "alloca") ->
              ignore (advance st);
              expect_punct st "(";
              let size = Int64.to_int (int_ st) in
              if size < 0 then fail ~line:st.line "negative alloca size %d" size;
              expect_punct st ")";
              expect_punct st ";";
              Alloca (name, size)
          | _ ->
              let e = parse_expr st in
              expect_punct st ";";
              Let (name, e))
      | Some (Tpunct "(") ->
          ignore (advance st);
          let args = parse_args st in
          expect_punct st ";";
          Expr
            (match strip_ext name with
            | Some ext -> Call (Ext ext, args)
            | None -> Call (Direct name, args))
      | _ ->
          expect_punct st ";";
          Expr (Var name))
  | Some _ ->
      (* any other expression statement (&&f; loads; binops; ...) *)
      let e = parse_expr st in
      expect_punct st ";";
      Expr e
  | None -> fail ~line:st.line "unexpected end of input in statement"

and parse_block st : stmt list =
  expect_punct st "{";
  let rec go acc =
    match peek st with
    | Some (Tpunct "}") ->
        ignore (advance st);
        List.rev acc
    | Some _ -> go (parse_stmt st :: acc)
    | None -> fail ~line:st.line "unterminated block"
  in
  go []

let parse_section st =
  match ident st with
  | ".data" -> Data
  | ".rodata" -> Rodata
  | ".bss" -> Bss
  | s -> fail ~line:st.line "expected section, found %S" s

let parse_global st : glob =
  (* after the leading "global" keyword *)
  let name = ident st in
  expect_punct st "[";
  let size = Int64.to_int (int_ st) in
  expect_punct st "]";
  keyword st "in";
  let section = parse_section st in
  let struct_ =
    match peek st with
    | Some (Tpunct ":") ->
        ignore (advance st);
        keyword st "struct";
        Some (ident st)
    | _ -> None
  in
  let ginit =
    match peek st with
    | Some (Tpunct "{") ->
        ignore (advance st);
        let rec go acc =
          match peek st with
          | Some (Tpunct "}") ->
              ignore (advance st);
              List.rev acc
          | _ ->
              let off = Int64.to_int (int_ st) in
              expect_punct st "=";
              let init =
                match advance st with
                | Tident "func" -> Ifunc (off, ident st)
                | Tident "extern" -> Iext (off, ident st)
                | Tident wn ->
                    let w = width_of_name st wn in
                    Iword (off, w, int_ st)
                | _ -> fail ~line:st.line "expected initialiser"
              in
              expect_punct st ";";
              go (init :: acc)
        in
        go []
    | _ -> []
  in
  { gname = name; gsize = size; gsection = section; ginit; gstruct = struct_ }

let parse_func st : func =
  (* after the leading "func" keyword *)
  let name = ident st in
  expect_punct st "(";
  let params =
    match peek st with
    | Some (Tpunct ")") ->
        ignore (advance st);
        []
    | _ ->
        let rec go acc =
          let p = ident st in
          match advance st with
          | Tpunct "," -> go (p :: acc)
          | Tpunct ")" -> List.rev (p :: acc)
          | _ -> fail ~line:st.line "expected ',' or ')' in parameters"
        in
        go []
  in
  let export =
    match peek st with
    | Some (Tident "exports") ->
        ignore (advance st);
        Some (ident st)
    | _ -> None
  in
  let body = parse_block st in
  { fname = name; params; body; export }

(** [parse src] — a whole module. *)
let parse (src : string) : prog =
  let st = { toks = tokenize src; line = 1 } in
  keyword st "module";
  let pname = ident st in
  keyword st "imports:";
  let imports =
    match peek st with
    | Some (Tident ("global" | "func")) | None -> []
    | _ ->
        let rec go acc =
          let name = ident st in
          match peek st with
          | Some (Tpunct ",") ->
              ignore (advance st);
              go (name :: acc)
          | _ -> List.rev (name :: acc)
        in
        go []
  in
  let globals = ref [] and funcs = ref [] in
  let rec go () =
    match peek st with
    | None -> ()
    | Some (Tident "global") ->
        ignore (advance st);
        globals := parse_global st :: !globals;
        go ()
    | Some (Tident "func") ->
        ignore (advance st);
        funcs := parse_func st :: !funcs;
        go ()
    | Some _ -> fail ~line:st.line "expected 'global' or 'func'"
  in
  go ();
  { pname; imports; globals = List.rev !globals; funcs = List.rev !funcs }

let parse_result src =
  try Ok (parse src) with Parse_error { line; msg } ->
    Error (Printf.sprintf "line %d: %s" line msg)
