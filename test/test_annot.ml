(* Unit tests for the annotation language: parser, canonical printing,
   and hashing. *)

module A = Annot.Ast
module P = Annot.Parser

let parse s =
  match P.parse s with Ok t -> t | Error e -> Alcotest.fail (P.error_to_string e)

let roundtrip s =
  (* canonical print of a parse must re-parse to the same canonical
     print (the fixpoint the hash relies on) *)
  let t = parse s in
  let c = A.to_string t in
  let t2 = parse c in
  Alcotest.(check string) ("roundtrip " ^ s) c (A.to_string t2)

let test_paper_examples () =
  (* every annotation shape from Figures 2-4 of the paper *)
  List.iter roundtrip
    [
      "pre(copy(write, ptr, size))";
      "post(copy(write, return, size))";
      "pre(transfer(write, ptr, 64))";
      "post(transfer(write, ptr))";
      "pre(check(write, lock, 4))";
      "pre(check(skb_iter(ptr)))";
      "pre(if (len > 0) copy(write, buf, len))";
      "post(if (return == 0) transfer(write, buf, len))";
      "principal(p)";
      "principal(global)";
      "principal(shared)";
      "principal(pcidev) pre(copy(ref(struct pci_dev), pcidev)) \
       post(if (return < 0) transfer(ref(struct pci_dev), pcidev))";
      "principal(dev) pre(transfer(skb_caps(skb))) \
       post(if (return == 16) transfer(skb_caps(skb)))";
    ]

let test_structure () =
  match parse "principal(dev) pre(transfer(skb_caps(skb)))" with
  | [ A.Principal (A.Pexpr (A.Cparam "dev")); A.Pre (A.Transfer (A.Iter ("skb_caps", [ A.Cparam "skb" ]))) ]
    -> ()
  | other -> Alcotest.failf "unexpected structure: %s" (A.to_string other)

let test_cexpr_precedence () =
  match parse "pre(if (a + b * 2 < c) check(write, p, 8))" with
  | [ A.Pre (A.Cif (A.Cbin (A.Olt, A.Cbin (A.Oadd, A.Cparam "a", A.Cbin (A.Omul, A.Cparam "b", A.Cint 2L)), A.Cparam "c"), _)) ]
    -> ()
  | other -> Alcotest.failf "precedence broken: %s" (A.to_string other)

let test_sizeof () =
  match parse "pre(check(write, p, sizeof(struct sk_buff)))" with
  | [ A.Pre (A.Check (A.Inline (A.Write, A.Cparam "p", Some (A.Csizeof "sk_buff")))) ] -> ()
  | other -> Alcotest.failf "sizeof broken: %s" (A.to_string other)

let test_negative_and_hex () =
  (match parse "post(if (return == -16) transfer(write, p, 8))" with
  | [ A.Post (A.Cif (A.Cbin (A.Oeq, A.Creturn, A.Cneg (A.Cint 16L)), _)) ] -> ()
  | o -> Alcotest.failf "negative literal: %s" (A.to_string o));
  match parse "pre(check(write, p, 0x40))" with
  | [ A.Pre (A.Check (A.Inline (_, _, Some (A.Cint 64L)))) ] -> ()
  | o -> Alcotest.failf "hex literal: %s" (A.to_string o)

let test_special_ref_types () =
  (* Guideline 3: REF with a special (non-struct) type for fixed values *)
  match parse "pre(check(ref(io_port), port))" with
  | [ A.Pre (A.Check (A.Inline (A.Ref "io_port", A.Cparam "port", None))) ] -> ()
  | o -> Alcotest.failf "special ref type: %s" (A.to_string o)

let test_parse_errors () =
  List.iter
    (fun s ->
      match P.parse s with
      | Ok t -> Alcotest.failf "%S should not parse, got %s" s (A.to_string t)
      | Error _ -> ())
    [
      "pre(copy(write))" (* missing pointer *);
      "pre(grant(write, p))" (* unknown action *);
      "before(check(write, p))" (* unknown clause *);
      "pre(check(write, p)" (* unbalanced *);
      "pre(check(write p))" (* missing comma *);
      "principal()" (* empty principal *);
      "pre(if () check(write, p))" (* empty condition *);
    ]

let test_empty_annotation () =
  Alcotest.(check int) "empty parses to []" 0 (List.length (parse ""))

let test_hash_discrimination () =
  let h s params = Annot.Hash.of_annot ~params (parse s) in
  let a = h "pre(check(write, p, 8))" [ "p" ] in
  Alcotest.(check bool) "same annot same hash" true
    (Int64.equal a (h "pre(check(write, p, 8))" [ "p" ]));
  Alcotest.(check bool) "different size differs" false
    (Int64.equal a (h "pre(check(write, p, 16))" [ "p" ]));
  Alcotest.(check bool) "different action differs" false
    (Int64.equal a (h "pre(copy(write, p, 8))" [ "p" ]));
  Alcotest.(check bool) "different params differ" false
    (Int64.equal a (h "pre(check(write, p, 8))" [ "p"; "q" ]));
  Alcotest.(check bool) "pre vs post differs" false
    (Int64.equal a (h "post(check(write, p, 8))" [ "p" ]));
  Alcotest.(check bool) "empty hash differs" false (Int64.equal a Annot.Hash.empty)

let test_accessors () =
  let t =
    parse
      "principal(dev) pre(check(write, a, 4)) pre(copy(write, b, 4)) \
       post(transfer(write, c, 4))"
  in
  Alcotest.(check int) "two pre actions" 2 (List.length (A.pre_actions t));
  Alcotest.(check int) "one post action" 1 (List.length (A.post_actions t));
  match A.principal_of t with
  | Some (A.Pexpr (A.Cparam "dev")) -> ()
  | _ -> Alcotest.fail "principal_of"

let test_validation () =
  let v annot params =
    match P.parse annot with
    | Error e -> Alcotest.failf "parse failed: %s" (P.error_to_string e)
    | Ok t -> A.validate ~params t
  in
  Alcotest.(check bool) "known params pass" true
    (v "pre(check(write, buf, len))" [ "buf"; "len" ] = Ok ());
  Alcotest.(check bool) "return in post passes" true
    (v "post(if (return != 0) copy(write, return, 8))" [] = Ok ());
  Alcotest.(check bool) "unknown param rejected" true
    (Result.is_error (v "pre(check(write, bogus, 8))" [ "buf" ]));
  Alcotest.(check bool) "return in pre rejected" true
    (Result.is_error (v "pre(check(write, return, 8))" [ "buf" ]));
  Alcotest.(check bool) "unknown param in iterator arg rejected" true
    (Result.is_error (v "pre(transfer(skb_caps(nope)))" [ "skb" ]));
  Alcotest.(check bool) "unknown principal rejected" true
    (Result.is_error (v "principal(nope)" [ "dev" ]));
  (* the registry enforces it at definition time, as a structured error *)
  let r = Annot.Registry.create () in
  let define ~name ~params ~annot_src =
    Result.bind (Annot.Registry.make_src ~name ~params ~annot_src) (Annot.Registry.add r)
  in
  (match define ~name:"bad.slot" ~params:[ "a" ] ~annot_src:"principal(b)" with
  | Error (Annot.Registry.Invalid { name = "bad.slot"; _ }) -> ()
  | Error e ->
      Alcotest.failf "wrong error kind: %s" (Annot.Registry.error_to_string e)
  | Ok _ -> Alcotest.fail "registry must reject invalid annotations");
  (* unparsable source is reported with the parser diagnostic attached *)
  match define ~name:"bad.syntax" ~params:[] ~annot_src:"pre(" with
  | Error (Annot.Registry.Parse { name = "bad.syntax"; err; _ }) ->
      Alcotest.(check bool) "parse error has a position" true (err.P.err_pos <> None)
  | Error e -> Alcotest.failf "wrong error kind: %s" (Annot.Registry.error_to_string e)
  | Ok _ -> Alcotest.fail "registry must reject unparsable annotations"

let test_registry () =
  let r = Annot.Registry.create () in
  let s = Annot.Registry.define_exn r ~name:"t.f" ~params:[ "a" ] ~annot_src:"principal(a)" in
  Alcotest.(check bool) "registered" true (Annot.Registry.mem r "t.f");
  Alcotest.(check bool) "the registered declaration" true (Annot.Registry.find r "t.f" == s);
  (match
     Result.bind
       (Annot.Registry.make_src ~name:"t.f" ~params:[ "a" ] ~annot_src:"")
       (Annot.Registry.add r)
   with
  | Error (Annot.Registry.Duplicate "t.f") -> ()
  | Error e -> Alcotest.failf "wrong duplicate error: %s" (Annot.Registry.error_to_string e)
  | Ok _ -> Alcotest.fail "duplicate must be rejected");
  Alcotest.check_raises "unknown slot" (Annot.Registry.Unknown_slot "t.g") (fun () ->
      ignore (Annot.Registry.find r "t.g"))

let test_error_positions () =
  (* the parser names the offending token and where it sits *)
  (match P.parse "pre(grant(write, p))" with
  | Ok _ -> Alcotest.fail "grant must not parse"
  | Error e ->
      Alcotest.(check (option string)) "token" (Some "grant") e.P.err_token;
      Alcotest.(check (option int)) "position" (Some 4) e.P.err_pos);
  (match P.parse "pre(check(write, p)" with
  | Ok _ -> Alcotest.fail "unbalanced must not parse"
  | Error e ->
      (* truncated input: the error points at end-of-string *)
      Alcotest.(check (option int)) "eof position" (Some 19) e.P.err_pos);
  match P.parse "before(check(write, p))" with
  | Ok _ -> Alcotest.fail "unknown clause must not parse"
  | Error e ->
      let rendered = P.error_to_string ~src:"before(check(write, p))" e in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "rendering names the token" true (contains rendered "before")

let () =
  Alcotest.run "annot"
    [
      ( "parser",
        [
          Alcotest.test_case "paper examples roundtrip" `Quick test_paper_examples;
          Alcotest.test_case "ast structure" `Quick test_structure;
          Alcotest.test_case "cexpr precedence" `Quick test_cexpr_precedence;
          Alcotest.test_case "sizeof" `Quick test_sizeof;
          Alcotest.test_case "negative + hex literals" `Quick test_negative_and_hex;
          Alcotest.test_case "special ref types" `Quick test_special_ref_types;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "error positions" `Quick test_error_positions;
          Alcotest.test_case "empty annotation" `Quick test_empty_annotation;
        ] );
      ( "hash",
        [
          Alcotest.test_case "discrimination" `Quick test_hash_discrimination;
          Alcotest.test_case "accessors" `Quick test_accessors;
        ] );
      ( "registry",
        [
          Alcotest.test_case "define/find" `Quick test_registry;
          Alcotest.test_case "static validation" `Quick test_validation;
        ] );
    ]
