(* The textual MIR round trip: parse (print p) = p, on the whole module
   corpus, the microbenchmarks, and qcheck-generated programs. *)

open Kmodules

let roundtrip_ok name (p : Mir.Ast.prog) =
  let text = Mir.Printer.to_string p in
  match Mir.Parser.parse_result text with
  | Error e -> Alcotest.failf "%s: re-parse failed: %s\n%s" name e text
  | Ok p2 ->
      if p <> p2 then
        Alcotest.failf "%s: round trip not identity;\nfirst print:\n%s\nsecond:\n%s" name
          text (Mir.Printer.to_string p2)

let test_corpus_roundtrip () =
  let sys = Ksys.boot Lxfi.Config.lxfi in
  List.iter
    (fun (spec : Mod_common.spec) ->
      roundtrip_ok spec.Mod_common.name (spec.Mod_common.make sys))
    Catalog.all

let test_microbench_roundtrip () =
  List.iter
    (fun (name, p) -> roundtrip_ok name p)
    [
      ("hotlist", Workloads.Microbench.hotlist_prog);
      ("lld", Workloads.Microbench.lld_prog);
      ("md5", Workloads.Microbench.md5_prog);
    ]

let test_instrumented_roundtrip () =
  (* guards print and parse too *)
  let sys = Ksys.boot Lxfi.Config.lxfi in
  let p = E1000.spec.Mod_common.make sys in
  let p', _ = Lxfi.Rewriter.instrument Lxfi.Config.lxfi p in
  roundtrip_ok "e1000 (instrumented)" p'

let test_hand_written_source () =
  let src =
    {mir|
module hello
imports: kmalloc, kfree, printk, lxfi_check:pci_dev

/* a writable counter and an ops table */
global counter[8] in .bss
global table[16] in .data : struct two_slots {
  +0 = func cb;
  +8 = u32 7;
}

func cb(x) exports cb.fn {
  return (x * 2);
}

func module_init() {
  buf = ext:kmalloc(64);
  if ((buf == 0)) {
    return -12;
  }
  *u64(buf) = 123;
  *u64(&counter) = (*u64(&counter) + 1);
  ext:kfree(buf);
  return 0;
}
|mir}
  in
  match Mir.Parser.parse_result src with
  | Error e -> Alcotest.failf "hand-written source rejected: %s" e
  | Ok p ->
      Alcotest.(check string) "name" "hello" p.Mir.Ast.pname;
      Alcotest.(check int) "imports" 4 (List.length p.Mir.Ast.imports);
      Alcotest.(check int) "globals" 2 (List.length p.Mir.Ast.globals);
      Alcotest.(check int) "funcs" 2 (List.length p.Mir.Ast.funcs);
      (match Mir.Ast.find_func p "cb" with
      | Some f -> Alcotest.(check (option string)) "export" (Some "cb.fn") f.Mir.Ast.export
      | None -> Alcotest.fail "cb missing");
      roundtrip_ok "hello" p

let test_parse_errors () =
  List.iter
    (fun (what, src) ->
      match Mir.Parser.parse_result src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should be rejected" what)
    [
      ("missing module header", "func f() { return 0; }");
      ("unterminated block", "module m\nimports: \nfunc f() { return 0;");
      ("garbage statement", "module m\nimports: \nfunc f() { 123 bad; }");
      ("bad width", "module m\nimports: \nfunc f() { *u13(1) = 2; return 0; }");
      ("unterminated comment", "module m /* oops");
    ];
  (* a negative alloca would move the stack pointer below the module
     stack; the error names the line it is on *)
  match
    Mir.Parser.parse "module m\nimports: \nfunc f() {\n  b = alloca(-4096);\n  return 0;\n}"
  with
  | _ -> Alcotest.fail "negative alloca should be rejected"
  | exception Mir.Parser.Parse_error { line; msg } ->
      Alcotest.(check int) "error line" 4 line;
      Alcotest.(check string) "error message" "negative alloca size -4096" msg

(* qcheck: generated programs survive the round trip *)

let gen_name = QCheck.Gen.(map (fun i -> Printf.sprintf "v%d" i) (int_bound 6))

let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              map (fun i -> Mir.Ast.Const (Int64.of_int (i - 500))) (int_bound 1000);
              map (fun v -> Mir.Ast.Var v) gen_name;
              map (fun v -> Mir.Ast.Glob ("g" ^ v)) gen_name;
              map (fun v -> Mir.Ast.Funcaddr ("f" ^ v)) gen_name;
              map (fun v -> Mir.Ast.Extaddr ("e" ^ v)) gen_name;
            ]
        in
        if n <= 1 then leaf
        else
          frequency
            [
              (3, leaf);
              ( 2,
                map3
                  (fun op (w, a) b -> Mir.Ast.Binop (op, w, a, b))
                  (oneofl
                     Mir.Ast.
                       [ Add; Sub; Mul; Udiv; Urem; Band; Bor; Bxor; Shl; Lshr; Eq; Ne; Lt; Le; Gt; Ge; Ult ])
                  (pair (oneofl Mir.Ast.[ W8; W16; W32; W64 ]) (self (n / 2)))
                  (self (n / 2)) );
              (2, map2 (fun w e -> Mir.Ast.Load (w, e)) (oneofl Mir.Ast.[ W8; W32; W64 ]) (self (n / 2)));
              ( 1,
                map2
                  (fun t args -> Mir.Ast.Call (Mir.Ast.Indirect t, args))
                  (self (n / 2))
                  (list_size (int_bound 2) (self (n / 3))) );
              ( 1,
                map2
                  (fun v args -> Mir.Ast.Call (Mir.Ast.Direct ("f" ^ v), args))
                  gen_name
                  (list_size (int_bound 3) (self (n / 3))) );
            ]))

let gen_stmt =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let base =
          oneof
            [
              map2 (fun v e -> Mir.Ast.Let (v, e)) gen_name gen_expr;
              map2 (fun v sz -> Mir.Ast.Alloca (v, 16 + sz)) gen_name (int_bound 64);
              map3
                (fun w a v -> Mir.Ast.Store (w, a, v))
                (oneofl Mir.Ast.[ W8; W32; W64 ])
                gen_expr gen_expr;
              map (fun e -> Mir.Ast.Expr e) gen_expr;
              map (fun e -> Mir.Ast.Return e) gen_expr;
              map2 (fun w e -> Mir.Ast.Guard (Mir.Ast.Gwrite (w, e))) (oneofl Mir.Ast.[ W32; W64 ]) gen_expr;
              map (fun e -> Mir.Ast.Guard (Mir.Ast.Gindcall e)) gen_expr;
            ]
        in
        if n <= 1 then base
        else
          frequency
            [
              (5, base);
              ( 1,
                map3
                  (fun c t e -> Mir.Ast.If (c, t, e))
                  gen_expr
                  (list_size (int_bound 3) (self (n / 3)))
                  (list_size (int_bound 2) (self (n / 3))) );
              ( 1,
                map2 (fun c b -> Mir.Ast.While (c, b)) gen_expr
                  (list_size (int_bound 3) (self (n / 3))) );
            ]))

let gen_prog =
  QCheck.Gen.(
    let gen_glob =
      map3
        (fun v sec init ->
          {
            Mir.Ast.gname = "g" ^ v;
            gsize = 64;
            gsection = sec;
            ginit = init;
            gstruct = None;
          })
        gen_name
        (oneofl Mir.Ast.[ Data; Rodata; Bss ])
        (list_size (int_bound 3)
           (oneof
              [
                map2 (fun o x -> Mir.Ast.Iword (o * 8, Mir.Ast.W64, Int64.of_int x)) (int_bound 7) (int_bound 100);
                map2 (fun o v -> Mir.Ast.Ifunc (o * 8, "f" ^ v)) (int_bound 7) gen_name;
                map2 (fun o v -> Mir.Ast.Iext (o * 8, "e" ^ v)) (int_bound 7) gen_name;
              ]))
    in
    let gen_func =
      map3
        (fun v params body ->
          { Mir.Ast.fname = "f" ^ v; params; body; export = None })
        gen_name
        (map (List.mapi (fun i p -> Printf.sprintf "%s_%d" p i)) (list_size (int_bound 3) gen_name))
        (list_size (int_bound 5) gen_stmt)
    in
    map3
      (fun imports globals funcs ->
        {
          Mir.Ast.pname = "gen";
          imports = List.sort_uniq compare (List.map (fun v -> "e" ^ v) imports);
          globals =
            List.sort_uniq compare globals
            |> List.fold_left
                 (fun acc g ->
                   if List.exists (fun h -> h.Mir.Ast.gname = g.Mir.Ast.gname) acc then acc
                   else g :: acc)
                 []
            |> List.rev;
          funcs =
            List.fold_left
              (fun acc f ->
                if List.exists (fun h -> h.Mir.Ast.fname = f.Mir.Ast.fname) acc then acc
                else f :: acc)
              [] funcs
            |> List.rev;
        })
      (list_size (int_bound 4) gen_name)
      (list_size (int_bound 3) gen_glob)
      (list_size (int_bound 4) gen_func))

let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"generated programs round trip"
    (QCheck.make ~print:Mir.Printer.to_string gen_prog)
    (fun p ->
      match Mir.Parser.parse_result (Mir.Printer.to_string p) with
      | Ok p2 -> p = p2
      | Error _ -> false)

(* The fuzzer's module generator (annotated exports, vtables,
   lock regions, kmalloc blocks) round-trips too — what makes its
   shrunk repros replayable from text. *)
let prop_fuzz_gen_roundtrip =
  QCheck.Test.make ~count:300 ~name:"fuzz-generated modules round trip"
    (QCheck.make
       ~print:(fun (c : Fuzz.Gen.case) -> Mir.Printer.to_string c.Fuzz.Gen.c_prog)
       (Fuzz.Gen.of_random_state ()))
    (fun case ->
      let p = case.Fuzz.Gen.c_prog in
      match Mir.Parser.parse_result (Mir.Printer.to_string p) with
      | Ok p2 -> p = p2
      | Error _ -> false)

let () =
  Kernel_sim.Klog.quiet ();
  Alcotest.run "mir_parser"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "module corpus" `Quick test_corpus_roundtrip;
          Alcotest.test_case "microbenchmarks" `Quick test_microbench_roundtrip;
          Alcotest.test_case "instrumented code" `Quick test_instrumented_roundtrip;
          Alcotest.test_case "hand-written source" `Quick test_hand_written_source;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest [ prop_roundtrip; prop_fuzz_gen_roundtrip ] );
    ]
