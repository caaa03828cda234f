(* Unit tests of the MIR interpreter: arithmetic semantics (including
   the 32-bit wrapping the CAN BCM bug needs), control flow, memory,
   calls, allocas, and fault behaviour. *)

open Kernel_sim
open Mir.Builder

(* Run a bare program without LXFI: direct interpreter harness. *)
let run_prog prog fname args =
  let kst = Kstate.boot () in
  let globals = Hashtbl.create 8 in
  List.iter
    (fun (g : Mir.Ast.glob) ->
      let a = Kstate.alloc_module_area kst (max 16 g.Mir.Ast.gsize) in
      Hashtbl.replace globals g.Mir.Ast.gname a)
    prog.Mir.Ast.globals;
  let stack_base = Kstate.alloc_module_area kst 4096 in
  let ctx =
    Mir.Interp.create ~kst ~prog
      ~global_addr:(Hashtbl.find globals)
      ~func_addr:(fun f ->
        match Mir.Ast.find_func prog f with
        | Some _ -> 0x4_0000_0000 + Hashtbl.hash f
        | None -> raise Not_found)
      ~ext_addr:(fun _ -> 0x1_0000_0000)
      ~call_ext:(fun _ _ -> 0L)
      ~guard_write:(fun ~addr:_ ~size:_ -> ())
      ~guard_indcall:(fun ~target:_ -> ())
      ~on_entry:(fun _ -> ())
      ~on_exit:(fun _ -> ())
      ~hooks_enabled:false ~stack_base ~stack_len:4096
  in
  (Mir.Interp.run ctx fname args, kst, ctx)

let eval_expr e =
  let p = prog "t" ~imports:[] ~globals:[] ~funcs:[ func "f" [] [ ret e ] ] in
  let r, _, _ = run_prog p "f" [] in
  r

let check_expr name expect e = Alcotest.(check int64) name expect (eval_expr e)

let test_arithmetic () =
  check_expr "add" 7L (ii 3 +: ii 4);
  check_expr "sub wraps" (-1L) (ii 3 -: ii 4);
  check_expr "mul" 12L (ii 3 *: ii 4);
  check_expr "udiv" 3L (ii 13 /: ii 4);
  check_expr "urem" 1L (ii 13 %: ii 4);
  check_expr "div by unsigned -1 is 0" 0L (ii 13 /: i (-1L));
  check_expr "and" 4L (ii 12 &: ii 6);
  check_expr "or" 14L (ii 12 |: ii 6);
  check_expr "xor" 10L (ii 12 ^: ii 6);
  check_expr "shl" 48L (ii 12 <<: ii 2);
  check_expr "lshr" 3L (ii 12 >>: ii 2);
  check_expr "lshr is logical" 1L (i Int64.min_int >>: ii 63)

let test_comparisons () =
  check_expr "eq true" 1L (ii 5 ==: ii 5);
  check_expr "eq false" 0L (ii 5 ==: ii 6);
  check_expr "ne" 1L (ii 5 <>: ii 6);
  check_expr "lt signed" 1L (i (-1L) <: ii 1);
  check_expr "ult unsigned" 0L (bin Mir.Ast.Ult Mir.Ast.W64 (i (-1L)) (ii 1));
  check_expr "le" 1L (ii 5 <=: ii 5);
  check_expr "ge" 1L (ii 5 >=: ii 5);
  check_expr "gt" 0L (ii 5 >: ii 5)

let test_narrow_signed_compares () =
  let open Mir.Ast in
  (* narrow values circulate zero-extended; signed compares must see
     them at their width (a W32 -1 is 0xFFFF_FFFF) *)
  check_expr "w32 -1 < 0" 1L (bin Lt W32 (i 0xFFFF_FFFFL) (ii 0));
  check_expr "w32 -1 <= 0" 1L (bin Le W32 (i 0xFFFF_FFFFL) (ii 0));
  check_expr "w32 0 > -1" 1L (bin Gt W32 (ii 0) (i 0xFFFF_FFFFL));
  check_expr "w32 -1 >= -2" 1L (bin Ge W32 (i 0xFFFF_FFFFL) (i 0xFFFF_FFFEL));
  check_expr "w16 -1 < 1" 1L (bin Lt W16 (i 0xFFFFL) (ii 1));
  check_expr "w8 -128 < 127" 1L (bin Lt W8 (i 0x80L) (ii 127));
  check_expr "w8 -1 > -128" 1L (bin Gt W8 (i 0xFFL) (i 0x80L));
  check_expr "w32 ult stays unsigned" 0L (bin Ult W32 (i 0xFFFF_FFFFL) (ii 1));
  check_expr "w64 unchanged" 1L (i (-1L) <: ii 1)

let test_narrow_shift_masking () =
  let open Mir.Ast in
  (* shift counts wrap at the operation width, not at 64 *)
  check_expr "w32 shl 32 = shl 0" 5L (bin Shl W32 (ii 5) (ii 32));
  check_expr "w32 shl 33 = shl 1" 10L (bin Shl W32 (ii 5) (ii 33));
  check_expr "w8 shl 8 = shl 0" 5L (bin Shl W8 (ii 5) (ii 8));
  check_expr "w8 shl truncates" 0x80L (bin Shl W8 (ii 1) (ii 7));
  check_expr "w16 lshr 17 = lshr 1" 4L (bin Lshr W16 (ii 8) (ii 17));
  check_expr "w32 lshr 32 = lshr 0" 7L (bin Lshr W32 (ii 7) (ii 32));
  check_expr "w32 lshr shifts the truncated value" 1L
    (bin Lshr W32 (i 0x1_8000_0000L) (ii 31));
  check_expr "w64 shl 64 = shl 0" 5L (ii 5 <<: ii 64)

let test_32bit_wrapping () =
  (* the CAN BCM overflow: 0x10000001 * 16 wraps to 16 in u32 *)
  check_expr "mul32 wraps" 16L (mul32 (i 0x10000001L) (ii 16));
  check_expr "add32 wraps" 0L (add32 (i 0xffffffffL) (ii 1));
  check_expr "64-bit does not wrap" 0x100000010L (i 0x10000001L *: ii 16)

let test_control_flow () =
  let p =
    prog "t" ~imports:[] ~globals:[]
      ~funcs:
        [
          func "fib" [ "n" ]
            [
              when_ (v "n" <: ii 2) [ ret (v "n") ];
              ret (call "fib" [ v "n" -: ii 1 ] +: call "fib" [ v "n" -: ii 2 ]);
            ];
          func "sum_to" [ "n" ]
            [
              let_ "acc" (ii 0);
              let_ "i" (ii 1);
              while_
                (v "i" <=: v "n")
                [ let_ "acc" (v "acc" +: v "i"); let_ "i" (v "i" +: ii 1) ];
              ret (v "acc");
            ];
        ]
  in
  let r, _, _ = run_prog p "fib" [ 10L ] in
  Alcotest.(check int64) "fib 10" 55L r;
  let r, _, _ = run_prog p "sum_to" [ 100L ] in
  Alcotest.(check int64) "gauss" 5050L r

let test_memory_and_globals () =
  let p =
    prog "t" ~imports:[]
      ~globals:[ global "counter" 8; global "buf" 64 ]
      ~funcs:
        [
          func "bump" []
            [
              store64 (glob "counter") (load64 (glob "counter") +: ii 1);
              ret (load64 (glob "counter"));
            ];
          func "mixed_widths" []
            [
              store8 (glob "buf") (ii 0xab);
              store32 (glob "buf" +: ii 4) (i 0xdeadbeefL);
              ret (load8 (glob "buf") +: load32 (glob "buf" +: ii 4));
            ];
        ]
  in
  let r, _, _ = run_prog p "bump" [] in
  Alcotest.(check int64) "counter" 1L r;
  let r, _, _ = run_prog p "mixed_widths" [] in
  Alcotest.(check int64) "width mix" (Int64.add 0xabL 0xdeadbeefL) r

let test_alloca_stack_discipline () =
  let p =
    prog "t" ~imports:[] ~globals:[]
      ~funcs:
        [
          func "leaf" []
            [ alloca "b" 32; store64 (v "b") (ii 99); ret (load64 (v "b")) ];
          func "caller" []
            [
              alloca "a" 16;
              store64 (v "a") (ii 7);
              let_ "x" (call "leaf" []);
              (* leaf's frame must not have clobbered ours *)
              ret (load64 (v "a") +: v "x");
            ];
        ]
  in
  let r, _, ctx = run_prog p "caller" [] in
  Alcotest.(check int64) "frames independent" 106L r;
  Alcotest.(check int) "stack pointer restored" ctx.Mir.Interp.stack_base
    ctx.Mir.Interp.stack_ptr

let test_stack_overflow () =
  let p =
    prog "t" ~imports:[] ~globals:[]
      ~funcs:[ func "deep" [ "n" ] [ alloca "b" 1024; ret (call "deep" [ v "n" ]) ] ]
  in
  match run_prog p "deep" [ 0L ] with
  | exception Kstate.Oops msg ->
      Alcotest.(check bool) "stack overflow detected" true
        (String.length msg > 0
        && (String.sub msg 0 6 = "module" || String.length msg > 0))
  | _ -> Alcotest.fail "expected stack overflow oops"

let test_null_deref_faults () =
  let p =
    prog "t" ~imports:[] ~globals:[]
      ~funcs:[ func "f" [] [ ret (load64 (ii 0)) ] ]
  in
  match run_prog p "f" [] with
  | exception Kmem.Fault { addr; write = false } when addr < 0x1000 -> ()
  | _ -> Alcotest.fail "expected NULL fault"

let test_divide_by_zero_oops () =
  let p =
    prog "t" ~imports:[] ~globals:[]
      ~funcs:[ func "f" [] [ ret (ii 1 /: ii 0) ] ]
  in
  match run_prog p "f" [] with
  | exception Kstate.Oops "divide error" -> ()
  | _ -> Alcotest.fail "expected divide oops"

let test_fuel_stops_infinite_loops () =
  let p =
    prog "t" ~imports:[] ~globals:[]
      ~funcs:[ func "spin" [] [ while_ (ii 1) []; ret0 ] ]
  in
  match run_prog p "spin" [] with
  | exception Kstate.Oops _ -> ()
  | _ -> Alcotest.fail "expected soft lockup"

let test_unbound_local_oops () =
  let p =
    prog "t" ~imports:[] ~globals:[] ~funcs:[ func "f" [] [ ret (v "nope") ] ]
  in
  match run_prog p "f" [] with
  | exception Kstate.Oops _ -> ()
  | _ -> Alcotest.fail "expected unbound-local oops"

let test_indirect_call_to_own_function () =
  let p =
    prog "t" ~imports:[] ~globals:[ global "slot" 8 ]
      ~funcs:
        [
          func "target" [ "x" ] [ ret (v "x" *: ii 3) ];
          func "f" []
            [
              store64 (glob "slot") (fn "target");
              let_ "fp" (load64 (glob "slot"));
              ret (call_ind (v "fp") [ ii 14 ]);
            ];
        ]
  in
  let r, _, _ = run_prog p "f" [] in
  Alcotest.(check int64) "indirect dispatch" 42L r

let test_code_size_metric () =
  let small = prog "s" ~imports:[] ~globals:[] ~funcs:[ func "f" [] [ ret0 ] ] in
  let bigger =
    prog "b" ~imports:[] ~globals:[]
      ~funcs:[ func "f" [] [ let_ "x" (ii 1 +: ii 2); ret (v "x") ] ]
  in
  Alcotest.(check bool) "size is monotone" true
    (Mir.Ast.prog_size bigger > Mir.Ast.prog_size small);
  (* the definition: a node per expression node (counted by the fold),
     per statement but an [Expr] wrapper, two per guard and two per
     function; checked on every catalog module, plain and instrumented
     (with guards) *)
  let rec stmts n = function
    | [] -> n
    | s :: l ->
        stmts
          (match (s : Mir.Ast.stmt) with
          | Expr _ -> n
          | Guard _ -> n + 2
          | If (_, t, e) -> stmts (stmts (n + 1) t) e
          | While (_, b) -> stmts (n + 1) b
          | Let _ | Alloca _ | Store _ | Return _ -> n + 1)
          l
  in
  let by_fold (p : Mir.Ast.prog) =
    List.fold_left
      (fun n (f : Mir.Ast.func) ->
        Mir.Ast.fold_stmts (fun n _ -> n + 1) (stmts (n + 2) f.body) f.body)
      0 p.funcs
  in
  let sys = Kmodules.Ksys.boot Lxfi.Config.lxfi in
  List.iter
    (fun (spec : Kmodules.Mod_common.spec) ->
      let p = spec.Kmodules.Mod_common.make sys in
      List.iter
        (fun p ->
          Alcotest.(check int) (spec.Kmodules.Mod_common.name ^ " size") (by_fold p)
            (Mir.Ast.prog_size p))
        [ p; fst (Lxfi.Rewriter.instrument Lxfi.Config.lxfi p) ])
    Kmodules.Catalog.all

(* The traversal's visit order, over a body that uses every expression
   and statement constructor.  Folds go node first, operands left to
   right, an indirect callee before its arguments, a statement's
   expressions before its nested bodies; guard operands are visited.
   [map_stmt] sees each node after its operands. *)
let test_traversal_order () =
  let open Mir.Ast in
  let label = function
    | Const n -> Int64.to_string n
    | Var x -> x
    | Glob g -> "&" ^ g
    | Funcaddr f -> "@" ^ f
    | Extaddr x -> "ext " ^ x
    | Load _ -> "load"
    | Binop _ -> "binop"
    | Call (Direct f, _) -> "call " ^ f
    | Call (Ext f, _) -> "ext call " ^ f
    | Call (Indirect _, _) -> "icall"
  in
  let body =
    [
      alloca "b" 16;
      let_ "x" (load64 (glob "g") +: v "y");
      store64 (v "b") (fn "f");
      if_ (v "x")
        [ expr (call "h" [ ii 1; ext "kfree" ]) ]
        [ Guard (Gwrite (W64, v "b")) ];
      while_ (ii 0) [ Guard (Gindcall (v "t")) ];
      ret (call_ind (v "t") [ call_ext "kfree" [ ii 2 ] ]);
    ]
  in
  let folded = fold_stmts (fun acc e -> label e :: acc) [] body in
  Alcotest.(check (list string)) "fold_stmts order"
    [
      "binop"; "load"; "&g"; "y";
      "b"; "@f";
      "x"; "call h"; "1"; "ext kfree"; "b";
      "0"; "t";
      "icall"; "t"; "ext call kfree"; "2";
    ]
    (List.rev folded);
  let mapped = ref [] in
  let body' = List.map (map_stmt (fun e -> mapped := label e :: !mapped; e)) body in
  Alcotest.(check (list string)) "map_stmt order"
    [
      "&g"; "load"; "y"; "binop";
      "b"; "@f";
      "x"; "1"; "ext kfree"; "call h"; "b";
      "0"; "t";
      "t"; "2"; "ext call kfree"; "icall";
    ]
    (List.rev !mapped);
  Alcotest.(check bool) "map_stmt keeps the body" true (body' = body)

(* [map_stmt Fun.id] rebuilds every catalog module's bodies unchanged. *)
let test_map_identity () =
  let sys = Kmodules.Ksys.boot Lxfi.Config.lxfi in
  List.iter
    (fun (spec : Kmodules.Mod_common.spec) ->
      List.iter
        (fun (f : Mir.Ast.func) ->
          if List.map (Mir.Ast.map_stmt Fun.id) f.Mir.Ast.body <> f.Mir.Ast.body then
            Alcotest.failf "%s/%s: map_stmt Fun.id changed the body"
              spec.Kmodules.Mod_common.name f.Mir.Ast.fname)
        (spec.Kmodules.Mod_common.make sys).Mir.Ast.funcs)
    Kmodules.Catalog.all

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_printer_smoke () =
  let s = Mir.Printer.to_string Workloads.Microbench.lld_prog in
  Alcotest.(check bool) "printer renders module" true (String.length s > 200);
  Alcotest.(check bool) "mentions insert" true (contains ~needle:"func insert" s);
  Alcotest.(check bool) "mentions globals" true (contains ~needle:"global head" s)

let () =
  Alcotest.run "mir"
    [
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "narrow signed compares" `Quick
            test_narrow_signed_compares;
          Alcotest.test_case "narrow shift masking" `Quick test_narrow_shift_masking;
          Alcotest.test_case "32-bit wrapping" `Quick test_32bit_wrapping;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "memory + globals" `Quick test_memory_and_globals;
          Alcotest.test_case "alloca discipline" `Quick test_alloca_stack_discipline;
          Alcotest.test_case "indirect call" `Quick test_indirect_call_to_own_function;
        ] );
      ( "faults",
        [
          Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
          Alcotest.test_case "NULL deref" `Quick test_null_deref_faults;
          Alcotest.test_case "divide by zero" `Quick test_divide_by_zero_oops;
          Alcotest.test_case "infinite loop fuel" `Quick test_fuel_stops_infinite_loops;
          Alcotest.test_case "unbound local" `Quick test_unbound_local_oops;
        ] );
      ( "tools",
        [
          Alcotest.test_case "code size metric" `Quick test_code_size_metric;
          Alcotest.test_case "traversal order" `Quick test_traversal_order;
          Alcotest.test_case "map_stmt identity on the catalog" `Quick test_map_identity;
          Alcotest.test_case "printer" `Quick test_printer_smoke;
        ] );
    ]
