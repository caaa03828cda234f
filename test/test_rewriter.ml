(* Tests of the compile-time rewriter (§4.2): guard insertion, the
   safe-store elision, trivial-function inlining, and the cases the
   rewriter must refuse. *)

open Mir.Builder
module RW = Lxfi.Rewriter

let cfg = Lxfi.Config.lxfi

let cfg_noopt = Lxfi.Config.lxfi_noopt

let mk funcs = prog "t" ~imports:[] ~globals:[ global "g" 64 ] ~funcs

let rec count_guards_stmt = function
  | Mir.Ast.Guard _ -> 1
  | Mir.Ast.If (_, a, b) -> count_guards a + count_guards b
  | Mir.Ast.While (_, b) -> count_guards b
  | _ -> 0

and count_guards stmts = List.fold_left (fun acc s -> acc + count_guards_stmt s) 0 stmts

let guards_in prog =
  List.fold_left (fun acc (f : Mir.Ast.func) -> acc + count_guards f.Mir.Ast.body) 0
    prog.Mir.Ast.funcs

let test_store_gets_guard () =
  let p = mk [ func "f" [] [ store64 (glob "g") (ii 1); ret0 ] ] in
  let p', r = RW.instrument cfg_noopt p in
  Alcotest.(check int) "one write guard" 1 r.RW.r_write_guards;
  Alcotest.(check int) "guard statement present" 1 (guards_in p');
  Alcotest.(check bool) "size grew" true (r.RW.r_inst_size > r.RW.r_orig_size)

let test_stock_unchanged () =
  let p = mk [ func "f" [] [ store64 (glob "g") (ii 1); ret0 ] ] in
  let p', r = RW.instrument Lxfi.Config.stock p in
  Alcotest.(check int) "no guards" 0 (guards_in p');
  Alcotest.(check int) "size unchanged" r.RW.r_orig_size r.RW.r_inst_size

let test_safe_store_elided () =
  let p =
    mk
      [
        func "f" []
          [
            alloca "buf" 32;
            store64 (v "buf") (ii 1) (* offset 0, in bounds *);
            store64 (v "buf" +: ii 24) (ii 2) (* offset 24+8 = 32, in bounds *);
            store64 (v "buf" +: ii 25) (ii 3) (* 25+8 > 32: out of bounds *);
            store64 (glob "g") (ii 4) (* not an alloca *);
            ret0;
          ];
      ]
  in
  let _, r = RW.instrument cfg p in
  Alcotest.(check int) "two elided" 2 r.RW.r_write_elided;
  Alcotest.(check int) "two guarded" 2 r.RW.r_write_guards

let test_elision_needs_stable_binding () =
  (* The alloca must be the only binding of its variable.  A [Let]
     after it, before it, in a branch or in a loop, a parameter of the
     same name, a second alloca, or a name the rewriter uses for its
     own temporaries each leave another address the store could go
     through, so the store must be guarded. *)
  let cases =
    [
      ("let after", [], [ alloca "buf" 32; let_ "buf" (v "buf" +: ii 16) ]);
      ("let before", [], [ let_ "buf" (glob "g"); alloca "buf" 32 ]);
      ("parameter", [ "buf" ], [ alloca "buf" 32 ]);
      ("let in a branch", [], [ if_ (ii 0) [ let_ "buf" (glob "g") ] []; alloca "buf" 32 ]);
      ("let in a loop", [], [ alloca "buf" 32; while_ (ii 0) [ let_ "buf" (glob "g") ] ]);
      ("two allocas", [], [ alloca "buf" 8; alloca "buf" 32 ]);
    ]
  in
  List.iter
    (fun (name, params, prefix) ->
      let p = mk [ func "f" params (prefix @ [ store64 (v "buf") (ii 1); ret0 ]) ] in
      let _, r = RW.instrument cfg p in
      Alcotest.(check int) (name ^ ": not elided") 0 r.RW.r_write_elided;
      Alcotest.(check int) (name ^ ": guarded") 1 r.RW.r_write_guards)
    cases;
  let p =
    mk
      [
        func "f" []
          [
            alloca "__lxfi1" 32;
            store64 (glob "g") (ii 1) (* its guard rebinds __lxfi1 to &g *);
            store64 (v "__lxfi1") (ii 2);
            ret0;
          ];
      ]
  in
  let _, r = RW.instrument cfg p in
  Alcotest.(check int) "temporary name: not elided" 0 r.RW.r_write_elided

let test_indirect_call_guarded () =
  let p =
    mk
      [
        func "f" []
          [
            let_ "fp" (load64 (glob "g"));
            let_ "x" (call_ind (v "fp") [ ii 1 ]);
            ret (v "x");
          ];
      ]
  in
  let p', r = RW.instrument cfg p in
  Alcotest.(check int) "one indirect guard" 1 r.RW.r_indcall_guards;
  Alcotest.(check int) "guard present" 1 (guards_in p')

let test_nested_indirect_rejected () =
  (* an indirect call buried in a subexpression cannot be guarded; the
     rewriter refuses it like the paper's plugin refuses untraceable
     pointers (§7) *)
  let p =
    mk
      [
        func "f" []
          [ ret (ii 1 +: call_ind (load64 (glob "g")) []) ];
      ]
  in
  match RW.instrument cfg p with
  | exception RW.Rewrite_error _ -> ()
  | _ -> Alcotest.fail "expected rewrite error"

(* The same refusal at every expression position ([Positions.all]).
   Each case's control, with a constant in the hole, is accepted, so the
   refusal comes from the nested call alone. *)
let test_nested_indirect_every_position () =
  List.iter
    (fun (name, at) ->
      (match RW.instrument cfg (Positions.prog_of (at (call_ind (load64 (glob "g")) []))) with
      | exception RW.Rewrite_error _ -> ()
      | _ -> Alcotest.failf "%s: nested indirect call accepted" name);
      match RW.instrument cfg (Positions.prog_of (at (ii 0))) with
      | _ -> ()
      | exception RW.Rewrite_error e -> Alcotest.failf "%s: control refused: %s" name e)
    Positions.all

let test_trivial_inlining () =
  let p =
    mk
      [
        func "double" [ "x" ] [ ret (v "x" *: ii 2) ];
        func "f" [] [ ret (call "double" [ ii 21 ]) ];
      ]
  in
  let p', r = RW.instrument cfg p in
  Alcotest.(check int) "one call inlined" 1 r.RW.r_inlined_calls;
  Alcotest.(check int) "leaf dropped" 1 r.RW.r_dropped_funcs;
  Alcotest.(check int) "one function remains" 1 (List.length p'.Mir.Ast.funcs)

let test_inlining_preserves_semantics () =
  (* run the instrumented program and compare with the original *)
  let p =
    mk
      [
        func "triple" [ "x" ] [ ret (v "x" *: ii 3) ];
        func "f" [ "n" ] [ ret (call "triple" [ v "n" ] +: call "triple" [ ii 2 ]) ];
      ]
  in
  let run prog =
    let kst = Kernel_sim.Kstate.boot () in
    let globals = Hashtbl.create 4 in
    List.iter
      (fun (g : Mir.Ast.glob) ->
        Hashtbl.replace globals g.Mir.Ast.gname
          (Kernel_sim.Kstate.alloc_module_area kst (max 16 g.Mir.Ast.gsize)))
      prog.Mir.Ast.globals;
    let ctx =
      Mir.Interp.create ~kst ~prog
        ~global_addr:(Hashtbl.find globals)
        ~func_addr:(fun f -> Hashtbl.hash f)
        ~ext_addr:(fun _ -> 0)
        ~call_ext:(fun _ _ -> 0L)
        ~guard_write:(fun ~addr:_ ~size:_ -> ())
        ~guard_indcall:(fun ~target:_ -> ())
        ~on_entry:(fun _ -> ())
        ~on_exit:(fun _ -> ())
        ~hooks_enabled:false
        ~stack_base:(Kernel_sim.Kstate.alloc_module_area kst 4096)
        ~stack_len:4096
    in
    Mir.Interp.run ctx "f" [ 5L ]
  in
  let p', _ = RW.instrument cfg p in
  Alcotest.(check int64) "same result" (run p) (run p')

let test_no_double_duplication_of_effects () =
  (* a trivial function whose parameter appears twice must NOT be
     inlined when the argument could carry effects *)
  let p =
    mk
      [
        func "square" [ "x" ] [ ret (v "x" *: v "x") ];
        func "bump_and_get" []
          [
            store64 (glob "g") (load64 (glob "g") +: ii 1);
            ret (load64 (glob "g"));
          ];
        func "f" [] [ ret (call "square" [ call "bump_and_get" [] ]) ];
      ]
  in
  let p', _ = RW.instrument cfg p in
  (* square must still exist because it was not inlined *)
  Alcotest.(check bool) "square survives" true
    (Mir.Ast.find_func p' "square" <> None)

let test_exported_functions_survive_inlining () =
  let p =
    prog "t" ~imports:[] ~globals:[]
      ~funcs:[ func "cb" [ "x" ] [ ret (v "x") ] ~export:"bench.entry" ]
  in
  let p', _ = RW.instrument cfg p in
  Alcotest.(check bool) "exported trivial function kept" true
    (Mir.Ast.find_func p' "cb" <> None)

let test_address_taken_survive () =
  let p =
    prog "t" ~imports:[]
      ~globals:[ global "tbl" 8 ~init:[ init_func 0 "cb" ] ]
      ~funcs:
        [
          func "cb" [ "x" ] [ ret (v "x") ];
          func "f" [] [ ret (call "cb" [ ii 3 ]) ];
        ]
  in
  let p', _ = RW.instrument cfg p in
  Alcotest.(check bool) "address-taken function kept" true
    (Mir.Ast.find_func p' "cb" <> None)

let test_double_instrumentation_rejected () =
  let p = mk [ func "f" [] [ store64 (glob "g") (ii 1); ret0 ] ] in
  let p', _ = RW.instrument cfg p in
  match RW.instrument cfg p' with
  | exception RW.Rewrite_error _ -> ()
  | _ -> Alcotest.fail "re-instrumenting must fail"

(* Safe-store elision trusts that an alloca buffer lies inside the
   module stack.  A negative alloca size used to move the stack pointer
   down by that much, so the next buffer's unguarded store could land on
   any kernel object below the stack: here, a slab object.  The engine
   must refuse the size instead, under both isolating configs. *)
let atk_slot = Kmodules.Ksys.declare "atk.entry" [] ""

let alloca_escape_prog ~down ~off =
  prog "atk" ~imports:[] ~globals:[]
    ~funcs:
      [
        func "entry" []
          [
            alloca "junk" (-down);
            alloca "buf" 64;
            store64 (v "buf" +: ii off) (ii 0x4141_4141);
            ret0;
          ]
          ~export:"atk.entry";
      ]

let boot_with_victim config =
  let sys = Kmodules.Ksys.boot config in
  Kmodules.Ksys.add_slots sys [ atk_slot ];
  let kst = sys.Kmodules.Ksys.kst in
  let victim = Kernel_sim.Slab.kmalloc kst.Kernel_sim.Kstate.slab 64 in
  Kernel_sim.Kmem.write_u64 kst.Kernel_sim.Kstate.mem victim 0x5a5aL;
  (sys, victim)

let test_alloca_cannot_leave_stack config () =
  (* Where the module stack lands: the layout is deterministic, so a
     probe load of the same shape finds it. *)
  let sys, victim = boot_with_victim config in
  let mi, _ = Kmodules.Ksys.load sys (alloca_escape_prog ~down:0 ~off:0) in
  let stack_base = mi.Lxfi.Runtime.mi_stack_base in
  (* alloca rounds its size up to 16 bytes; [off] covers the rest *)
  let down = stack_base - victim in
  let moved = (-down + 15) land lnot 15 in
  let off = victim - (stack_base + moved) in
  let sys, victim' = boot_with_victim config in
  let mi, report = Kmodules.Ksys.load sys (alloca_escape_prog ~down ~off) in
  Alcotest.(check int) "same victim" victim victim';
  Alcotest.(check int) "same stack" stack_base mi.Lxfi.Runtime.mi_stack_base;
  Alcotest.(check int) "the store is elided" 1 report.RW.r_write_elided;
  (match Lxfi.Runtime.invoke_module_function sys.Kmodules.Ksys.rt mi "entry" [] with
  | _ -> Alcotest.fail "the escaping alloca must not run"
  | exception Kernel_sim.Kstate.Oops m ->
      Alcotest.(check string) "refused" "module atk: stack overflow" m);
  Alcotest.(check int64) "slab object intact" 0x5a5aL
    (Kernel_sim.Kmem.read_u64 sys.Kmodules.Ksys.kst.Kernel_sim.Kstate.mem victim)

(* The same slab object, reached by storing through the alloca's
   variable before the alloca binds it: once through a [Let], once
   through a parameter of the same name.  Neither store may be elided,
   so the guard stops both. *)
let store_victim = store64 (v "buf") (ii 0x4141_4141)
let atk_prog funcs = prog "atk" ~imports:[] ~globals:[] ~funcs
let atk_entry body = func "entry" [] body ~export:"atk.entry"

let rebound_by_let victim =
  atk_prog [ atk_entry [ let_ "buf" (ii victim); store_victim; alloca "buf" 64; ret0 ] ]

let rebound_by_param victim =
  atk_prog
    [
      func "poke" [ "buf" ] [ store_victim; alloca "buf" 64; ret0 ];
      atk_entry [ expr (call "poke" [ ii victim ]); ret0 ];
    ]

let test_rebound_alloca_guarded config () =
  List.iter
    (fun (name, attack) ->
      let sys, victim = boot_with_victim config in
      let mi, report = Kmodules.Ksys.load sys (attack victim) in
      Alcotest.(check int) (name ^ ": not elided") 0 report.RW.r_write_elided;
      (match Lxfi.Runtime.invoke_module_function sys.Kmodules.Ksys.rt mi "entry" [] with
      | _ -> Alcotest.fail (name ^ ": the store must be refused")
      | exception Lxfi.Violation.Violation _ -> ());
      Alcotest.(check int64) (name ^ ": slab object intact") 0x5a5aL
        (Kernel_sim.Kmem.read_u64 sys.Kmodules.Ksys.kst.Kernel_sim.Kstate.mem victim))
    [ ("let", rebound_by_let); ("parameter", rebound_by_param) ]

let () =
  Alcotest.run "rewriter"
    [
      ( "guards",
        [
          Alcotest.test_case "store guarded" `Quick test_store_gets_guard;
          Alcotest.test_case "stock untouched" `Quick test_stock_unchanged;
          Alcotest.test_case "safe stores elided" `Quick test_safe_store_elided;
          Alcotest.test_case "alloca cannot leave the stack [lxfi]" `Quick
            (test_alloca_cannot_leave_stack Lxfi.Config.lxfi);
          Alcotest.test_case "alloca cannot leave the stack [xfi]" `Quick
            (test_alloca_cannot_leave_stack Lxfi.Config.xfi);
          Alcotest.test_case "rebind kills elision" `Quick test_elision_needs_stable_binding;
          Alcotest.test_case "rebound alloca variable guarded [lxfi]" `Quick
            (test_rebound_alloca_guarded Lxfi.Config.lxfi);
          Alcotest.test_case "rebound alloca variable guarded [xfi]" `Quick
            (test_rebound_alloca_guarded Lxfi.Config.xfi);
          Alcotest.test_case "indirect call guarded" `Quick test_indirect_call_guarded;
          Alcotest.test_case "nested indirect rejected" `Quick test_nested_indirect_rejected;
          Alcotest.test_case "nested indirect rejected at every position" `Quick
            test_nested_indirect_every_position;
          Alcotest.test_case "double instrumentation rejected" `Quick
            test_double_instrumentation_rejected;
        ] );
      ( "inlining",
        [
          Alcotest.test_case "trivial call inlined" `Quick test_trivial_inlining;
          Alcotest.test_case "semantics preserved" `Quick test_inlining_preserves_semantics;
          Alcotest.test_case "effectful args not duplicated" `Quick
            test_no_double_duplication_of_effects;
          Alcotest.test_case "exports survive" `Quick test_exported_functions_survive_inlining;
          Alcotest.test_case "address-taken survive" `Quick test_address_taken_survive;
        ] );
    ]
