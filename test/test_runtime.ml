(* Tests of the runtime reference monitor: guards, wrappers, annotation
   semantics, the kernel indirect-call checker, and the privileged
   builtins. *)

open Kernel_sim
open Lxfi

let boot ?(config = Config.lxfi) () =
  let kst = Kstate.boot () in
  let rt = Runtime.create ~kst ~config in
  Runtime.install rt;
  (kst, rt)

(* A module with a writable global and an exported entry point used to
   exercise the wrapper path. *)
let probe_prog : Mir.Ast.prog =
  let open Mir.Builder in
  prog "probe_mod" ~imports:[ "kzalloc_like"; "take_buffer" ]
    ~globals:[ global "scratch" 64 ]
    ~funcs:
      [
        func "entry" [ "arg" ]
          [ store64 (glob "scratch") (v "arg"); ret (load64 (glob "scratch")) ]
          ~export:"test.entry";
      ]

let setup ?(config = Config.lxfi) () =
  let kst, rt = boot ~config () in
  ignore
    (Annot.Registry.define_exn rt.Runtime.registry ~name:"test.entry" ~params:[ "arg" ]
       ~annot_src:"principal(arg)");
  (* kzalloc_like grants WRITE for its return; take_buffer transfers a
     buffer away from the caller. *)
  let heap = ref 0x2_0100_0000 in
  ignore
    (Runtime.register_kexport_exn rt ~name:"kzalloc_like" ~params:[ "size" ]
       ~annot_src:"post(if (return != 0) copy(write, return, size))" (fun args ->
         let size = Int64.to_int (List.nth args 0) in
         let a = !heap in
         heap := !heap + ((size + 15) land lnot 15);
         Int64.of_int a));
  ignore
    (Runtime.register_kexport_exn rt ~name:"take_buffer" ~params:[ "buf"; "size" ]
       ~annot_src:"pre(transfer(write, buf, size))" (fun _ -> 0L));
  let mi, _ = Loader.load rt probe_prog in
  (kst, rt, mi)

let test_guard_write_allows_owned () =
  let _, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let data =
    match List.find_opt (fun (n, _, _) -> n = "data") mi.Runtime.mi_sections with
    | Some (_, base, _) -> base
    | None -> Alcotest.fail "no data section"
  in
  Runtime.guard_write rt mi ~addr:data ~size:8 (* must not raise *)

let test_guard_write_denies_foreign () =
  let kst, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let victim = Slab.kmalloc kst.Kstate.slab 64 in
  try
    Runtime.guard_write rt mi ~addr:victim ~size:8;
    Alcotest.fail "expected write-denied"
  with Violation.Violation v ->
    Alcotest.(check string) "kind" "write-denied" (Violation.kind_name v.Violation.v_kind)

let test_guard_write_user_space_allowed () =
  let kst, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let u = Kstate.user_alloc kst 64 in
  Runtime.guard_write rt mi ~addr:u ~size:8 (* blanket user window *)

let test_guard_indcall () =
  let _, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let own = Hashtbl.find mi.Runtime.mi_func_addr "entry" in
  Runtime.guard_indcall rt mi ~target:own (* own functions callable *);
  try
    Runtime.guard_indcall rt mi ~target:0xdead0;
    Alcotest.fail "expected call-denied"
  with Violation.Violation v ->
    Alcotest.(check string) "kind" "call-denied" (Violation.kind_name v.Violation.v_kind)

let test_kexport_grant_flow () =
  let _, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let ke = Runtime.find_kexport rt "kzalloc_like" in
  let buf = Int64.to_int (Runtime.call_kexport rt ke [ 128L ]) in
  Alcotest.(check bool) "WRITE granted by post(copy)" true
    (Runtime.principal_has rt mi.Runtime.mi_shared
       (Capability.Cwrite { base = buf; size = 128 }));
  (* transfer takes it away again *)
  let tk = Runtime.find_kexport rt "take_buffer" in
  ignore (Runtime.call_kexport rt tk [ Int64.of_int buf; 128L ]);
  Alcotest.(check bool) "WRITE revoked by pre(transfer)" false
    (Runtime.principal_has rt mi.Runtime.mi_shared
       (Capability.Cwrite { base = buf; size = 128 }))

let test_transfer_requires_ownership () =
  let _, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let tk = Runtime.find_kexport rt "take_buffer" in
  try
    ignore (Runtime.call_kexport rt tk [ Int64.of_int 0x2_00dd_dd00; 64L ]);
    Alcotest.fail "expected violation"
  with Violation.Violation v ->
    Alcotest.(check string) "cap source checked" "write-denied"
      (Violation.kind_name v.Violation.v_kind)

let test_conditional_post_respects_return () =
  let kst, rt, mi = setup () in
  ignore kst;
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  (* kzalloc_like with size 0 still returns nonzero here; simulate the
     conditional by a new export returning 0 *)
  ignore
    (Runtime.register_kexport_exn rt ~name:"failing_alloc" ~params:[ "size" ]
       ~annot_src:"post(if (return != 0) copy(write, return, size))" (fun _ -> 0L));
  let ke = Runtime.find_kexport rt "failing_alloc" in
  let granted0 = rt.Runtime.stats.Stats.caps_granted in
  ignore (Runtime.call_kexport rt ke [ 64L ]);
  Alcotest.(check int) "no grant on failure return" granted0
    rt.Runtime.stats.Stats.caps_granted

(* A second export of the same name is refused, as a second slot type
   is: replacing it would silently swap the contract the kernel
   enforces on every caller. *)
let test_duplicate_kexport_rejected () =
  let kst, rt, _ = setup () in
  let first = Runtime.find_kexport rt "kzalloc_like" in
  let decl =
    Annot.Registry.ok_exn
      (Annot.Registry.make_src ~name:"kzalloc_like" ~params:[ "size" ] ~annot_src:"")
  in
  Alcotest.(check bool) "the impostor's contract differs" false
    (Int64.equal decl.Annot.Registry.sl_ahash first.Runtime.ke_ahash);
  (match Runtime.register_kexport rt decl (fun _ -> 0L) with
  | Error (Annot.Registry.Duplicate "kzalloc_like") -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Annot.Registry.error_to_string e)
  | Ok _ -> Alcotest.fail "a second kzalloc_like must be rejected");
  let now = Runtime.find_kexport rt "kzalloc_like" in
  Alcotest.(check bool) "first export kept" true (now == first);
  Alcotest.(check int64) "ahash unchanged" first.Runtime.ke_ahash now.Runtime.ke_ahash;
  match Kstate.target_of kst first.Runtime.ke_addr with
  | Some tg ->
      Alcotest.(check bool) "raw dispatch runs the first impl" true (tg.Kstate.t_run [ 16L ] <> 0L)
  | None -> Alcotest.fail "kzalloc_like lost its dispatch entry"

let test_wrapper_principal_selection () =
  let _, rt, mi = setup () in
  (* kernel invokes the module's entry through its slot: principal(arg)
     names the instance by the first argument *)
  ignore (Runtime.invoke_module_function rt mi "entry" [ 0x7777L ]);
  Alcotest.(check bool) "instance principal created" true
    (Hashtbl.mem mi.Runtime.mi_aliases 0x7777);
  Alcotest.(check bool) "current restored to kernel" true (rt.Runtime.current = None)

let test_unannotated_function_not_callable () =
  let _, rt, mi = setup () in
  (* direct kernel invocation of a module function with no slot type is
     the paper's unsafe default *)
  Hashtbl.remove mi.Runtime.mi_func_slot "entry";
  try
    ignore (Runtime.invoke_module_function rt mi "entry" [ 1L ]);
    Alcotest.fail "expected annotation violation"
  with Violation.Violation v ->
    Alcotest.(check string) "kind" "annotation-mismatch"
      (Violation.kind_name v.Violation.v_kind)

let test_kernel_indcall_hash_mismatch () =
  let kst, rt, mi = setup () in
  (* store the module's entry (hash of test.entry) into a slot of a
     DIFFERENT type: the runtime must refuse the laundering *)
  ignore
    (Annot.Registry.define_exn rt.Runtime.registry ~name:"test.other" ~params:[ "x" ]
       ~annot_src:"principal(global)");
  let data =
    match List.find_opt (fun (n, _, _) -> n = "data") mi.Runtime.mi_sections with
    | Some (_, base, _) -> base
    | None -> assert false
  in
  let entry = Hashtbl.find mi.Runtime.mi_func_addr "entry" in
  Kmem.write_ptr kst.Kstate.mem data entry;
  try
    ignore (Kstate.call_ptr kst ~slot:data ~ftype:"test.other" [ 1L ]);
    Alcotest.fail "expected annotation-mismatch"
  with Violation.Violation v ->
    Alcotest.(check string) "kind" "annotation-mismatch"
      (Violation.kind_name v.Violation.v_kind)

let test_kernel_indcall_matching_hash_ok () =
  let kst, _rt, mi = setup () in
  let data =
    match List.find_opt (fun (n, _, _) -> n = "data") mi.Runtime.mi_sections with
    | Some (_, base, _) -> base
    | None -> assert false
  in
  let entry = Hashtbl.find mi.Runtime.mi_func_addr "entry" in
  Kmem.write_ptr kst.Kstate.mem data entry;
  let r = Kstate.call_ptr kst ~slot:data ~ftype:"test.entry" [ 5L ] in
  Alcotest.(check int64) "dispatched through wrapper" 5L r

let test_writers_of () =
  let _, rt, mi = setup () in
  let data =
    match List.find_opt (fun (n, _, _) -> n = "data") mi.Runtime.mi_sections with
    | Some (_, base, _) -> base
    | None -> assert false
  in
  (match Runtime.writers_of rt ~addr:data with
  | [ p ] -> Alcotest.(check string) "shared wrote the data section" "probe_mod/shared"
               (Principal.describe p)
  | l -> Alcotest.failf "expected one writer, got %d" (List.length l));
  (* kernel memory nobody was granted: no writers *)
  Alcotest.(check int) "kernel data has no writers" 0
    (List.length (Runtime.writers_of rt ~addr:0x2_0FFF_0000))

let test_inspect_capture () =
  let _, rt, mi = setup () in
  ignore (Runtime.invoke_module_function rt mi "entry" [ 0x4242L ]);
  let lines = String.split_on_char '\n' (Inspect.to_string rt) in
  let has_line p = List.exists p lines in
  Alcotest.(check bool) "mode" true
    (has_line (String.starts_with ~prefix:"LXFI state (mode lxfi, executing (kernel))"));
  Alcotest.(check bool) "module line" true
    (has_line (String.equal "module probe_mod (1 functions, 1 globals)"));
  Alcotest.(check bool) "instance principal visible with its name" true
    (has_line (fun l ->
         String.starts_with ~prefix:"  probe_mod/instance(0x4242)" l
         && String.ends_with ~suffix:" names:[0x4242]" l))

let test_current_module () =
  let _, rt, mi = setup () in
  Alcotest.(check bool) "kernel context: no module" true (Runtime.current_module rt = None);
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  (match Runtime.current_module rt with
  | Some m -> Alcotest.(check string) "resolved" "probe_mod" m.Runtime.mi_name
  | None -> Alcotest.fail "current module lost");
  rt.Runtime.current <- None

let test_stats_move () =
  let _, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let s0 = Stats.snapshot rt.Runtime.stats in
  let ke = Runtime.find_kexport rt "kzalloc_like" in
  ignore (Runtime.call_kexport rt ke [ 16L ]);
  let d = Stats.since rt.Runtime.stats s0 in
  Alcotest.(check bool) "entry counted" true (d.Stats.fn_entry >= 1);
  Alcotest.(check bool) "annotation counted" true (d.Stats.annotation_actions >= 1)

(* A crossing whose argument count differs from the declared parameters
   oopses the way the MIR engine reports a bad direct call, before the
   wrapper moves any counter or runs any annotation action. *)
let expect_arity_oops rt msg f =
  let s0 = Stats.snapshot rt.Runtime.stats in
  (match f () with
  | _ -> Alcotest.fail "expected an arity oops"
  | exception Kstate.Oops m -> Alcotest.(check string) "oops message" msg m);
  List.iter
    (fun (c : Stats.counter) ->
      Alcotest.(check int) (c.Stats.name ^ " unmoved") 0
        (c.Stats.get (Stats.since rt.Runtime.stats s0)))
    Stats.all

let test_kexport_arity_mismatch () =
  let _, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let ke = Runtime.find_kexport rt "kzalloc_like" in
  expect_arity_oops rt "module probe_mod: kzalloc_like arity mismatch (2 args, want 1)"
    (fun () -> Runtime.call_kexport rt ke [ 16L; 16L ]);
  match rt.Runtime.current with
  | Some p when p == mi.Runtime.mi_shared -> ()
  | _ -> Alcotest.fail "the caller must stay current"

let test_module_function_arity_mismatch () =
  let _, rt, mi = setup () in
  expect_arity_oops rt "module probe_mod: entry arity mismatch (0 args, want 1)"
    (fun () -> Runtime.invoke_module_function rt mi "entry" []);
  Alcotest.(check bool) "no instance principal created" true
    (Hashtbl.length mi.Runtime.mi_aliases = 0);
  Alcotest.(check bool) "current still the kernel" true (rt.Runtime.current = None)

let () =
  Klog.quiet ();
  Alcotest.run "runtime"
    [
      ( "module guards",
        [
          Alcotest.test_case "write to owned memory" `Quick test_guard_write_allows_owned;
          Alcotest.test_case "write to foreign memory" `Quick test_guard_write_denies_foreign;
          Alcotest.test_case "write to user space" `Quick test_guard_write_user_space_allowed;
          Alcotest.test_case "indirect call caps" `Quick test_guard_indcall;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "grant flow (copy/transfer)" `Quick test_kexport_grant_flow;
          Alcotest.test_case "transfer checks ownership" `Quick
            test_transfer_requires_ownership;
          Alcotest.test_case "conditional post" `Quick test_conditional_post_respects_return;
          Alcotest.test_case "duplicate kexport rejected" `Quick test_duplicate_kexport_rejected;
        ] );
      ( "wrappers",
        [
          Alcotest.test_case "principal selection" `Quick test_wrapper_principal_selection;
          Alcotest.test_case "unannotated functions blocked" `Quick
            test_unannotated_function_not_callable;
          Alcotest.test_case "stats counted" `Quick test_stats_move;
          Alcotest.test_case "writers_of" `Quick test_writers_of;
          Alcotest.test_case "inspect capture" `Quick test_inspect_capture;
          Alcotest.test_case "current_module" `Quick test_current_module;
          Alcotest.test_case "kexport arity mismatch oopses" `Quick
            test_kexport_arity_mismatch;
          Alcotest.test_case "module function arity mismatch oopses" `Quick
            test_module_function_arity_mismatch;
        ] );
      ( "kernel ind-call",
        [
          Alcotest.test_case "hash mismatch refused" `Quick test_kernel_indcall_hash_mismatch;
          Alcotest.test_case "matching hash dispatches" `Quick
            test_kernel_indcall_matching_hash_ok;
        ] );
    ]
