(* Failure injection: violations and crashes at awkward moments must
   leave the system consistent — shadow stack balanced, principal
   restored to kernel, later legitimate work unaffected.  (The paper's
   runtime panics; a reusable simulation must clean up instead, and
   these tests pin that down.) *)

open Kernel_sim
open Kmodules
open Mir.Builder

let entry_slot = "bench.entry"

let boot () =
  let sys = Ksys.boot Lxfi.Config.lxfi in
  ignore
    (Annot.Registry.define_exn sys.Ksys.rt.Lxfi.Runtime.registry ~name:entry_slot
       ~params:[ "n" ] ~annot_src:"");
  sys

let load sys prog = fst (Ksys.load sys prog)

let consistent sys =
  Alcotest.(check int) "shadow stack balanced" 0
    (Lxfi.Shadow_stack.depth sys.Ksys.rt.Lxfi.Runtime.sstack);
  Alcotest.(check bool) "kernel context restored" true
    (sys.Ksys.rt.Lxfi.Runtime.current = None)

let expect_violation f =
  match f () with
  | _ -> Alcotest.fail "expected a violation"
  | exception Lxfi.Violation.Violation _ -> ()

(* a module whose entry misbehaves in a configurable way *)
let crashy =
  prog "crashy" ~imports:[ "kmalloc"; "kfree" ] ~globals:[ global "g" 32 ]
    ~funcs:
      [
        func "module_init" [] [ ret0 ];
        (* n=1: wild store; n=2: NULL load; n=3: divide by zero;
           n=4: infinite loop; n=5: wild indirect call; else: fine *)
        func "entry" [ "n" ]
          [
            when_ (v "n" ==: ii 1) [ store64 (i 0x2_0BAD_0000L) (ii 1); ret0 ];
            when_ (v "n" ==: ii 2) [ ret (load64 (ii 8)) ];
            when_ (v "n" ==: ii 3) [ ret (ii 1 /: ii 0) ];
            when_ (v "n" ==: ii 4) [ while_ (ii 1) []; ret0 ];
            when_ (v "n" ==: ii 5)
              [ let_ "x" (call_ind (i 0x2_0BAD_0010L) []); ret (v "x") ];
            store64 (glob "g") (v "n");
            ret (load64 (glob "g"));
          ]
          ~export:entry_slot;
      ]

let invoke sys mi n =
  Lxfi.Runtime.invoke_module_function sys.Ksys.rt mi "entry" [ Int64.of_int n ]

let test_each_failure_then_recovery () =
  let sys = boot () in
  let mi = load sys crashy in
  (* wild store: violation *)
  expect_violation (fun () -> invoke sys mi 1);
  consistent sys;
  (* NULL load: fault propagates *)
  (match invoke sys mi 2 with
  | exception Kmem.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault");
  consistent sys;
  (* divide by zero: oops *)
  (match invoke sys mi 3 with
  | exception Kstate.Oops _ -> ()
  | _ -> Alcotest.fail "expected oops");
  consistent sys;
  (* wild indirect call: violation *)
  expect_violation (fun () -> invoke sys mi 5);
  consistent sys;
  (* after all that, legitimate work still flows *)
  Alcotest.(check int64) "module still usable" 9L (invoke sys mi 9)

let test_fuel_exhaustion_cleans_up () =
  let sys = boot () in
  let mi = load sys crashy in
  (match mi.Lxfi.Runtime.mi_ctx with
  | Some ctx -> Mir.Interp.refuel ~fuel:50_000 ctx
  | None -> ());
  (match invoke sys mi 4 with
  | exception Kstate.Oops _ -> ()
  | _ -> Alcotest.fail "expected soft lockup");
  consistent sys;
  (match mi.Lxfi.Runtime.mi_ctx with
  | Some ctx -> Mir.Interp.refuel ctx
  | None -> ());
  Alcotest.(check int64) "usable after refuel" 7L (invoke sys mi 7)

let test_violation_in_pre_action_cleans_up () =
  (* a kexport whose pre(check) fails mid-wrapper *)
  let sys = boot () in
  let p =
    prog "checked" ~imports:[ "kfree" ] ~globals:[]
      ~funcs:
        [
          func "module_init" [] [ ret0 ];
          func "entry" [ "n" ]
            [ expr (call_ext "kfree" [ i 0x2_00AB_0000L ]); ret0 ]
            ~export:entry_slot;
        ]
  in
  let mi = load sys p in
  (* freeing a non-object: the kmalloc_caps iterator oopses *)
  (match Lxfi.Runtime.invoke_module_function sys.Ksys.rt mi "entry" [ 0L ] with
  | exception (Kstate.Oops _ | Lxfi.Violation.Violation _) -> ()
  | _ -> Alcotest.fail "expected failure");
  consistent sys

let test_violation_during_irq_restores_interrupted_principal () =
  let sys = boot () in
  let mi = load sys crashy in
  (* pretend a module principal was interrupted *)
  let p = Lxfi.Runtime.find_or_create_instance sys.Ksys.rt mi ~name_ptr:0x9000 in
  sys.Ksys.rt.Lxfi.Runtime.current <- Some p;
  let token = Lxfi.Runtime.irq_enter sys.Ksys.rt in
  (* the handler (module code) violates inside the interrupt *)
  expect_violation (fun () -> invoke sys mi 1);
  Lxfi.Runtime.irq_exit sys.Ksys.rt token;
  (match sys.Ksys.rt.Lxfi.Runtime.current with
  | Some q -> Alcotest.(check int) "interrupted principal restored" p.Lxfi.Principal.id q.Lxfi.Principal.id
  | None -> Alcotest.fail "principal lost");
  sys.Ksys.rt.Lxfi.Runtime.current <- None

let test_violating_module_does_not_poison_others () =
  let sys = boot () in
  let bad = load sys crashy in
  let pcidev, nic = Ksys.add_nic sys ~vendor:E1000.vendor ~device:E1000.device in
  let _ = Mod_common.install sys E1000.spec in
  expect_violation (fun () -> invoke sys bad 1);
  (* the NIC still transmits under full enforcement *)
  let dev = Pci.pci_get_drvdata sys.Ksys.pci pcidev in
  let skb = Skbuff.alloc sys.Ksys.kst 64 in
  Skbuff.set_dev sys.Ksys.kst skb dev;
  Alcotest.(check int64) "e1000 unaffected" 0L (Netdev.dev_queue_xmit sys.Ksys.net skb);
  ignore (Nic.drain_tx nic)

(* ---- quarantine mode: contain instead of propagate ---------------- *)

let obj_slot = "bench.obj_entry"

let qboot () =
  let sys = Ksys.boot Lxfi.Config.lxfi_quarantine in
  ignore
    (Annot.Registry.define_exn sys.Ksys.rt.Lxfi.Runtime.registry ~name:entry_slot
       ~params:[ "n" ] ~annot_src:"");
  ignore
    (Annot.Registry.define_exn sys.Ksys.rt.Lxfi.Runtime.registry ~name:obj_slot
       ~params:[ "obj"; "n" ] ~annot_src:"principal(obj)");
  sys

(* an innocent module loaded next to crashy *)
let buddy =
  prog "buddy" ~imports:[] ~globals:[ global "g" 32 ]
    ~funcs:
      [
        func "module_init" [] [ ret0 ];
        func "entry" [ "n" ]
          [ store64 (glob "g") (v "n"); ret (load64 (glob "g")) ]
          ~export:entry_slot;
      ]

let qdispatch sys mi n =
  Lxfi.Quarantine.dispatch sys.Ksys.rt mi "entry" [ Int64.of_int n ]

let caps_held (p : Lxfi.Principal.t) =
  Lxfi.Captable.write_count p.Lxfi.Principal.caps
  + Lxfi.Captable.call_count p.Lxfi.Principal.caps
  + Lxfi.Captable.ref_count p.Lxfi.Principal.caps

let test_quarantine_contains_each_misbehaviour () =
  List.iter
    (fun (n, what) ->
      let sys = qboot () in
      let bad = load sys crashy in
      let good = load sys buddy in
      Alcotest.(check int64) (what ^ ": caller gets -EFAULT") (-14L) (qdispatch sys bad n);
      consistent sys;
      Alcotest.(check bool) (what ^ ": offender quarantined") true
        (bad.Lxfi.Runtime.mi_shared.Lxfi.Principal.quarantined <> None);
      Alcotest.(check int) (what ^ ": capabilities revoked") 0
        (caps_held bad.Lxfi.Runtime.mi_shared);
      Alcotest.(check int64) (what ^ ": sibling module unaffected") 5L
        (qdispatch sys good 5);
      (* further entries into the quarantined module are refused but
         contained, never crash the kernel *)
      Alcotest.(check int64) (what ^ ": later entry refused cleanly") (-14L)
        (qdispatch sys bad 9);
      consistent sys)
    [
      (1, "wild store");
      (2, "NULL load");
      (3, "division by zero");
      (4, "infinite loop");
      (5, "wild indirect call");
    ]

let test_watchdog_quarantines_infinite_loop () =
  let sys = qboot () in
  let bad = load sys crashy in
  Alcotest.(check int64) "loop terminated and contained" (-14L) (qdispatch sys bad 4);
  Alcotest.(check int) "watchdog expired exactly once" 1
    sys.Ksys.rt.Lxfi.Runtime.stats.Lxfi.Stats.watchdog_expiries;
  consistent sys

let test_repeat_offender_escalates_to_retirement () =
  let sys = qboot () in
  let bad = load sys crashy in
  ignore (qdispatch sys bad 1);
  (* the quarantined principal keeps getting invoked: each refusal is a
     violation too, and the third inside the window retires the module *)
  ignore (qdispatch sys bad 6);
  ignore (qdispatch sys bad 6);
  Alcotest.(check bool) "module retired" true (bad.Lxfi.Runtime.mi_dead <> None);
  Alcotest.(check bool) "escalation counted" true
    (sys.Ksys.rt.Lxfi.Runtime.stats.Lxfi.Stats.escalations >= 1);
  Alcotest.(check int) "module gone from the runtime" 0
    (Hashtbl.length sys.Ksys.rt.Lxfi.Runtime.modules);
  consistent sys

(* a module whose entry allocates stack before faulting: every contained
   fault used to leak the frame's alloca space (the interpreter's
   exception path skipped the stack-pointer restore), so repeated
   -EFAULT containment manufactured a spurious stack overflow *)
let leaky =
  prog "leaky" ~imports:[] ~globals:[]
    ~funcs:
      [
        func "module_init" [] [ ret0 ];
        func "entry" [ "n" ]
          [
            alloca "buf" 256;
            store64 (v "buf") (v "n");
            store64 (i 0x2_0BAD_0000L) (ii 1);
            ret0;
          ]
          ~export:entry_slot;
      ]

let test_quarantined_reentry_restores_stack () =
  let sys = qboot () in
  let mi = load sys leaky in
  let ctx =
    match mi.Lxfi.Runtime.mi_ctx with
    | Some ctx -> ctx
    | None -> Alcotest.fail "no interpreter context"
  in
  let baseline = ctx.Mir.Interp.stack_ptr in
  Alcotest.(check int) "baseline is the stack base" ctx.Mir.Interp.stack_base baseline;
  for n = 1 to 50 do
    Alcotest.(check int64)
      (Printf.sprintf "entry %d contained" n)
      (-14L)
      (qdispatch sys mi n);
    Alcotest.(check int)
      (Printf.sprintf "stack pointer at baseline after entry %d" n)
      baseline ctx.Mir.Interp.stack_ptr
  done;
  consistent sys

(* an entry whose principal is named by its first argument, so two
   kernel objects select two sibling instance principals *)
let multi =
  prog "multi" ~imports:[] ~globals:[ global "g" 32 ]
    ~funcs:
      [
        func "module_init" [] [ ret0 ];
        func "entry" [ "obj"; "n" ]
          [
            when_ (v "n" ==: ii 1) [ store64 (i 0x2_0BAD_0000L) (ii 1); ret0 ];
            store64 (glob "g") (v "n");
            ret (load64 (glob "g"));
          ]
          ~export:obj_slot;
      ]

let test_quarantine_spares_sibling_instance () =
  let sys = qboot () in
  let mi = load sys multi in
  let d obj n =
    Lxfi.Quarantine.dispatch sys.Ksys.rt mi "entry" [ Int64.of_int obj; Int64.of_int n ]
  in
  Alcotest.(check int64) "instance A works" 5L (d 0x9100 5);
  Alcotest.(check int64) "instance A contained" (-14L) (d 0x9100 1);
  consistent sys;
  Alcotest.(check int64) "sibling instance B still serves" 7L (d 0x9200 7);
  Alcotest.(check int64) "quarantined instance stays refused" (-14L) (d 0x9100 6);
  Alcotest.(check int64) "sibling unaffected by the refusal" 8L (d 0x9200 8);
  Alcotest.(check bool) "module itself still alive" true
    (mi.Lxfi.Runtime.mi_dead = None)

let test_oops_inside_syscall_inside_wrapper () =
  (* the econet pattern: module faults inside a socket op reached via
     kernel indirect call reached via syscall; everything unwinds *)
  let sys = Ksys.boot Lxfi.Config.lxfi in
  let _ = Mod_common.install sys Econet.spec in
  let fd = Sockets.sys_socket sys.Ksys.sock ~family:Sockets.af_econet ~typ:2 in
  let r =
    Kstate.with_syscall sys.Ksys.kst (fun () ->
        Sockets.sys_sendmsg sys.Ksys.sock ~fd ~buf:0 ~len:0 ~flags:Econet.crafted_flags)
  in
  Alcotest.(check bool) "syscall failed" true (Result.is_error r);
  Alcotest.(check int) "shadow stack balanced" 0
    (Lxfi.Shadow_stack.depth sys.Ksys.rt.Lxfi.Runtime.sstack);
  (* a fresh socket still works *)
  let fd2 = Sockets.sys_socket sys.Ksys.sock ~family:Sockets.af_econet ~typ:2 in
  let u = Kstate.user_alloc sys.Ksys.kst 16 in
  Alcotest.(check int64) "normal sendmsg works" 8L
    (Sockets.sys_sendmsg sys.Ksys.sock ~fd:fd2 ~buf:u ~len:8 ~flags:0)

(* The containment checks every faultsim and lifecycle cell ends with
   (Workloads.Cell.contained): a clean system passes, and each fault,
   set up alone, yields exactly its own breach. *)
let test_cell_checks_name_each_breach () =
  let run fault =
    let sys = boot () in
    let rt = sys.Ksys.rt in
    let p = (load sys crashy).Lxfi.Runtime.mi_shared in
    (* the bystander probe reads 1 until a fault changes it *)
    let probe = ref 1L in
    let serve () = !probe in
    let baseline = serve () in
    fault rt p probe;
    let cell = Workloads.Cell.create "cell" in
    let serving = Workloads.Cell.contained cell rt ~workload:"can" ~serve ~baseline in
    (Workloads.Cell.breaches cell, serving)
  in
  let case name fault expected =
    Alcotest.(check (pair (list string) bool)) name expected (run fault)
  in
  case "clean" (fun _ _ _ -> ()) ([], true);
  case "frame left pushed"
    (fun rt _ _ ->
      ignore
        (Lxfi.Shadow_stack.push rt.Lxfi.Runtime.sstack ~wrapper:"leak" ~saved_principal:None))
    ([ "cell: shadow stack depth 1 after campaign" ], true);
  case "principal left current"
    (fun rt p _ -> rt.Lxfi.Runtime.current <- Some p)
    ([ "cell: current principal is crashy/shared, not kernel" ], true);
  case "quarantined principal keeps a capability"
    (fun rt p _ ->
      Lxfi.Quarantine.quarantine_principal rt p ~reason:"test";
      Lxfi.Captable.add_call p.Lxfi.Principal.caps ~target:0x1000)
    ([ "cell: quarantined crashy/shared still holds 1 capabilities" ], true);
  case "bystander probe changed"
    (fun _ _ probe -> probe := -14L)
    ([ "cell: bystander can stopped serving (-14, was 1)" ], false)

let () =
  Klog.quiet ();
  Alcotest.run "failure"
    [
      ( "injection",
        [
          Alcotest.test_case "each failure then recovery" `Quick
            test_each_failure_then_recovery;
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion_cleans_up;
          Alcotest.test_case "violation in pre action" `Quick
            test_violation_in_pre_action_cleans_up;
          Alcotest.test_case "violation during irq" `Quick
            test_violation_during_irq_restores_interrupted_principal;
          Alcotest.test_case "other modules unaffected" `Quick
            test_violating_module_does_not_poison_others;
          Alcotest.test_case "oops in syscall in wrapper" `Quick
            test_oops_inside_syscall_inside_wrapper;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "each misbehaviour contained" `Quick
            test_quarantine_contains_each_misbehaviour;
          Alcotest.test_case "watchdog catches infinite loop" `Quick
            test_watchdog_quarantines_infinite_loop;
          Alcotest.test_case "repeat offender escalates" `Quick
            test_repeat_offender_escalates_to_retirement;
          Alcotest.test_case "sibling instance spared" `Quick
            test_quarantine_spares_sibling_instance;
          Alcotest.test_case "re-entry restores stack pointer" `Quick
            test_quarantined_reentry_restores_stack;
        ] );
      ( "campaign cell",
        [
          Alcotest.test_case "containment checks name each breach" `Quick
            test_cell_checks_name_each_breach;
        ] );
    ]
