(* Tests of principal semantics (§3.1): shared/global/instance access
   rules, aliasing, and the transfer-revokes-everywhere rule (§3.3). *)

open Kernel_sim
open Lxfi

(* A minimal module to hang principals off. *)
let tiny_prog name : Mir.Ast.prog =
  let open Mir.Builder in
  prog name ~imports:[ "kmalloc" ]
    ~globals:[ global "g" 64 ]
    ~funcs:[ func "module_init" [] [ ret0 ] ]

let boot () =
  let kst = Kstate.boot () in
  let rt = Runtime.create ~kst ~config:Config.lxfi in
  ignore
    (Runtime.register_kexport_exn rt ~name:"kmalloc" ~params:[ "size" ] ~annot_src:""
       (fun _ -> 0L));
  Runtime.install rt;
  rt

let load rt name = fst (Loader.load rt (tiny_prog name))

let heap a = 0x2_0000_0000 + a
let w base = Capability.Cwrite { base = heap base; size = 16 }

let test_instance_sees_shared () =
  let rt = boot () in
  let mi = load rt "m" in
  let inst = Runtime.find_or_create_instance rt mi ~name_ptr:0x9000 in
  Runtime.grant rt mi.Runtime.mi_shared (w 0x7000);
  Alcotest.(check bool) "instance inherits shared caps" true
    (Runtime.principal_has rt inst (w 0x7000));
  Runtime.grant rt inst (w 0x7100);
  Alcotest.(check bool) "shared does not inherit instance caps" false
    (Runtime.principal_has rt mi.Runtime.mi_shared (w 0x7100))

let test_instances_isolated () =
  let rt = boot () in
  let mi = load rt "m" in
  let a = Runtime.find_or_create_instance rt mi ~name_ptr:0x9000 in
  let b = Runtime.find_or_create_instance rt mi ~name_ptr:0xa000 in
  Runtime.grant rt a (w 0x7000);
  Alcotest.(check bool) "a owns" true (Runtime.principal_has rt a (w 0x7000));
  Alcotest.(check bool) "b does not" false (Runtime.principal_has rt b (w 0x7000))

let test_global_sees_all () =
  let rt = boot () in
  let mi = load rt "m" in
  let a = Runtime.find_or_create_instance rt mi ~name_ptr:0x9000 in
  Runtime.grant rt a (w 0x7000);
  Runtime.grant rt mi.Runtime.mi_shared (w 0x7200);
  Alcotest.(check bool) "global sees instance caps" true
    (Runtime.principal_has rt mi.Runtime.mi_global (w 0x7000));
  Alcotest.(check bool) "global sees shared caps" true
    (Runtime.principal_has rt mi.Runtime.mi_global (w 0x7200))

let test_modules_isolated () =
  let rt = boot () in
  let m1 = load rt "m1" and m2 = load rt "m2" in
  Runtime.grant rt m1.Runtime.mi_shared (w 0x7000);
  Alcotest.(check bool) "m2 shared blind to m1 caps" false
    (Runtime.principal_has rt m2.Runtime.mi_shared (w 0x7000));
  Alcotest.(check bool) "m2 global blind to m1 caps" false
    (Runtime.principal_has rt m2.Runtime.mi_global (w 0x7000))

let test_alias_same_principal () =
  let rt = boot () in
  let mi = load rt "m" in
  let a = Runtime.find_or_create_instance rt mi ~name_ptr:0x9000 in
  rt.Runtime.current <- Some a;
  Runtime.lxfi_princ_alias rt ~existing:0x9000 ~fresh:0xb000;
  let b = Runtime.find_or_create_instance rt mi ~name_ptr:0xb000 in
  Alcotest.(check int) "alias resolves to same principal" a.Principal.id b.Principal.id;
  Runtime.grant rt a (w 0x7000);
  Alcotest.(check bool) "caps shared through alias" true
    (Runtime.principal_has rt b (w 0x7000))

let test_alias_requires_standing () =
  let rt = boot () in
  let mi = load rt "m" in
  let a = Runtime.find_or_create_instance rt mi ~name_ptr:0x9000 in
  ignore a;
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  (* aliasing a name that does not exist in this module must fail *)
  (try
     Runtime.lxfi_princ_alias rt ~existing:0xdead ~fresh:0xb000;
     Alcotest.fail "expected violation"
   with Violation.Violation v ->
     Alcotest.(check string) "principal-denied" "principal-denied"
       (Violation.kind_name v.Violation.v_kind));
  (* and from kernel context it must fail too *)
  rt.Runtime.current <- None;
  try
    Runtime.lxfi_princ_alias rt ~existing:0x9000 ~fresh:0xb000;
    Alcotest.fail "expected violation"
  with Violation.Violation _ -> ()

let test_transfer_revokes_from_all () =
  let rt = boot () in
  let m1 = load rt "m1" and m2 = load rt "m2" in
  let a = Runtime.find_or_create_instance rt m1 ~name_ptr:0x9000 in
  Runtime.grant rt a (w 0x7000);
  Runtime.grant rt m2.Runtime.mi_shared (w 0x7000);
  Runtime.grant rt m2.Runtime.mi_shared (Capability.Ccall { target = heap 0x7000 });
  Runtime.revoke_from_all rt (w 0x7000);
  Alcotest.(check bool) "gone from m1 instance" false (Runtime.principal_has rt a (w 0x7000));
  Alcotest.(check bool) "gone from m2 shared" false
    (Runtime.principal_has rt m2.Runtime.mi_shared (w 0x7000));
  Alcotest.(check bool) "CALL caps untouched by WRITE revoke" true
    (Runtime.principal_has rt m2.Runtime.mi_shared (Capability.Ccall { target = heap 0x7000 }))

let test_intersecting_transfer_revokes () =
  (* revoking [0x7000,+16) removes a cap whose range merely overlaps *)
  let rt = boot () in
  let m1 = load rt "m1" in
  Runtime.grant rt m1.Runtime.mi_shared (Capability.Cwrite { base = heap 0x6ff8; size = 32 });
  Runtime.revoke_from_all rt (w 0x7000);
  Alcotest.(check bool) "overlapping cap revoked" false
    (Runtime.principal_has rt m1.Runtime.mi_shared
       (Capability.Cwrite { base = heap 0x6ff8; size = 8 }))

let test_describe () =
  let rt = boot () in
  let mi = load rt "m" in
  let a = Runtime.find_or_create_instance rt mi ~name_ptr:0x9000 in
  Alcotest.(check string) "shared name" "m/shared" (Principal.describe mi.Runtime.mi_shared);
  Alcotest.(check string) "global name" "m/global" (Principal.describe mi.Runtime.mi_global);
  Alcotest.(check string) "instance name" "m/instance(0x9000)" (Principal.describe a);
  (* rendered once by [Principal.make]: every call returns that string *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Principal.describe p ^ " is one string") true
        (Principal.describe p == Principal.describe p))
    [ mi.Runtime.mi_shared; mi.Runtime.mi_global; a ]

let () =
  Klog.quiet ();
  Alcotest.run "principal"
    [
      ( "access rules",
        [
          Alcotest.test_case "instance sees shared" `Quick test_instance_sees_shared;
          Alcotest.test_case "instances isolated" `Quick test_instances_isolated;
          Alcotest.test_case "global sees all" `Quick test_global_sees_all;
          Alcotest.test_case "modules isolated" `Quick test_modules_isolated;
        ] );
      ( "aliases",
        [
          Alcotest.test_case "alias resolves to same principal" `Quick
            test_alias_same_principal;
          Alcotest.test_case "alias requires standing" `Quick test_alias_requires_standing;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "revokes from all principals" `Quick
            test_transfer_revokes_from_all;
          Alcotest.test_case "revokes intersecting ranges" `Quick
            test_intersecting_transfer_revokes;
        ] );
      ("misc", [ Alcotest.test_case "describe" `Quick test_describe ]);
    ]
