(* Unit tests for the struct-layout registry. *)

open Kernel_sim

let mk () = Ktypes.create ()

let test_layout_alignment () =
  let t = mk () in
  let s =
    Ktypes.define t "mixed"
      [
        ("a", 1, Ktypes.Scalar);
        ("b", 4, Ktypes.Scalar);
        ("c", 8, Ktypes.Pointer);
        ("d", 2, Ktypes.Scalar);
      ]
  in
  Alcotest.(check int) "a at 0" 0 (Ktypes.offset t "mixed" "a");
  Alcotest.(check int) "b aligned to 4" 4 (Ktypes.offset t "mixed" "b");
  Alcotest.(check int) "c aligned to 8" 8 (Ktypes.offset t "mixed" "c");
  Alcotest.(check int) "d after c" 16 (Ktypes.offset t "mixed" "d");
  Alcotest.(check int) "size rounded to 8" 24 s.Ktypes.s_size

let test_funcptr_slots () =
  let t = mk () in
  ignore
    (Ktypes.define t "ops"
       [
         ("open", 8, Ktypes.Funcptr "ops.open");
         ("data", 8, Ktypes.Pointer);
         ("close", 8, Ktypes.Funcptr "ops.close");
       ]);
  Alcotest.(check (option string)) "slot at 0" (Some "ops.open")
    (Ktypes.funcptr_slot t "ops" 0);
  Alcotest.(check (option string)) "pointer field is not a slot" None
    (Ktypes.funcptr_slot t "ops" 8);
  Alcotest.(check (option string)) "slot at 16" (Some "ops.close")
    (Ktypes.funcptr_slot t "ops" 16);
  Alcotest.(check int) "two funcptr fields" 2 (List.length (Ktypes.funcptr_fields t "ops"))

let test_duplicate_rejected () =
  let t = mk () in
  ignore (Ktypes.define t "x" [ ("f", 8, Ktypes.Scalar) ]);
  Alcotest.check_raises "duplicate struct"
    (Invalid_argument "Ktypes.define: duplicate struct x") (fun () ->
      ignore (Ktypes.define t "x" [ ("f", 8, Ktypes.Scalar) ]))

let test_unknown_lookups () =
  let t = mk () in
  ignore (Ktypes.define t "y" [ ("f", 8, Ktypes.Scalar) ]);
  Alcotest.check_raises "unknown struct" (Ktypes.Unknown_struct "nope") (fun () ->
      ignore (Ktypes.sizeof t "nope"));
  Alcotest.check_raises "unknown field" (Ktypes.Unknown_field ("y", "g")) (fun () ->
      ignore (Ktypes.offset t "y" "g"))

let test_kernel_structs_present () =
  (* Boot defines the full layout set; spot-check the ones annotations
     reference by name. *)
  let kst = Kstate.boot () in
  Skbuff.define_layout kst.Kstate.types;
  Netdev.define_layout kst.Kstate.types;
  Pci.define_layout kst.Kstate.types;
  Sockets.define_layout kst.Kstate.types;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " defined") true (Ktypes.mem kst.Kstate.types name))
    [ "task_struct"; "sk_buff"; "net_device"; "net_device_ops"; "pci_dev"; "socket" ];
  Alcotest.(check bool) "sk_buff holds data ptr + len" true
    (Ktypes.offset kst.Kstate.types "sk_buff" "data"
     <> Ktypes.offset kst.Kstate.types "sk_buff" "len")

(* Every struct a boot registers is physically the value its subsystem
   laid out once per process, and the registry still refuses a second
   registration of any of them. *)
let test_booted_layouts_are_values () =
  let subsystem_layouts =
    List.concat
      [
        Task.layouts;
        Skbuff.layouts;
        Netdev.layouts;
        Pci.layouts;
        Sockets.layouts;
        Blockdev.layouts;
        Sound.layouts;
        Shm.layouts;
      ]
  in
  let types = Kmodules.Ksys.types (Kmodules.Ksys.boot Lxfi.Config.lxfi) in
  let booted = Ktypes.all types in
  Alcotest.(check int) "one booted struct per layout" (List.length subsystem_layouts)
    (List.length booted);
  List.iter
    (fun (s : Ktypes.strct) ->
      match
        List.find_opt
          (fun (l : Ktypes.strct) -> String.equal l.Ktypes.s_name s.Ktypes.s_name)
          subsystem_layouts
      with
      | Some l ->
          Alcotest.(check bool) (s.Ktypes.s_name ^ " is the layout value") true (l == s)
      | None -> Alcotest.failf "booted struct %s has no subsystem layout" s.Ktypes.s_name)
    booted;
  List.iter
    (fun (l : Ktypes.strct) ->
      Alcotest.check_raises ("second add of " ^ l.Ktypes.s_name)
        (Invalid_argument ("Ktypes.define: duplicate struct " ^ l.Ktypes.s_name))
        (fun () -> Ktypes.add types l))
    subsystem_layouts

let () =
  Alcotest.run "ktypes"
    [
      ( "layout",
        [
          Alcotest.test_case "alignment" `Quick test_layout_alignment;
          Alcotest.test_case "funcptr slots" `Quick test_funcptr_slots;
          Alcotest.test_case "duplicates rejected" `Quick test_duplicate_rejected;
          Alcotest.test_case "unknown lookups" `Quick test_unknown_lookups;
          Alcotest.test_case "kernel structs" `Quick test_kernel_structs_present;
          Alcotest.test_case "booted layouts are the subsystems' values" `Quick
            test_booted_layouts_are_values;
        ] );
    ]
