(* Integration tests: load and drive every module of the corpus under
   all three enforcement modes. *)

open Kernel_sim
open Kmodules

let boot_with config specs =
  let sys = Ksys.boot config in
  ignore (Ksys.add_nic sys ~vendor:E1000.vendor ~device:E1000.device);
  ignore (Pci.add_device sys.Ksys.pci ~vendor:Snd_intel8x0.vendor ~device:Snd_intel8x0.device ~bar_len:4096);
  ignore (Pci.add_device sys.Ksys.pci ~vendor:Snd_ens1370.vendor ~device:Snd_ens1370.device ~bar_len:4096);
  let handles = List.map (Mod_common.install sys) specs in
  (sys, handles)

let test_all_modules_load config () =
  let sys, handles = boot_with config Catalog.all in
  Alcotest.(check int) "ten modules loaded" 10 (List.length handles);
  Alcotest.(check int) "runtime sees them" 10 (Hashtbl.length sys.Ksys.rt.Lxfi.Runtime.modules)

let test_protocol_roundtrip config () =
  let sys, _ = boot_with config [ Rds.spec ] in
  let fd = Sockets.sys_socket sys.Ksys.sock ~family:Sockets.af_rds ~typ:2 in
  Alcotest.(check bool) "socket created" true (fd >= 3);
  let ubuf = Kstate.user_alloc sys.Ksys.kst 64 in
  Kmem.write_bytes sys.Ksys.kst.Kstate.mem ~addr:ubuf "hello rds protocol!";
  let sent = Sockets.sys_sendmsg sys.Ksys.sock ~fd ~buf:ubuf ~len:19 ~flags:0 in
  Alcotest.(check int64) "sendmsg accepted" 19L sent;
  let out = Kstate.user_alloc sys.Ksys.kst 64 in
  let got = Sockets.sys_recvmsg sys.Ksys.sock ~fd ~buf:out ~len:64 ~flags:0 in
  Alcotest.(check int64) "recvmsg returned payload" 19L got;
  let s = Bytes.to_string (Kmem.read_bytes sys.Ksys.kst.Kstate.mem ~addr:out ~len:19) in
  Alcotest.(check string) "payload round-tripped" "hello rds protocol!" s;
  ignore (Sockets.sys_close sys.Ksys.sock ~fd)

let test_socket_list_global config () =
  let sys, handles = boot_with config [ Econet.spec ] in
  let mi = (List.hd handles).Mod_common.mi in
  let head = Mod_common.gaddr mi "econet_list_head" in
  let fd1 = Sockets.sys_socket sys.Ksys.sock ~family:Sockets.af_econet ~typ:2 in
  let fd2 = Sockets.sys_socket sys.Ksys.sock ~family:Sockets.af_econet ~typ:2 in
  Alcotest.(check bool) "two sockets" true (fd1 >= 3 && fd2 > fd1);
  (* list must contain two entries *)
  let rec count addr acc =
    if addr = 0 then acc
    else count (Kmem.read_ptr sys.Ksys.kst.Kstate.mem addr) (acc + 1)
  in
  Alcotest.(check int) "both sockets linked" 2
    (count (Kmem.read_ptr sys.Ksys.kst.Kstate.mem head) 0);
  ignore (Sockets.sys_close sys.Ksys.sock ~fd:fd1);
  Alcotest.(check int) "one socket after close" 1
    (count (Kmem.read_ptr sys.Ksys.kst.Kstate.mem head) 0);
  ignore (Sockets.sys_close sys.Ksys.sock ~fd:fd2);
  Alcotest.(check int) "empty after both close" 0
    (count (Kmem.read_ptr sys.Ksys.kst.Kstate.mem head) 0)

let test_dm_zero config () =
  let sys, _ = boot_with config [ Dm_zero.spec ] in
  let ti = Result.get_ok (Blockdev.dm_create sys.Ksys.blk ~target:"zero" ~name:"z0" ~len:1024 ~arg:0) in
  ignore ti;
  let bio = Blockdev.alloc_bio sys.Ksys.blk ~sector:7 ~size:512 ~rw:0 in
  let data_off = Ktypes.offset sys.Ksys.kst.Kstate.types "bio" "data" in
  let data = Kmem.read_ptr sys.Ksys.kst.Kstate.mem (bio + data_off) in
  Kmem.write_u64 sys.Ksys.kst.Kstate.mem data 0xdeadbeefL;
  (match Blockdev.submit_bio sys.Ksys.blk ~name:"z0" bio with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int64) "read returns zeroes" 0L
    (Kmem.read_u64 sys.Ksys.kst.Kstate.mem data);
  Blockdev.free_bio sys.Ksys.blk bio

let test_dm_crypt_roundtrip config () =
  let sys, _ = boot_with config [ Dm_crypt.spec ] in
  ignore
    (Result.get_ok
       (Blockdev.dm_create sys.Ksys.blk ~target:"crypt" ~name:"c0" ~len:1024
          ~arg:0x1234567));
  let bio = Blockdev.alloc_bio sys.Ksys.blk ~sector:5 ~size:64 ~rw:1 in
  let data_off = Ktypes.offset sys.Ksys.kst.Kstate.types "bio" "data" in
  let data = Kmem.read_ptr sys.Ksys.kst.Kstate.mem (bio + data_off) in
  Kmem.write_u64 sys.Ksys.kst.Kstate.mem data 0x1111222233334444L;
  ignore (Result.get_ok (Blockdev.submit_bio sys.Ksys.blk ~name:"c0" bio));
  let enc = Kmem.read_u64 sys.Ksys.kst.Kstate.mem data in
  Alcotest.(check bool) "payload encrypted" true (enc <> 0x1111222233334444L);
  (* mapping again with the same sector decrypts (XOR stream) *)
  ignore (Result.get_ok (Blockdev.submit_bio sys.Ksys.blk ~name:"c0" bio));
  Alcotest.(check int64) "decrypts back" 0x1111222233334444L
    (Kmem.read_u64 sys.Ksys.kst.Kstate.mem data)

let test_dm_crypt_principals_isolated () =
  (* Two crypt devices: compromising one instance must not expose the
     other's key object. Verified structurally: the WRITE capability
     for device 2's key context is absent from device 1's principal. *)
  let sys, handles = boot_with Lxfi.Config.lxfi [ Dm_crypt.spec ] in
  let mi = (List.hd handles).Mod_common.mi in
  let ti1 =
    Result.get_ok
      (Blockdev.dm_create sys.Ksys.blk ~target:"crypt" ~name:"c1" ~len:64 ~arg:1)
  in
  let ti2 =
    Result.get_ok
      (Blockdev.dm_create sys.Ksys.blk ~target:"crypt" ~name:"c2" ~len:64 ~arg:2)
  in
  let p1 = Kernel_sim.Inttbl.find mi.Lxfi.Runtime.mi_aliases ti1 in
  let p2 = Kernel_sim.Inttbl.find mi.Lxfi.Runtime.mi_aliases ti2 in
  Alcotest.(check bool) "distinct principals" true (p1.Lxfi.Principal.id <> p2.Lxfi.Principal.id);
  let cc2 =
    Kmem.read_ptr sys.Ksys.kst.Kstate.mem
      (ti2 + Ktypes.offset sys.Ksys.kst.Kstate.types "dm_target" "private")
  in
  let rt = sys.Ksys.rt in
  Alcotest.(check bool) "p2 owns its key context" true
    (Lxfi.Runtime.principal_has rt p2 (Lxfi.Capability.Cwrite { base = cc2; size = 8 }));
  Alcotest.(check bool) "p1 cannot write p2's key context" false
    (Lxfi.Runtime.principal_has rt p1 (Lxfi.Capability.Cwrite { base = cc2; size = 8 }))

let test_dm_snapshot_cow config () =
  let sys, _ = boot_with config [ Dm_snapshot.spec ] in
  ignore
    (Result.get_ok
       (Blockdev.dm_create sys.Ksys.blk ~target:"snapshot" ~name:"s0" ~len:4096 ~arg:0));
  let bio = Blockdev.alloc_bio sys.Ksys.blk ~sector:3 ~size:256 ~rw:1 in
  ignore (Result.get_ok (Blockdev.submit_bio sys.Ksys.blk ~name:"s0" bio));
  (* second write to the same chunk must not allocate a second COW *)
  let allocs0 = Slab.allocations sys.Ksys.kst.Kstate.slab in
  ignore (Result.get_ok (Blockdev.submit_bio sys.Ksys.blk ~name:"s0" bio));
  Alcotest.(check int) "no second COW allocation" allocs0
    (Slab.allocations sys.Ksys.kst.Kstate.slab);
  Blockdev.free_bio sys.Ksys.blk bio

let test_dm_destroy_runs_dtr config () =
  let sys, _ = boot_with config [ Dm_snapshot.spec ] in
  ignore
    (Result.get_ok
       (Blockdev.dm_create sys.Ksys.blk ~target:"snapshot" ~name:"s0" ~len:4096 ~arg:0));
  (* populate two COW chunks *)
  let bio = Blockdev.alloc_bio sys.Ksys.blk ~sector:1 ~size:256 ~rw:1 in
  ignore (Result.get_ok (Blockdev.submit_bio sys.Ksys.blk ~name:"s0" bio));
  Kmem.write_u64 sys.Ksys.kst.Kstate.mem
    (bio + Ktypes.offset sys.Ksys.kst.Kstate.types "bio" "sector") 2L;
  ignore (Result.get_ok (Blockdev.submit_bio sys.Ksys.blk ~name:"s0" bio));
  Blockdev.free_bio sys.Ksys.blk bio;
  let live_before = Slab.live_objects sys.Ksys.kst.Kstate.slab in
  Blockdev.dm_destroy sys.Ksys.blk ~name:"s0";
  (* dtr frees the exception table and both COW blocks *)
  Alcotest.(check int) "dtr freed table + 2 cow blocks" (live_before - 3)
    (Slab.live_objects sys.Ksys.kst.Kstate.slab)

let test_sound_stopped_pointer_is_stable config () =
  let sys, _ = boot_with config [ Snd_ens1370.spec ] in
  match List.filter (fun _ -> true) sys.Ksys.snd.Sound.cards with
  | card :: _ ->
      (* without a trigger_start, pointer polls must not advance *)
      ignore (Sound.playback sys.Ksys.snd card ~polls:3);
      let periods0 = sys.Ksys.snd.Sound.periods_elapsed in
      Alcotest.(check bool) "ran at least once under playback" true (periods0 > 0)
  | [] -> Alcotest.fail "no card"

let test_sound_playback config () =
  let sys, _ =
    boot_with config [ Snd_intel8x0.spec; Snd_ens1370.spec ]
  in
  match sys.Ksys.snd.Sound.cards with
  | [ _; _ ] as cards ->
      List.iter
        (fun card ->
          let pos = Sound.playback sys.Ksys.snd card ~polls:10 in
          Alcotest.(check bool) "dma position advanced" true (pos <> 0L))
        cards;
      Alcotest.(check bool) "periods elapsed" true
        (sys.Ksys.snd.Sound.periods_elapsed >= 20)
  | l -> Alcotest.failf "expected 2 sound cards, got %d" (List.length l)

let test_can_sendmsg config () =
  let sys, _ = boot_with config [ Can.spec ] in
  let fd = Sockets.sys_socket sys.Ksys.sock ~family:Sockets.af_can ~typ:3 in
  ignore (Sockets.sys_bind sys.Ksys.sock ~fd ~addr:0 ~alen:0);
  let ubuf = Kstate.user_alloc sys.Ksys.kst 16 in
  let sent = Sockets.sys_sendmsg sys.Ksys.sock ~fd ~buf:ubuf ~len:16 ~flags:0 in
  Alcotest.(check int64) "frame sent" 16L sent;
  Alcotest.(check int) "frame delivered to stack" 1 sys.Ksys.net.Netdev.rx_delivered_pkts

let test_can_bcm_benign config () =
  let sys, _ = boot_with config [ Can_bcm.spec ] in
  let fd = Sockets.sys_socket sys.Ksys.sock ~family:30 ~typ:2 in
  let ubuf = Kstate.user_alloc sys.Ksys.kst 32 in
  (* benign RX_SETUP with 4 frames, then in-bounds update *)
  Kmem.write_u64 sys.Ksys.kst.Kstate.mem ubuf 1L;
  Kmem.write_u64 sys.Ksys.kst.Kstate.mem (ubuf + 8) 4L;
  Alcotest.(check int64) "setup ok" 0L
    (Sockets.sys_sendmsg sys.Ksys.sock ~fd ~buf:ubuf ~len:24 ~flags:0);
  Kmem.write_u64 sys.Ksys.kst.Kstate.mem ubuf 2L;
  Kmem.write_u64 sys.Ksys.kst.Kstate.mem (ubuf + 8) 3L;
  Kmem.write_u64 sys.Ksys.kst.Kstate.mem (ubuf + 16) 0xabcdL;
  Alcotest.(check int64) "in-bounds update ok" 0L
    (Sockets.sys_sendmsg sys.Ksys.sock ~fd ~buf:ubuf ~len:24 ~flags:0)

let test_request_irq_call_check () =
  (* the callback-argument contract (§2.2): request_irq demands a CALL
     capability for the handler the module passes *)
  let sys = Ksys.boot Lxfi.Config.lxfi in
  let open Mir.Builder in
  let p =
    prog "irqmod" ~imports:[ "request_irq" ] ~globals:[]
      ~funcs:
        [
          func "my_handler" [ "irq"; "dev_id" ] [ ret (ii 1) ];
          func "register_good" []
            [ ret (call_ext "request_irq" [ ii 77; fn "my_handler"; ii 0x1234 ]) ];
          func "register_evil" []
            [ ret (call_ext "request_irq" [ ii 78; ii 0xdead0; ii 0x1234 ]) ];
          func "module_init" [] [ ret0 ];
        ]
  in
  let mi, _ = Ksys.load sys p in
  Alcotest.(check int64) "own handler accepted" 0L
    (Lxfi.Loader.init_call sys.Ksys.rt mi "register_good" []);
  (match Lxfi.Loader.init_call sys.Ksys.rt mi "register_evil" [] with
  | exception Lxfi.Violation.Violation v ->
      Alcotest.(check string) "kind" "call-denied"
        (Lxfi.Violation.kind_name v.Lxfi.Violation.v_kind)
  | _ -> Alcotest.fail "bogus handler must be refused")

let test_ioport_ref_exact () =
  (* Guideline 3: the io_port REF names one fixed value *)
  let sys = Ksys.boot Lxfi.Config.lxfi in
  ignore (Pci.add_device sys.Ksys.pci ~vendor:Snd_intel8x0.vendor ~device:Snd_intel8x0.device ~bar_len:64);
  let _h = Mod_common.install sys Snd_intel8x0.spec in
  let mi = Option.get (Lxfi.Runtime.module_named sys.Ksys.rt "snd_intel8x0") in
  let priv = Mod_common.gaddr mi "snd_intel8x0_priv" in
  let port =
    Kernel_sim.Kmem.read_ptr sys.Ksys.kst.Kstate.mem (priv + Snd_common.p_port)
  in
  let p = Kernel_sim.Inttbl.find mi.Lxfi.Runtime.mi_aliases
      (Kernel_sim.Kmem.read_ptr sys.Ksys.kst.Kstate.mem (priv + Snd_common.p_pcidev)) in
  Alcotest.(check bool) "REF for the granted port" true
    (Lxfi.Runtime.principal_has sys.Ksys.rt p
       (Lxfi.Capability.Cref { rtype = "io_port"; addr = port }));
  Alcotest.(check bool) "no REF for port+1" false
    (Lxfi.Runtime.principal_has sys.Ksys.rt p
       (Lxfi.Capability.Cref { rtype = "io_port"; addr = port + 1 }))

(* snd_card_caps on a pointer that is not a card: the card-sized WRITE
   and the REF, but no WRITE for a DMA area that reads 0 bytes at 0; a
   crossing that copies them grants them instead of raising. *)
let test_snd_card_caps_not_a_card () =
  let sys = Ksys.boot Lxfi.Config.lxfi in
  let rt = sys.Ksys.rt and not_a_card = 0x7000 in
  let card_write =
    Lxfi.Capability.Cwrite { base = not_a_card; size = Sound.card_layout.Ktypes.s_size }
  and card_ref = Lxfi.Capability.Cref { rtype = "snd_card"; addr = not_a_card } in
  let iter = Option.get (Lxfi.Runtime.find_iterator rt "snd_card_caps") in
  let caps = iter [ Int64.of_int not_a_card ] in
  Alcotest.(check bool) "card WRITE and REF only" true (caps = [ card_write; card_ref ]);
  let mi, _ =
    Lxfi.Loader.load rt
      Mir.Builder.(
        prog "cardless" ~imports:[] ~globals:[] ~funcs:[ func "entry" [ "x" ] [ ret (v "x") ] ])
  in
  let ke =
    Lxfi.Runtime.register_kexport_exn rt ~name:"grab_card" ~params:[ "card" ]
      ~annot_src:"post(copy(snd_card_caps(card)))" (fun _ -> 0L)
  in
  let p = mi.Lxfi.Runtime.mi_shared in
  rt.Lxfi.Runtime.current <- Some p;
  ignore (Lxfi.Runtime.call_kexport rt ke [ Int64.of_int not_a_card ]);
  List.iter
    (fun cap ->
      Alcotest.(check bool)
        (Lxfi.Capability.to_string cap) true (Lxfi.Runtime.principal_has rt p cap))
    [ card_write; card_ref ]

let test_annotation_effort_table () =
  let sys = Ksys.boot Lxfi.Config.lxfi in
  let rows, total_fn, total_fp = Catalog.annotation_effort sys in
  Alcotest.(check int) "ten rows" 10 (List.length rows);
  Alcotest.(check bool) "distinct functions counted" true (total_fn > 10);
  Alcotest.(check bool) "distinct fptr types counted" true (total_fp > 5);
  (* e1000 is the biggest module, dm-zero the smallest, as in Fig 9 *)
  let get n = List.find (fun r -> r.Catalog.e_module = n) rows in
  Alcotest.(check bool) "e1000 imports the most functions" true
    ((get "e1000").Catalog.e_functions_all
    >= List.fold_left (fun m r -> max m r.Catalog.e_functions_all) 0 rows);
  Alcotest.(check bool) "dm_zero imports the fewest" true
    ((get "dm_zero").Catalog.e_functions_all
    <= List.fold_left (fun m r -> min m r.Catalog.e_functions_all) 99 rows)

(* The corpus is declared once per process and every boot registers
   the same values, so the declarations must carry no per-boot state:
   two systems get equal tables, but each keeps its own registry and
   each export body runs against the system that registered it. *)
let test_corpus_shared_across_boots () =
  let open Annot.Registry in
  let hashed d = Int64.equal d.sl_ahash (Annot.Hash.of_annot ~params:d.sl_params d.sl_annot) in
  List.iter
    (fun d -> Alcotest.(check bool) (d.sl_name ^ " hash canonical") true (hashed d))
    (Ksys.slot_types @ List.map fst Ksys.kexports);
  let a = Ksys.boot Lxfi.Config.lxfi and b = Ksys.boot Lxfi.Config.lxfi in
  let rt (sys : Ksys.t) = sys.Ksys.rt in
  let table sys =
    Hashtbl.fold
      (fun _ (ke : Lxfi.Runtime.kexport) acc -> (ke.ke_decl, ke.ke_addr) :: acc)
      (rt sys).Lxfi.Runtime.kexports []
    |> List.sort compare
  in
  Alcotest.(check int) "every export registered" (List.length Ksys.kexports)
    (List.length (table a));
  Alcotest.(check bool) "kexport tables identical" true (table a = table b);
  Alcotest.(check bool) "registries identical" true
    (all (rt a).Lxfi.Runtime.registry = all (rt b).Lxfi.Runtime.registry);
  (* registered in declaration order: kernel-text addresses ascend *)
  let addrs =
    List.map
      (fun (d, _) -> (Lxfi.Runtime.find_kexport (rt a) d.sl_name).Lxfi.Runtime.ke_addr)
      Ksys.kexports
  in
  Alcotest.(check bool) "addresses follow declaration order" true
    (List.sort_uniq compare addrs = addrs);
  Alcotest.(check bool) "each export holds its one declaration" true
    (List.for_all
       (fun (d, _) -> (Lxfi.Runtime.find_kexport (rt b) d.sl_name).Lxfi.Runtime.ke_decl == d)
       Ksys.kexports);
  ignore (define_exn (rt a).Lxfi.Runtime.registry ~name:"only.a" ~params:[] ~annot_src:"");
  Alcotest.(check bool) "a slot added to A is absent from B" false
    (mem (rt b).Lxfi.Runtime.registry "only.a");
  let a_allocs = a.Ksys.kst.Kstate.slab.Slab.alloc_count in
  let kmalloc = Lxfi.Runtime.find_kexport (rt b) "kmalloc" in
  let p = Int64.to_int (Lxfi.Runtime.call_kexport (rt b) kmalloc [ 64L ]) in
  Alcotest.(check bool) "B's kmalloc allocates in B's slab" true
    (Slab.is_live b.Ksys.kst.Kstate.slab p);
  Alcotest.(check bool) "and not in A's" false (Slab.is_live a.Ksys.kst.Kstate.slab p);
  Alcotest.(check int) "A's slab untouched" a_allocs a.Ksys.kst.Kstate.slab.Slab.alloc_count

let modes name f =
  [
    Alcotest.test_case (name ^ " [stock]") `Quick (f Lxfi.Config.stock);
    Alcotest.test_case (name ^ " [xfi]") `Quick (f Lxfi.Config.xfi);
    Alcotest.test_case (name ^ " [lxfi]") `Quick (f Lxfi.Config.lxfi);
  ]

let () =
  Klog.quiet ();
  Alcotest.run "modules"
    [
      ("load", modes "all ten modules load" test_all_modules_load);
      ("rds", modes "protocol round trip" test_protocol_roundtrip);
      ("econet", modes "global socket list" test_socket_list_global);
      ("dm_zero", modes "zero target" test_dm_zero);
      ("dm_crypt", modes "crypt round trip" test_dm_crypt_roundtrip);
      ("dm_snapshot", modes "cow once per chunk" test_dm_snapshot_cow);
      ("sound", modes "playback fills dma" test_sound_playback);
      ("sound-stop", modes "stopped pointer stable" test_sound_stopped_pointer_is_stable);
      ("dm-destroy", modes "dtr frees cow state" test_dm_destroy_runs_dtr);
      ("can", modes "raw frame send" test_can_sendmsg);
      ("can_bcm", modes "benign setup/update" test_can_bcm_benign);
      ( "principals",
        [
          Alcotest.test_case "dm-crypt instances isolated" `Quick
            test_dm_crypt_principals_isolated;
        ] );
      ( "effort",
        [ Alcotest.test_case "figure 9 accounting" `Quick test_annotation_effort_table ]
      );
      ( "boot",
        [
          Alcotest.test_case "corpus shared across boots" `Quick
            test_corpus_shared_across_boots;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "request_irq checks CALL cap" `Quick
            test_request_irq_call_check;
          Alcotest.test_case "io_port REF is exact" `Quick test_ioport_ref_exact;
          Alcotest.test_case "snd_card_caps on a non-card" `Quick test_snd_card_caps_not_a_card;
        ] );
    ]
