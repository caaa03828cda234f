(* End-to-end tests of the e1000 driver under all three enforcement
   modes: probe, transmit, receive, principal aliasing, capability flow. *)

open Kernel_sim
open Kmodules

let setup config =
  let sys = Ksys.boot config in
  let pcidev, nic = Ksys.add_nic sys ~vendor:E1000.vendor ~device:E1000.device in
  let h = Mod_common.install sys E1000.spec in
  (sys, pcidev, nic, h)

let dev_of sys pcidev = Pci.pci_get_drvdata sys.Ksys.pci pcidev

let send_one sys pcidev len =
  let skb = Skbuff.alloc sys.Ksys.kst len in
  Skbuff.set_dev sys.Ksys.kst skb (dev_of sys pcidev);
  Netdev.dev_queue_xmit sys.Ksys.net skb

let test_probe_binds config () =
  let sys, pcidev, _nic, _h = setup config in
  Alcotest.(check bool) "device enabled" true (Pci.is_enabled sys.Ksys.pci pcidev);
  Alcotest.(check bool) "drvdata set" true (dev_of sys pcidev <> 0)

let test_xmit config () =
  let sys, pcidev, nic, _h = setup config in
  for _ = 1 to 10 do
    let r = send_one sys pcidev 64 in
    Alcotest.(check int64) "NETDEV_TX_OK" 0L r;
    ignore (Nic.drain_tx nic)
  done;
  let pkts, bytes = Nic.tx_stats nic in
  Alcotest.(check int) "packets on wire" 10 pkts;
  Alcotest.(check int) "bytes on wire" 640 bytes

let test_rx config () =
  let sys, pcidev, nic, _h = setup config in
  let injected = Nic.inject_rx nic ~count:8 ~frame_len:64 in
  Alcotest.(check int) "frames injected" 8 injected;
  (* real interrupt path: the kernel runs the module's registered
     handler, which schedules NAPI *)
  let token = Lxfi.Runtime.irq_enter sys.Ksys.rt in
  let handled = Irqchip.raise_irq sys.Ksys.irq ~irq:(Pci.irq sys.Ksys.pci pcidev) in
  Lxfi.Runtime.irq_exit sys.Ksys.rt token;
  Alcotest.(check int64) "irq handled" 1L handled;
  let work = Netdev.poll_scheduled sys.Ksys.net ~budget:64 in
  Alcotest.(check int) "poll harvested all frames" 8 work;
  Alcotest.(check int) "stack received them" 8 sys.Ksys.net.Netdev.rx_delivered_pkts

let test_tx_completion_frees config () =
  let sys, pcidev, nic, _h = setup config in
  let live0 = Slab.live_objects sys.Ksys.kst.Kstate.slab in
  (* Send, drain, send again (cleanup of the first), drain... the skb
     population must stay bounded. *)
  for _ = 1 to 50 do
    ignore (send_one sys pcidev 100);
    ignore (Nic.drain_tx nic)
  done;
  let live = Slab.live_objects sys.Ksys.kst.Kstate.slab in
  Alcotest.(check bool)
    (Printf.sprintf "no unbounded skb leak (%d -> %d)" live0 live)
    true
    (live - live0 < 10)

let test_napi_principal_aliased () =
  let sys, pcidev, _nic, h = setup Lxfi.Config.lxfi in
  let mi = h.Mod_common.mi in
  let p_pci = Kernel_sim.Inttbl.find mi.Lxfi.Runtime.mi_aliases pcidev in
  let p_ndev = Kernel_sim.Inttbl.find mi.Lxfi.Runtime.mi_aliases (dev_of sys pcidev) in
  let p_napi = Kernel_sim.Inttbl.find mi.Lxfi.Runtime.mi_aliases (E1000.napi_addr sys ~pcidev) in
  Alcotest.(check int) "ndev aliases pci principal" p_pci.Lxfi.Principal.id p_ndev.Lxfi.Principal.id;
  Alcotest.(check int) "napi aliases pci principal" p_pci.Lxfi.Principal.id p_napi.Lxfi.Principal.id

let test_skb_caps_transferred_on_rx () =
  let sys, pcidev, nic, h = setup Lxfi.Config.lxfi in
  ignore (Nic.inject_rx nic ~count:1 ~frame_len:64);
  Netdev.napi_schedule sys.Ksys.net (E1000.napi_addr sys ~pcidev);
  ignore (Netdev.poll_scheduled sys.Ksys.net ~budget:64);
  (* After netif_rx, the driver must hold no WRITE capability on the
     packet it handed up (which has been freed by the stack). *)
  let mi = h.Mod_common.mi in
  let stats = sys.Ksys.rt.Lxfi.Runtime.stats in
  Alcotest.(check bool) "capabilities were revoked" true (stats.Lxfi.Stats.caps_revoked > 0);
  ignore mi

let test_guard_counts_nonzero () =
  let sys, pcidev, nic, _h = setup Lxfi.Config.lxfi in
  let s0 = Lxfi.Stats.snapshot sys.Ksys.rt.Lxfi.Runtime.stats in
  ignore (send_one sys pcidev 64);
  ignore (Nic.drain_tx nic);
  let d = Lxfi.Stats.since sys.Ksys.rt.Lxfi.Runtime.stats s0 in
  Alcotest.(check bool) "write checks fired" true (d.Lxfi.Stats.mem_write_checks > 5);
  Alcotest.(check bool) "annotation actions fired" true (d.Lxfi.Stats.annotation_actions > 0);
  Alcotest.(check bool) "kernel ind-calls seen" true (d.Lxfi.Stats.kernel_indcall_all >= 3);
  Alcotest.(check bool) "some ind-calls elided (qdisc)" true
    (d.Lxfi.Stats.kernel_indcall_elided >= 2)

let test_stock_has_no_guards () =
  let sys, pcidev, nic, _h = setup Lxfi.Config.stock in
  let s0 = Lxfi.Stats.snapshot sys.Ksys.rt.Lxfi.Runtime.stats in
  ignore (send_one sys pcidev 64);
  ignore (Nic.drain_tx nic);
  let d = Lxfi.Stats.since sys.Ksys.rt.Lxfi.Runtime.stats s0 in
  Alcotest.(check int) "no write checks" 0 d.Lxfi.Stats.mem_write_checks;
  Alcotest.(check int) "no annotation actions" 0 d.Lxfi.Stats.annotation_actions

let test_two_nics config () =
  (* one module, two adapters: traffic must flow independently on each
     card (per-adapter private state), and under LXFI each instance only
     touches its own rings *)
  let sys = Ksys.boot config in
  let pci1, nic1 = Ksys.add_nic sys ~vendor:E1000.vendor ~device:E1000.device in
  let pci2, nic2 = Ksys.add_nic sys ~vendor:E1000.vendor ~device:E1000.device in
  let _h = Mod_common.install sys E1000.spec in
  for _ = 1 to 3 do
    ignore (send_one sys pci1 64)
  done;
  for _ = 1 to 5 do
    ignore (send_one sys pci2 64)
  done;
  ignore (Nic.drain_tx nic1);
  ignore (Nic.drain_tx nic2);
  Alcotest.(check int) "card 1 got its 3 packets" 3 (fst (Nic.tx_stats nic1));
  Alcotest.(check int) "card 2 got its 5 packets" 5 (fst (Nic.tx_stats nic2));
  (* receive on both, through each adapter's own napi *)
  ignore (Nic.inject_rx nic1 ~count:2 ~frame_len:64);
  ignore (Nic.inject_rx nic2 ~count:4 ~frame_len:64);
  Netdev.napi_schedule sys.Ksys.net (E1000.napi_addr sys ~pcidev:pci1);
  Netdev.napi_schedule sys.Ksys.net (E1000.napi_addr sys ~pcidev:pci2);
  let work = Netdev.poll_scheduled sys.Ksys.net ~budget:64 in
  Alcotest.(check int) "both adapters polled" 6 work

let test_strict_skb_guideline4 () =
  (* Guideline 4 (§6): with the field-accessor API, the driver receives
     packets and hands them up without ever holding WRITE over the
     sk_buff struct — only REF(sk_buff_fields) + payload WRITE. *)
  let sys = Ksys.boot Lxfi.Config.lxfi in
  let pcidev, nic = Ksys.add_nic sys ~vendor:E1000.vendor ~device:E1000.device in
  let h = Mod_common.install sys E1000.spec_strict in
  let mi = h.Mod_common.mi in
  (* watch the capability grants during one RX burst *)
  ignore (Nic.inject_rx nic ~count:4 ~frame_len:64);
  let p = Kernel_sim.Inttbl.find mi.Lxfi.Runtime.mi_aliases pcidev in
  Netdev.napi_schedule sys.Ksys.net (E1000.napi_addr sys ~pcidev);
  let work = Netdev.poll_scheduled sys.Ksys.net ~budget:64 in
  Alcotest.(check int) "strict driver receives" 4 work;
  Alcotest.(check int) "stack got the packets" 4 sys.Ksys.net.Netdev.rx_delivered_pkts;
  ignore p

let test_strict_skb_blocks_struct_writes () =
  (* the point of Guideline 4: a module on the strict API that tries to
     write the sk_buff struct directly is refused *)
  let sys = Ksys.boot Lxfi.Config.lxfi in
  ignore
    (Annot.Registry.define_exn sys.Ksys.rt.Lxfi.Runtime.registry ~name:"bench.entry"
       ~params:[ "n" ] ~annot_src:"");
  let open Mir.Builder in
  let skb_data_off = Ksys.off sys "sk_buff" "data" in
  let p =
    prog "strictmod" ~imports:[ "kmalloc"; "build_skb_strict"; "skb_set_len" ]
      ~globals:[]
      ~funcs:
        [
          func "module_init" [] [ ret0 ];
          func "entry" [ "n" ]
            [
              let_ "buf" (call_ext "kmalloc" [ ii 128 ]);
              let_ "skb" (call_ext "build_skb_strict" [ v "buf"; ii 64 ]);
              (* allowed: payload write + accessor *)
              store64 (v "buf") (ii 7);
              expr (call_ext "skb_set_len" [ v "skb"; ii 32 ]);
              when_ (v "n" ==: ii 1)
                [ (* forbidden: redirect skb->data directly *)
                  store64 (v "skb" +: ii skb_data_off) (ii 0x1234) ];
              ret0;
            ]
            ~export:"bench.entry";
        ]
  in
  let mi, _ = Ksys.load sys p in
  Alcotest.(check int64) "accessor path works" 0L
    (Lxfi.Runtime.invoke_module_function sys.Ksys.rt mi "entry" [ 0L ]);
  match Lxfi.Runtime.invoke_module_function sys.Ksys.rt mi "entry" [ 1L ] with
  | exception Lxfi.Violation.Violation v ->
      Alcotest.(check string) "struct write denied" "write-denied"
        (Lxfi.Violation.kind_name v.Lxfi.Violation.v_kind)
  | _ -> Alcotest.fail "direct sk_buff struct write must be refused"

let modes name f =
  [
    Alcotest.test_case (name ^ " [stock]") `Quick (f Lxfi.Config.stock);
    Alcotest.test_case (name ^ " [xfi]") `Quick (f Lxfi.Config.xfi);
    Alcotest.test_case (name ^ " [lxfi]") `Quick (f Lxfi.Config.lxfi);
  ]

let () =
  Klog.quiet ();
  Alcotest.run "e1000"
    [
      ("probe", modes "probe binds device" test_probe_binds);
      ("xmit", modes "transmit path" test_xmit);
      ("rx", modes "napi receive path" test_rx);
      ("completion", modes "tx completion frees skbs" test_tx_completion_frees);
      ("multi-nic", modes "two adapters, one module" test_two_nics);
      ( "principals",
        [
          Alcotest.test_case "napi/ndev alias pci principal" `Quick
            test_napi_principal_aliased;
          Alcotest.test_case "skb caps revoked after netif_rx" `Quick
            test_skb_caps_transferred_on_rx;
        ] );
      ( "guards",
        [
          Alcotest.test_case "lxfi counts guards" `Quick test_guard_counts_nonzero;
          Alcotest.test_case "stock counts none" `Quick test_stock_has_no_guards;
        ] );
      ( "guideline 4",
        [
          Alcotest.test_case "strict driver works" `Quick test_strict_skb_guideline4;
          Alcotest.test_case "strict API blocks struct writes" `Quick
            test_strict_skb_blocks_struct_writes;
        ] );
    ]
