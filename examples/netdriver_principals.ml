(* Multi-principal modules in action (§3.1): one e1000 module driving
   TWO network cards, each its own principal; plus two dm-crypt devices
   whose keys stay out of each other's reach.

     dune exec examples/netdriver_principals.exe *)

open Kernel_sim
open Kmodules

let say fmt = Format.printf (fmt ^^ "@.")

let () =
  Klog.quiet ();
  say "== multi-principal modules ==";
  let sys = Ksys.boot Lxfi.Config.lxfi in

  (* Two NICs of the same model: one driver module, two instances. *)
  let pci1, nic1 = Ksys.add_nic sys ~vendor:E1000.vendor ~device:E1000.device in
  let pci2, nic2 = Ksys.add_nic sys ~vendor:E1000.vendor ~device:E1000.device in
  ignore nic2;
  let h = Mod_common.install sys E1000.spec in
  let mi = h.Mod_common.mi in
  say "";
  say "one e1000 module, two cards probed:";
  let p1 = Kernel_sim.Inttbl.find mi.Lxfi.Runtime.mi_aliases pci1 in
  let p2 = Kernel_sim.Inttbl.find mi.Lxfi.Runtime.mi_aliases pci2 in
  say "  card 1 -> principal %s" (Lxfi.Principal.describe p1);
  say "  card 2 -> principal %s" (Lxfi.Principal.describe p2);

  (* Each instance owns its own MMIO window and nothing else's. *)
  let bar1 = Pci.bar0 sys.Ksys.pci pci1 and bar2 = Pci.bar0 sys.Ksys.pci pci2 in
  let owns p bar =
    Lxfi.Runtime.principal_has sys.Ksys.rt p (Lxfi.Capability.Cwrite { base = bar; size = 64 })
  in
  say "  principal 1 can write card 1's registers: %b" (owns p1 bar1);
  say "  principal 1 can write card 2's registers: %b  <- isolation" (owns p1 bar2);
  say "  principal 2 can write card 2's registers: %b" (owns p2 bar2);

  (* Traffic still flows normally on both. *)
  let send pci n =
    let dev = Pci.pci_get_drvdata sys.Ksys.pci pci in
    for _ = 1 to n do
      let skb = Skbuff.alloc sys.Ksys.kst 64 in
      Skbuff.set_dev sys.Ksys.kst skb dev;
      ignore (Netdev.dev_queue_xmit sys.Ksys.net skb)
    done
  in
  send pci1 5;
  ignore (Nic.drain_tx nic1);
  let pkts, bytes = Nic.tx_stats nic1 in
  say "  card 1 transmitted %d packets (%d bytes) under full enforcement" pkts bytes;

  (* dm-crypt: the §2.1 malicious-USB-stick scenario. *)
  say "";
  say "dm-crypt: two encrypted devices, two keys:";
  let _hc = Mod_common.install sys Dm_crypt.spec in
  let ti1 =
    Result.get_ok
      (Blockdev.dm_create sys.Ksys.blk ~target:"crypt" ~name:"system-disk" ~len:4096
         ~arg:0x1111)
  in
  let ti2 =
    Result.get_ok
      (Blockdev.dm_create sys.Ksys.blk ~target:"crypt" ~name:"usb-stick" ~len:4096
         ~arg:0x2222)
  in
  let cmi = Option.get (Lxfi.Runtime.module_named sys.Ksys.rt "dm_crypt") in
  let q1 = Kernel_sim.Inttbl.find cmi.Lxfi.Runtime.mi_aliases ti1 in
  let q2 = Kernel_sim.Inttbl.find cmi.Lxfi.Runtime.mi_aliases ti2 in
  say "  system-disk -> %s" (Lxfi.Principal.describe q1);
  say "  usb-stick   -> %s" (Lxfi.Principal.describe q2);
  let key_of ti =
    Kmem.read_ptr sys.Ksys.kst.Kstate.mem
      (ti + Ktypes.offset sys.Ksys.kst.Kstate.types "dm_target" "private")
  in
  let can_touch p ti =
    Lxfi.Runtime.principal_has sys.Ksys.rt p
      (Lxfi.Capability.Cwrite { base = key_of ti; size = 8 })
  in
  say "  usb-stick principal can write its own key context:    %b" (can_touch q2 ti2);
  say "  usb-stick principal can write the system disk's key:  %b  <- the paper's point"
    (can_touch q2 ti1);
  say "";
  say "A compromise through the USB stick is confined to the USB stick's";
  say "capabilities; the system disk's key and data stay out of reach."
