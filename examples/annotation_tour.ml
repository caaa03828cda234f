(* A tour of the LXFI annotation language (paper §3, Figures 2-4).

     dune exec examples/annotation_tour.exe

   Parses each annotation shape, shows its canonical form and hash, and
   then replays Figure 4's PCI-probe contract against the live runtime,
   watching capabilities appear and disappear. *)

open Kernel_sim
open Kmodules

let say fmt = Format.printf (fmt ^^ "@.")

let show_annot s =
  match Annot.Parser.parse s with
  | Error e -> say "  %-60s PARSE ERROR: %s" s (Annot.Parser.error_to_string e)
  | Ok t ->
      say "  input:     %s" s;
      say "  canonical: %s" (Annot.Ast.to_string t);
      say "  ahash:     0x%Lx" (Annot.Hash.of_annot ~params:[ "a"; "b" ] t);
      say ""

let () =
  Klog.quiet ();
  say "== the annotation grammar (Figure 2) ==";
  say "";
  List.iter show_annot
    [
      "pre(check(write, lock, 4))";
      "post(if (return != 0) copy(write, return, size))";
      "pre(transfer(skb_caps(skb)))";
      "principal(pcidev) pre(copy(ref(struct pci_dev), pcidev)) \
       post(if (return < 0) transfer(ref(struct pci_dev), pcidev))";
      "pre(check(ref(io_port), port))";
    ];

  say "== Figure 4 live: the PCI probe contract ==";
  say "";
  let sys = Ksys.boot Lxfi.Config.lxfi in
  let pcidev, _nic = Ksys.add_nic sys ~vendor:E1000.vendor ~device:E1000.device in
  say "hot-plugged a NIC; its pci_dev struct is at 0x%x" pcidev;
  say "";
  say "the slot type pci_driver.probe carries:";
  let slot = Annot.Registry.find sys.Ksys.rt.Lxfi.Runtime.registry "pci_driver.probe" in
  say "  %s" (Annot.Ast.to_string slot.Annot.Registry.sl_annot);
  say "";
  say "loading e1000: the PCI core invokes probe through that slot...";
  let h = Mod_common.install sys E1000.spec in
  let mi = h.Mod_common.mi in
  let p = Kernel_sim.Inttbl.find mi.Lxfi.Runtime.mi_aliases pcidev in
  say "  probe ran as %s (the principal clause)" (Lxfi.Principal.describe p);
  say "  REF(pci_dev) granted by pre(copy):        %b"
    (Lxfi.Runtime.principal_has sys.Ksys.rt p
       (Lxfi.Capability.Cref { rtype = "pci_dev"; addr = pcidev }));
  let bar = Pci.bar0 sys.Ksys.pci pcidev in
  say "  WRITE on the MMIO BAR from pci_request_regions' iterator: %b"
    (Lxfi.Runtime.principal_has sys.Ksys.rt p
       (Lxfi.Capability.Cwrite { base = bar; size = 64 }));
  say "";

  say "== transfer semantics: a packet's journey ==";
  say "";
  let kst = sys.Ksys.kst in
  let dev = Pci.pci_get_drvdata sys.Ksys.pci pcidev in
  let skb = Skbuff.alloc kst 64 in
  Skbuff.set_dev kst skb dev;
  let data = Skbuff.data kst skb in
  let driver_owns () =
    Lxfi.Runtime.principal_has sys.Ksys.rt p
      (Lxfi.Capability.Cwrite { base = data; size = 64 })
  in
  say "kernel allocates an skb (payload at 0x%x); driver owns it: %b" data (driver_owns ());
  say "dev_queue_xmit -> ndo_start_xmit: pre(transfer(skb_caps(skb)))...";
  ignore (Netdev.dev_queue_xmit sys.Ksys.net skb);
  say "  during transmit the driver held WRITE on the payload;";
  say "  after kfree_skb's pre(transfer) revoked it everywhere: %b" (driver_owns ());
  say "";
  say "capability operations so far: %s"
    (Fmt.str "grants=%d revokes=%d"
       sys.Ksys.rt.Lxfi.Runtime.stats.Lxfi.Stats.caps_granted
       sys.Ksys.rt.Lxfi.Runtime.stats.Lxfi.Stats.caps_revoked);
  say "";
  say "Every contract in this reproduction's kernel API:";
  List.iter
    (fun (s : Annot.Registry.slot) ->
      if s.Annot.Registry.sl_annot <> [] then
        say "  %-32s %s" s.Annot.Registry.sl_name
          (Annot.Ast.to_string s.Annot.Registry.sl_annot))
    (Annot.Registry.all sys.Ksys.rt.Lxfi.Runtime.registry)
