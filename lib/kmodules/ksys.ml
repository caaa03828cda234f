(** System assembly: boot the simulated kernel, create the subsystems,
    start the LXFI runtime, and register the annotated kernel API.

    This file is the OCaml analogue of the paper's annotation corpus:
    every function-pointer {e slot type} (the interfaces through which
    the kernel calls modules) and every annotated kernel {e export}
    (the interface through which modules call the kernel) is declared
    here with its LXFI annotation string, exactly in the language of
    Figure 2.  The capability iterators referenced by the annotations
    ([skb_caps], [kmalloc_caps], ...) are registered alongside. *)

open Kernel_sim

type t = {
  kst : Kstate.t;
  rt : Lxfi.Runtime.t;
  net : Netdev.t;
  pci : Pci.t;
  sock : Sockets.t;
  blk : Blockdev.t;
  snd : Sound.t;
  shm : Shm.t;
  irq : Irqchip.t;
  mutable nics : (int * Nic.t) list;  (** pci_dev address -> NIC model *)
}

let types t = t.kst.Kstate.types
let mem t = t.kst.Kstate.mem
let off t s f = Ktypes.offset (types t) s f
let sizeof t s = Ktypes.sizeof (types t) s

(** {1 Function-pointer slot types}

    Each declaration gives a slot type its parameter names and
    annotation.  These are the contracts modules inherit through
    annotation propagation when their functions are stored into the
    corresponding struct fields.  Like every declaration in this file,
    they are parsed, validated and hashed once per process; [boot] only
    adds them to the new system's registry. *)

let declare name params annot_src =
  Annot.Registry.ok_exn (Annot.Registry.make_src ~name ~params ~annot_src)

let add_slots t slots =
  List.iter
    (fun s -> ignore (Annot.Registry.ok_exn (Annot.Registry.add t.rt.Lxfi.Runtime.registry s)))
    slots

let slot_types =
  let d = declare in
  [
    (* PCI: Figure 4 of the paper, verbatim contract. *)
    d "pci_driver.probe" [ "pcidev" ]
      "principal(pcidev) pre(copy(ref(struct pci_dev), pcidev)) \
       post(if (return < 0) transfer(ref(struct pci_dev), pcidev))";
    d "pci_driver.remove" [ "pcidev" ] "principal(pcidev)";
    (* Network device ops. NETDEV_TX_BUSY = 16 returns packet ownership
       to the kernel. *)
    d "net_device_ops.ndo_start_xmit" [ "skb"; "dev" ]
      "principal(dev) pre(transfer(skb_caps(skb))) \
       post(if (return == 16) transfer(skb_caps(skb)))";
    d "net_device_ops.ndo_open" [ "dev" ] "principal(dev)";
    d "net_device_ops.ndo_stop" [ "dev" ] "principal(dev)";
    d "net_device_ops.ndo_set_rx_mode" [ "dev" ] "principal(dev)";
    d "napi.poll" [ "napi"; "budget" ] "principal(napi)";
    (* Kernel-internal slots (qdisc, protocol demux): empty contracts —
       modules never legitimately implement them, and the hash check
       rejects any module function laundered into them. *)
    d "qdisc_ops.enqueue" [ "qdisc"; "skb" ] "";
    d "qdisc_ops.dequeue" [ "qdisc" ] "";
    d "packet_type.func" [ "skb" ] "";
    d "ipc_ops.getinfo" [ "seg" ] "";
    (* Interrupt handlers run as the instance named by dev_id. *)
    d "irq.handler" [ "irq"; "dev_id" ] "principal(dev_id)";
    (* Socket layer. The socket address names the instance principal;
       creation/release also touch module-global state, for which the
       module code itself switches to the global principal (§3.1). *)
    d "net_proto_family.create" [ "sock"; "type" ]
      "principal(sock) pre(copy(write, sock, sizeof(struct socket)))";
    d "proto_ops.sendmsg" [ "sock"; "buf"; "len"; "flags" ] "principal(sock)";
    d "proto_ops.recvmsg" [ "sock"; "buf"; "len"; "flags" ] "principal(sock)";
    d "proto_ops.ioctl" [ "sock"; "cmd"; "arg" ] "principal(sock)";
    d "proto_ops.bind" [ "sock"; "addr"; "alen" ] "principal(sock)";
    d "proto_ops.release" [ "sock" ] "principal(sock)";
    (* Device mapper: the dm_target address names the principal. *)
    d "target_type.ctr" [ "ti"; "arg" ]
      "principal(ti) pre(copy(write, ti, sizeof(struct dm_target)))";
    d "target_type.dtr" [ "ti" ] "principal(ti)";
    d "target_type.map" [ "ti"; "bio" ]
      "principal(ti) pre(transfer(bio_caps(bio))) post(transfer(bio_caps(bio)))";
    (* Sound. *)
    d "snd_pcm_ops.open" [ "card" ] "principal(card)";
    d "snd_pcm_ops.close" [ "card" ] "principal(card)";
    d "snd_pcm_ops.trigger" [ "card"; "cmd" ] "principal(card)";
    d "snd_pcm_ops.pointer" [ "card" ] "principal(card)"
  ]

(** {1 Capability iterators} *)

let register_iterators (t : t) =
  let rt = t.rt in
  (* Every iterator declares the capability kinds it can yield; the
     upgrade compatibility check ([Loader.upgrade]) uses the declaration
     to decide whether an annotation mentioning the iterator is part of
     a version's write/ref surface. *)
  let reg shapes name fn = Lxfi.Runtime.register_iterator rt ~name ~shapes fn in
  (* kmalloc_caps(p): WRITE for the object's actual (size-class) size —
     this is the precise semantics that defeats the CAN BCM overflow. *)
  reg [ Annot.Ast.Write ] "kmalloc_caps" (fun args ->
      match args with
      | [ p ] ->
          let p = Int64.to_int p in
          if p = 0 then []
          else if not (Slab.is_live t.kst.Kstate.slab p) then
            raise (Kstate.Oops (Printf.sprintf "kmalloc_caps: 0x%x is not a live object" p))
          else
            [ Lxfi.Capability.Cwrite { base = p; size = Slab.usable_size t.kst.Kstate.slab p } ]
      | _ -> invalid_arg "kmalloc_caps: expected 1 argument");
  (* skb_caps(skb): the Figure 4 iterator — the struct and its payload. *)
  reg [ Annot.Ast.Write ] "skb_caps" (fun args ->
      match args with
      | [ skb ] ->
          let skb = Int64.to_int skb in
          if skb = 0 then []
          else begin
            let data = Skbuff.data t.kst skb in
            let len = Skbuff.len t.kst skb in
            Lxfi.Capability.Cwrite { base = skb; size = Skbuff.layout.Ktypes.s_size }
            :: (if data <> 0 && len > 0 then
                  [ Lxfi.Capability.Cwrite { base = data; size = len } ]
                else [])
          end
      | _ -> invalid_arg "skb_caps: expected 1 argument");
  (* skb_strict_caps(skb): Guideline 4 (§6) — instead of WRITE over the
     whole sk_buff, the module receives a REF of the special type
     sk_buff_fields (unlocking the field-accessor exports below) plus
     WRITE on the payload only.  The struct itself stays out of reach:
     a compromised driver cannot redirect skb->data or forge lengths. *)
  reg
    [ Annot.Ast.Write; Annot.Ast.Ref "sk_buff_fields" ]
    "skb_strict_caps" (fun args ->
      match args with
      | [ skb ] ->
          let skb = Int64.to_int skb in
          if skb = 0 then []
          else begin
            let data = Skbuff.data t.kst skb in
            let len = Skbuff.len t.kst skb in
            Lxfi.Capability.Cref { rtype = "sk_buff_fields"; addr = skb }
            :: (if data <> 0 && len > 0 then
                  [ Lxfi.Capability.Cwrite { base = data; size = len } ]
                else [])
          end
      | _ -> invalid_arg "skb_strict_caps: expected 1 argument");
  (* pci_bar_caps(pcidev): the device's MMIO window. *)
  reg [ Annot.Ast.Write ] "pci_bar_caps" (fun args ->
      match args with
      | [ dev ] ->
          let dev = Int64.to_int dev in
          let bar = Pci.bar0 t.pci dev and len = Pci.bar0_len t.pci dev in
          if bar = 0 || len = 0 then []
          else [ Lxfi.Capability.Cwrite { base = bar; size = len } ]
      | _ -> invalid_arg "pci_bar_caps: expected 1 argument");
  (* bio_caps(bio): struct + payload, like skb_caps. *)
  reg [ Annot.Ast.Write ] "bio_caps" (fun args ->
      match args with
      | [ bio ] ->
          let bio = Int64.to_int bio in
          if bio = 0 then []
          else begin
            let data = Blockdev.bio_data t.blk bio in
            let size = Blockdev.bio_size t.blk bio in
            Lxfi.Capability.Cwrite { base = bio; size = Blockdev.bio_layout.Ktypes.s_size }
            :: (if data <> 0 && size > 0 then
                  [ Lxfi.Capability.Cwrite { base = data; size } ]
                else [])
          end
      | _ -> invalid_arg "bio_caps: expected 1 argument");
  (* snd_card_caps(card): card struct, DMA area, and the REF that
     names the card for registration.  A pointer that is not a card
     reads no DMA area, and yields no WRITE for one. *)
  reg
    [ Annot.Ast.Write; Annot.Ast.Ref "snd_card" ]
    "snd_card_caps" (fun args ->
      match args with
      | [ card ] ->
          let card = Int64.to_int card in
          if card = 0 then []
          else begin
            let dma = Sound.dma_area t.snd card in
            let bytes = Sound.dma_bytes t.snd card in
            let name = Lxfi.Capability.Cref { rtype = "snd_card"; addr = card } in
            Lxfi.Capability.Cwrite { base = card; size = Sound.card_layout.Ktypes.s_size }
            ::
            (if dma <> 0 && bytes > 0 then
               [ Lxfi.Capability.Cwrite { base = dma; size = bytes }; name ]
             else [ name ])
          end
      | _ -> invalid_arg "snd_card_caps: expected 1 argument")

(** {1 Annotated kernel exports}

    Each body takes the booted system it runs in, so the list is built
    once per process and [boot] registers it, in this order, against
    each new system. *)

let arg n args =
  match List.nth_opt args n with
  | Some v -> Int64.to_int v
  | None -> raise (Kstate.Oops (Printf.sprintf "kernel export: missing argument %d" n))

let kexports : (Annot.Registry.slot * (t -> int64 list -> int64)) list =
  let d name params annot_src impl = (declare name params annot_src, impl) in
  [
    (* --- memory --- *)
    d "kmalloc" [ "size" ] "post(if (return != 0) copy(kmalloc_caps(return)))"
      (fun { kst; _ } args ->
        let size = arg 0 args in
        if size <= 0 then 0L
        else
          (* An (injected) allocation failure is NULL to the caller, as in
             the real kernel — modules must handle it. *)
          match Slab.kmalloc kst.Kstate.slab size with
          | addr -> Int64.of_int addr
          | exception Slab.Out_of_memory -> 0L);
    d "kfree" [ "ptr" ] "pre(transfer(kmalloc_caps(ptr)))" (fun { kst; _ } args ->
        Slab.kfree kst.Kstate.slab (arg 0 args);
        0L);
    d "ksize" [ "ptr" ] "" (fun { kst; _ } args ->
        Int64.of_int (Slab.usable_size kst.Kstate.slab (arg 0 args)));
    (* --- locking: the §1 confused-deputy example; the check annotation
       is exactly what stops a module from pointing the "lock" at the
       current process's uid. --- *)
    d "spin_lock_init" [ "lock" ] "pre(check(write, lock, 4))"
      (fun { kst; _ } args ->
        Klock.spin_lock_init kst (arg 0 args);
        0L);
    d "spin_lock" [ "lock" ] "pre(check(write, lock, 4))" (fun { kst; _ } args ->
        Klock.spin_lock kst (arg 0 args);
        0L);
    d "spin_unlock" [ "lock" ] "pre(check(write, lock, 4))" (fun { kst; _ } args ->
        Klock.spin_unlock kst (arg 0 args);
        0L);
    (* --- uaccess --- *)
    d "copy_to_user" [ "dst"; "src"; "len" ] "" (fun { kst; _ } args ->
        let dst = arg 0 args and src = arg 1 args and len = arg 2 args in
        (* The checked variant honours the task address limit. *)
        match
          for i = 0 to len - 1 do
            Kstate.put_user kst ~addr:(dst + i) ~size:1
              (Kmem.read kst.Kstate.mem ~addr:(src + i) ~size:1)
          done
        with
        | () -> 0L
        | exception Kstate.Efault _ -> -14L);
    d "copy_from_user" [ "dst"; "src"; "len" ] "pre(check(write, dst, len))"
      (fun { kst; _ } args ->
        let dst = arg 0 args and src = arg 1 args and len = arg 2 args in
        match
          for i = 0 to len - 1 do
            Kmem.write kst.Kstate.mem ~addr:(dst + i) ~size:1
              (Kstate.get_user kst ~addr:(src + i) ~size:1)
          done
        with
        | () -> 0L
        | exception Kstate.Efault _ -> -14L);
    (* The unchecked copy primitive at the heart of CVE-2010-3904: the
       RDS page-copy path used it with a user-controlled destination and
       no access_ok check.  Its LXFI annotation demands the caller own
       WRITE on the destination — which the module does not, for kernel
       addresses it was never granted. *)
    d "__copy_to_user_inatomic" [ "dst"; "src"; "len" ] "pre(check(write, dst, len))"
      (fun { kst; _ } args ->
        let dst = arg 0 args and src = arg 1 args and len = arg 2 args in
        Kmem.blit kst.Kstate.mem ~src ~dst ~len;
        0L);
    d "set_fs" [ "limit" ] "" (fun { kst; _ } args ->
        Kstate.set_fs kst (arg 0 args);
        0L);
    d "printk" [ "level" ] "" (fun _ _ -> 0L);
    (* detach_pid: exported, powerful, and not imported by any module in
       the corpus — the pid-hash rootkit of §8.1 tries to reach it
       through a corrupted function pointer. *)
    d "detach_pid" [ "task" ] "pre(check(ref(struct task_struct), task))"
      (fun { kst; _ } _args ->
        Kstate.detach_pid kst kst.Kstate.current;
        0L);
    (* --- sk_buffs --- *)
    d "alloc_skb" [ "len" ] "post(if (return != 0) copy(skb_caps(return)))"
      (fun { kst; _ } args -> Int64.of_int (Skbuff.alloc kst (arg 0 args)));
    d "build_skb" [ "buf"; "len" ] "post(if (return != 0) copy(skb_caps(return)))"
      (fun { kst; _ } args ->
        Int64.of_int (Skbuff.build kst ~buf:(arg 0 args) ~len:(arg 1 args)));
    d "kfree_skb" [ "skb" ] "pre(transfer(skb_caps(skb)))" (fun { kst; _ } args ->
        Skbuff.free kst (arg 0 args);
        0L);
    d "skb_put" [ "skb"; "len" ] "pre(check(write, skb, sizeof(struct sk_buff)))"
      (fun { kst; _ } args ->
        let skb = arg 0 args and len = arg 1 args in
        Skbuff.set_len kst skb (Skbuff.len kst skb + len);
        Int64.of_int (Skbuff.data kst skb));
    (* Guideline 4 field accessors: the kernel mutates the five fields
       drivers actually need, gated on the strict REF rather than WRITE
       over the struct. *)
    d "skb_set_dev" [ "skb"; "dev" ]
      "pre(check(ref(sk_buff_fields), skb)) pre(check(ref(struct net_device), dev))"
      (fun { kst; _ } args ->
        Skbuff.set_dev kst (arg 0 args) (arg 1 args);
        0L);
    d "skb_set_len" [ "skb"; "len" ] "pre(check(ref(sk_buff_fields), skb))"
      (fun { kst; _ } args ->
        Skbuff.set_len kst (arg 0 args) (arg 1 args);
        0L);
    d "build_skb_strict" [ "buf"; "len" ]
      "post(if (return != 0) copy(skb_strict_caps(return)))"
      (fun { kst; _ } args ->
        Int64.of_int (Skbuff.build kst ~buf:(arg 0 args) ~len:(arg 1 args)));
    d "netif_rx_strict" [ "skb" ] "pre(transfer(skb_strict_caps(skb)))" (fun t args ->
        Netdev.netif_rx t.net (arg 0 args));
    (* --- net core --- *)
    d "netif_rx" [ "skb" ] "pre(transfer(skb_caps(skb)))" (fun t args ->
        Netdev.netif_rx t.net (arg 0 args));
    d "dev_queue_xmit" [ "skb" ] "pre(transfer(skb_caps(skb)))" (fun t args ->
        Netdev.dev_queue_xmit t.net (arg 0 args));
    d "alloc_etherdev" [ "priv" ]
      "post(if (return != 0) copy(write, return, sizeof(struct net_device))) \
       post(if (return != 0) copy(ref(struct net_device), return))"
      (fun t _args -> Int64.of_int (Netdev.alloc_netdev t.net ~name:"eth%d"));
    d "register_netdev" [ "dev" ] "pre(check(ref(struct net_device), dev))" (fun t args ->
        Netdev.register_netdev t.net (arg 0 args));
    d "netif_napi_add" [ "dev"; "napi"; "weight" ]
      "pre(check(ref(struct net_device), dev)) \
       pre(check(write, napi, sizeof(struct napi_struct)))"
      (fun t args ->
        Netdev.netif_napi_add t.net ~dev:(arg 0 args) ~napi:(arg 1 args)
          ~weight:(arg 2 args);
        0L);
    d "napi_schedule" [ "napi" ] "pre(check(write, napi, sizeof(struct napi_struct)))"
      (fun t args ->
        Netdev.napi_schedule t.net (arg 0 args);
        0L);
    (* --- interrupts ---
       The handler is a module-supplied callback function pointer passed
       by value: the module must already hold a CALL capability for it
       (the callback-argument contract of §2.2). *)
    d "request_irq" [ "irq"; "handler"; "dev_id" ] "pre(check(call, handler))"
      (fun t args ->
        Irqchip.request_irq t.irq ~irq:(arg 0 args) ~handler:(arg 1 args)
          ~dev_id:(arg 2 args));
    d "free_irq" [ "irq" ] "" (fun t args ->
        Irqchip.free_irq t.irq ~irq:(arg 0 args);
        0L);
    (* --- legacy port I/O (Guideline 3: special REF type io_port) --- *)
    d "outb" [ "port"; "value" ] "pre(check(ref(io_port), port))" (fun t args ->
        Pci.outb t.pci ~port:(arg 0 args) ~value:(arg 1 args);
        0L);
    d "inb" [ "port" ] "pre(check(ref(io_port), port))" (fun t args ->
        Int64.of_int (Pci.inb t.pci ~port:(arg 0 args)));
    (* --- PCI --- *)
    d "pci_register_driver" [ "drv" ] "pre(check(write, drv, sizeof(struct pci_driver)))"
      (fun t args -> Int64.of_int (Pci.register_driver t.pci (arg 0 args)));
    d "pci_enable_device" [ "pcidev" ] "pre(check(ref(struct pci_dev), pcidev))"
      (fun t args -> Pci.pci_enable_device t.pci (arg 0 args));
    d "pci_disable_device" [ "pcidev" ] "pre(check(ref(struct pci_dev), pcidev))"
      (fun t args -> Pci.pci_disable_device t.pci (arg 0 args));
    d "pci_request_regions" [ "pcidev" ]
      "pre(check(ref(struct pci_dev), pcidev)) post(copy(pci_bar_caps(pcidev)))"
      (fun _ _args -> 0L);
    d "pci_request_ioport" [ "pcidev" ]
      "pre(check(ref(struct pci_dev), pcidev)) post(copy(ref(io_port), return))"
      (fun t args -> Int64.of_int (Pci.ioport t.pci (arg 0 args)));
    d "pci_set_drvdata" [ "pcidev"; "data" ] "pre(check(ref(struct pci_dev), pcidev))"
      (fun t args ->
        Pci.pci_set_drvdata t.pci (arg 0 args) (arg 1 args);
        0L);
    d "pci_get_drvdata" [ "pcidev" ] "pre(check(ref(struct pci_dev), pcidev))"
      (fun t args -> Int64.of_int (Pci.pci_get_drvdata t.pci (arg 0 args)));
    (* --- sockets --- *)
    d "sock_register" [ "npf" ]
      "pre(check(write, npf, sizeof(struct net_proto_family)))" (fun t args ->
        Sockets.sock_register t.sock (arg 0 args));
    d "sock_unregister" [ "family" ] "" (fun t args ->
        Sockets.sock_unregister t.sock (arg 0 args);
        0L);
    (* --- device mapper --- *)
    d "dm_register_target" [ "tt" ] "pre(check(write, tt, sizeof(struct target_type)))"
      (fun _ args ->
        (* The target name is conveyed out of band at module setup; the
           kexport validates memory ownership of the ops table. *)
        ignore (arg 0 args);
        0L);
    (* --- sound --- *)
    d "snd_card_create" [ "dma_bytes" ] "post(copy(snd_card_caps(return)))" (fun t args ->
        Int64.of_int (Sound.snd_card_create t.snd ~name:"card" ~dma_bytes:(arg 0 args)));
    d "snd_card_register" [ "card" ] "pre(check(ref(struct snd_card), card))"
      (fun t args -> Sound.snd_card_register t.snd (arg 0 args));
    d "snd_pcm_period_elapsed" [ "card" ] "pre(check(ref(struct snd_card), card))"
      (fun t args -> Sound.snd_pcm_period_elapsed t.snd (arg 0 args))
  ]

(** {1 Boot} *)

let boot (config : Lxfi.Config.t) : t =
  let kst = Kstate.boot () in
  Skbuff.define_layout kst.Kstate.types;
  Netdev.define_layout kst.Kstate.types;
  Pci.define_layout kst.Kstate.types;
  Sockets.define_layout kst.Kstate.types;
  Blockdev.define_layout kst.Kstate.types;
  Sound.define_layout kst.Kstate.types;
  Shm.define_layout kst.Kstate.types;
  let rt = Lxfi.Runtime.create ~kst ~config in
  let t =
    {
      kst;
      rt;
      net = Netdev.create kst;
      pci = Pci.create kst;
      sock = Sockets.create kst;
      blk = Blockdev.create kst;
      snd = Sound.create kst;
      shm = Shm.create kst;
      irq = Irqchip.create kst;
      nics = [];
    }
  in
  add_slots t slot_types;
  register_iterators t;
  List.iter
    (fun (d, impl) -> ignore (Annot.Registry.ok_exn (Lxfi.Runtime.register_kexport rt d (impl t))))
    kexports;
  Lxfi.Runtime.install rt;
  t

(** [add_nic t ~vendor ~device] plugs in a NIC and returns its pci_dev
    address; the hardware model is attached to the BAR. *)
let add_nic t ~vendor ~device =
  let dev = Pci.add_device t.pci ~vendor ~device ~bar_len:Nic.bar_len in
  let nic = Nic.create t.kst ~bar:(Pci.bar0 t.pci dev) in
  t.nics <- (dev, nic) :: t.nics;
  (dev, nic)

(** [load t prog] — convenience: rewrite + load a module. *)
let load t prog = Lxfi.Loader.load t.rt prog

(** [as_user t f] runs [f] as an unprivileged task and reports whether
    the run escalated privileges (uid 0) — the exploit harness's
    success criterion. *)
let as_user t ?(comm = "attacker") f =
  let task = Kstate.spawn_task t.kst ~uid:1000 ~comm in
  let saved = t.kst.Kstate.current in
  Kstate.switch_to t.kst task;
  let restore () = Kstate.switch_to t.kst saved in
  match f task with
  | v ->
      let escalated =
        Hashtbl.mem t.kst.Kstate.run_queue task.Task.pid
        && Task.is_root t.kst.Kstate.mem task
      in
      restore ();
      (v, escalated)
  | exception e ->
      restore ();
      raise e
