(* Unit tests for the kernel substrate itself: tasks, uaccess, the
   oops/do_exit path (both vulnerable and fixed kernels), pid hash vs.
   run queue, PCI matching, IRQ dispatch, SHM, locks, netdev stats. *)

open Kernel_sim

let boot = Kstate.boot

(* ---- tasks and creds ---- *)

let test_task_lifecycle () =
  let kst = boot () in
  let t = Kstate.spawn_task kst ~uid:1000 ~comm:"worker" in
  Alcotest.(check int) "uid stored" 1000 (Task.uid kst.Kstate.mem t);
  Alcotest.(check string) "comm stored" "worker" (Task.comm kst.Kstate.mem t);
  Alcotest.(check bool) "not root" false (Task.is_root kst.Kstate.mem t);
  Task.set_uid kst.Kstate.mem t 0;
  Alcotest.(check bool) "escalated" true (Task.is_root kst.Kstate.mem t);
  Alcotest.(check bool) "in ps" true (List.mem t.Task.pid (Kstate.ps kst));
  Alcotest.(check bool) "scheduled" true (List.mem t.Task.pid (Kstate.scheduled kst))

let test_uid_is_memory () =
  (* the uid is a memory-resident field — the thing arbitrary writes
     target *)
  let kst = boot () in
  let t = Kstate.spawn_task kst ~uid:1000 ~comm:"victim" in
  let uid_addr = Task.field_addr t "uid" in
  Kmem.write_u32 kst.Kstate.mem uid_addr 0;
  Alcotest.(check int) "direct write changed uid" 0 (Task.uid kst.Kstate.mem t)

let test_detach_pid_hides () =
  let kst = boot () in
  let t = Kstate.spawn_task kst ~uid:1000 ~comm:"ghost" in
  Kstate.detach_pid kst t;
  Alcotest.(check bool) "hidden from ps" false (List.mem t.Task.pid (Kstate.ps kst));
  Alcotest.(check bool) "still scheduled" true (List.mem t.Task.pid (Kstate.scheduled kst))

(* ---- uaccess and address limits ---- *)

let test_put_user_checks_limit () =
  let kst = boot () in
  let u = Kstate.user_alloc kst 16 in
  Kstate.put_user kst ~addr:u ~size:4 7L;
  Alcotest.(check int64) "user write lands" 7L (Kmem.read kst.Kstate.mem ~addr:u ~size:4);
  let kaddr = Slab.kmalloc kst.Kstate.slab 16 in
  Alcotest.check_raises "kernel address refused under USER_DS" (Kstate.Efault kaddr)
    (fun () -> Kstate.put_user kst ~addr:kaddr ~size:4 7L);
  Kstate.set_fs kst Task.kernel_ds;
  Kstate.put_user kst ~addr:kaddr ~size:4 9L;
  Alcotest.(check int64) "KERNEL_DS lets it through" 9L
    (Kmem.read kst.Kstate.mem ~addr:kaddr ~size:4)

let test_do_exit_vulnerable_vs_fixed () =
  let run ~fixed =
    let kst = boot () in
    kst.Kstate.cve_2010_4258_fixed <- fixed;
    let victim_slot = Slab.kmalloc kst.Kstate.slab 8 in
    Kmem.write_u64 kst.Kstate.mem victim_slot 0xffffffffffffffffL;
    let t = Kstate.spawn_task kst ~uid:1000 ~comm:"dying" in
    Kstate.switch_to kst t;
    Task.set_clear_child_tid kst.Kstate.mem t victim_slot;
    Kstate.set_fs kst Task.kernel_ds (* the stale limit *);
    Kstate.do_exit kst;
    Kmem.read kst.Kstate.mem ~addr:victim_slot ~size:4
  in
  Alcotest.(check int64) "vulnerable kernel zeroes kernel memory" 0L (run ~fixed:false);
  Alcotest.(check int64) "fixed kernel does not" 0xffffffffL (run ~fixed:true)

let test_with_syscall_oops_runs_do_exit () =
  let kst = boot () in
  let t = Kstate.spawn_task kst ~uid:1000 ~comm:"crasher" in
  Kstate.switch_to kst t;
  let r = Kstate.with_syscall kst (fun () -> Kmem.read kst.Kstate.mem ~addr:4 ~size:4) in
  Alcotest.(check bool) "syscall reported error" true (Result.is_error r);
  Alcotest.(check int) "oops counted" 1 kst.Kstate.oops_count;
  Alcotest.(check bool) "task reaped" false (List.mem t.Task.pid (Kstate.scheduled kst))

(* ---- locks ---- *)

let test_spinlock_state_machine () =
  let kst = boot () in
  let lock = Slab.kmalloc kst.Kstate.slab 8 in
  Klock.spin_lock_init kst lock;
  Alcotest.(check bool) "unlocked" false (Klock.is_locked kst lock);
  Klock.spin_lock kst lock;
  Alcotest.(check bool) "locked" true (Klock.is_locked kst lock);
  (match Klock.spin_lock kst lock with
  | exception Kstate.Oops _ -> ()
  | _ -> Alcotest.fail "double lock must oops (single core)");
  Klock.spin_unlock kst lock;
  match Klock.spin_unlock kst lock with
  | exception Kstate.Oops _ -> ()
  | _ -> Alcotest.fail "unlock of free lock must oops"

(* ---- PCI ---- *)

let test_pci_matching () =
  let kst = boot () in
  Pci.define_layout kst.Kstate.types;
  let pci = Pci.create kst in
  let d1 = Pci.add_device pci ~vendor:0x8086 ~device:0x100e ~bar_len:64 in
  let _d2 = Pci.add_device pci ~vendor:0x1274 ~device:0x5000 ~bar_len:64 in
  let probed = ref [] in
  (* a fake driver struct in kernel memory with a registered probe fn *)
  let drv = Slab.kmalloc kst.Kstate.slab (Ktypes.sizeof kst.Kstate.types "pci_driver") in
  Kmem.write_u32 kst.Kstate.mem (drv + Ktypes.offset kst.Kstate.types "pci_driver" "vendor") 0x8086;
  Kmem.write_u32 kst.Kstate.mem (drv + Ktypes.offset kst.Kstate.types "pci_driver" "device") 0x100e;
  let probe_addr =
    Kstate.register_kernel_fn kst "test_probe" (fun args ->
        probed := Int64.to_int (List.nth args 0) :: !probed;
        0L)
  in
  Kmem.write_ptr kst.Kstate.mem
    (drv + Ktypes.offset kst.Kstate.types "pci_driver" "probe")
    probe_addr;
  let n = Pci.register_driver pci drv in
  Alcotest.(check int) "exactly one device matched" 1 n;
  Alcotest.(check (list int)) "the right one" [ d1 ] !probed;
  (* re-registration does not double-probe claimed devices *)
  Alcotest.(check int) "no rebind" 0 (Pci.register_driver pci drv)

let test_pci_ioports_distinct () =
  let kst = boot () in
  Pci.define_layout kst.Kstate.types;
  let pci = Pci.create kst in
  let d1 = Pci.add_device pci ~vendor:1 ~device:1 ~bar_len:64 in
  let d2 = Pci.add_device pci ~vendor:1 ~device:2 ~bar_len:64 in
  Alcotest.(check bool) "distinct ports" true (Pci.ioport pci d1 <> Pci.ioport pci d2);
  Pci.outb pci ~port:(Pci.ioport pci d1) ~value:0xab;
  Alcotest.(check int) "port readback" 0xab (Pci.inb pci ~port:(Pci.ioport pci d1));
  Alcotest.(check int) "other port untouched" 0 (Pci.inb pci ~port:(Pci.ioport pci d2))

(* ---- IRQ ---- *)

let test_irq_dispatch () =
  let kst = boot () in
  let irqc = Irqchip.create kst in
  let fired = ref 0 in
  let handler =
    Kstate.register_kernel_fn kst "test_handler" (fun args ->
        fired := Int64.to_int (List.nth args 1);
        1L)
  in
  Alcotest.(check int64) "spurious irq unhandled" 0L (Irqchip.raise_irq irqc ~irq:9);
  Alcotest.(check int64) "registration ok" 0L
    (Irqchip.request_irq irqc ~irq:9 ~handler ~dev_id:0x77);
  Alcotest.(check int64) "busy line refused" (-16L)
    (Irqchip.request_irq irqc ~irq:9 ~handler ~dev_id:0x78);
  Alcotest.(check int64) "handled" 1L (Irqchip.raise_irq irqc ~irq:9);
  Alcotest.(check int) "dev_id delivered" 0x77 !fired;
  Irqchip.free_irq irqc ~irq:9;
  Alcotest.(check int64) "unhandled after free" 0L (Irqchip.raise_irq irqc ~irq:9)

(* ---- SHM ---- *)

let test_shm_segments () =
  let kst = boot () in
  Shm.define_layout kst.Kstate.types;
  let shm = Shm.create kst in
  let id = Shm.sys_shmget shm in
  let seg = Shm.segment_addr shm id in
  Alcotest.(check int64) "magic stamped" Shm.magic (Kmem.read_u64 kst.Kstate.mem seg);
  Alcotest.(check int64) "shmctl follows the op pointer" 0L (Shm.sys_shmctl shm ~id);
  Alcotest.(check int64) "bad id" (-22L) (Shm.sys_shmctl shm ~id:999);
  (* segments come from the 16-byte class: adjacency for the exploit *)
  let id2 = Shm.sys_shmget shm in
  Alcotest.(check int) "adjacent segments" 16 (Shm.segment_addr shm id2 - seg)

(* ---- netdev ---- *)

let test_netdev_stats_and_qdisc () =
  let kst = boot () in
  Skbuff.define_layout kst.Kstate.types;
  Netdev.define_layout kst.Kstate.types;
  let net = Netdev.create kst in
  let dev = Netdev.alloc_netdev net ~name:"eth0" in
  Alcotest.(check string) "name" "eth0" (Netdev.dev_name net dev);
  (* wire the xmit slot to a kernel function so the qdisc path runs *)
  let ops = Slab.kmalloc kst.Kstate.slab (Ktypes.sizeof kst.Kstate.types "net_device_ops") in
  let xmit =
    Kstate.register_kernel_fn kst "test_xmit" (fun _ -> Netdev.netdev_tx_ok)
  in
  Kmem.write_ptr kst.Kstate.mem
    (ops + Ktypes.offset kst.Kstate.types "net_device_ops" "ndo_start_xmit")
    xmit;
  Kmem.write_ptr kst.Kstate.mem
    (dev + Ktypes.offset kst.Kstate.types "net_device" "dev_ops")
    ops;
  let skb = Skbuff.alloc kst 100 in
  Skbuff.set_dev kst skb dev;
  Alcotest.(check int64) "xmit ok" 0L (Netdev.dev_queue_xmit net skb);
  let tx_p, tx_b, _, _ = Netdev.stats net dev in
  Alcotest.(check int) "tx packet counted" 1 tx_p;
  Alcotest.(check int) "tx bytes counted" 100 tx_b;
  (* skb without a device oopses, like the real stack would *)
  let skb2 = Skbuff.alloc kst 10 in
  match Netdev.dev_queue_xmit net skb2 with
  | exception Kstate.Oops _ -> ()
  | _ -> Alcotest.fail "xmit without device must oops"

let test_skbuff_lifecycle () =
  let kst = boot () in
  Skbuff.define_layout kst.Kstate.types;
  let live0 = Slab.live_objects kst.Kstate.slab in
  let skb = Skbuff.alloc kst 64 in
  Alcotest.(check int) "len" 64 (Skbuff.len kst skb);
  Alcotest.(check bool) "data buffer allocated" true (Skbuff.data kst skb <> 0);
  Skbuff.free kst skb;
  Alcotest.(check int) "struct and payload freed" live0 (Slab.live_objects kst.Kstate.slab)

(* ---- sockets error paths ---- *)

let test_socket_errors () =
  let kst = boot () in
  Sockets.define_layout kst.Kstate.types;
  let sock = Sockets.create kst in
  Alcotest.(check int) "unknown family" (-97) (Sockets.sys_socket sock ~family:99 ~typ:1);
  (match Sockets.sys_sendmsg sock ~fd:42 ~buf:0 ~len:0 ~flags:0 with
  | exception Kstate.Oops _ -> ()
  | _ -> Alcotest.fail "bad fd must oops");
  (* duplicate family registration *)
  let npf = Slab.kmalloc kst.Kstate.slab (Ktypes.sizeof kst.Kstate.types "net_proto_family") in
  Kmem.write_u32 kst.Kstate.mem (npf + Ktypes.offset kst.Kstate.types "net_proto_family" "family") 21;
  Alcotest.(check int64) "first registration" 0L (Sockets.sock_register sock npf);
  Alcotest.(check int64) "duplicate refused" (-17L) (Sockets.sock_register sock npf)

let () =
  Klog.quiet ();
  Alcotest.run "kernel"
    [
      ( "tasks",
        [
          Alcotest.test_case "lifecycle" `Quick test_task_lifecycle;
          Alcotest.test_case "uid lives in memory" `Quick test_uid_is_memory;
          Alcotest.test_case "detach_pid hides" `Quick test_detach_pid_hides;
        ] );
      ( "uaccess",
        [
          Alcotest.test_case "put_user address limit" `Quick test_put_user_checks_limit;
          Alcotest.test_case "do_exit: CVE-2010-4258" `Quick test_do_exit_vulnerable_vs_fixed;
          Alcotest.test_case "oops path reaps task" `Quick test_with_syscall_oops_runs_do_exit;
        ] );
      ("locks", [ Alcotest.test_case "spinlock transitions" `Quick test_spinlock_state_machine ]);
      ( "pci",
        [
          Alcotest.test_case "driver matching" `Quick test_pci_matching;
          Alcotest.test_case "io ports" `Quick test_pci_ioports_distinct;
        ] );
      ("irq", [ Alcotest.test_case "dispatch" `Quick test_irq_dispatch ]);
      ("shm", [ Alcotest.test_case "segments" `Quick test_shm_segments ]);
      ( "net",
        [
          Alcotest.test_case "netdev stats + qdisc" `Quick test_netdev_stats_and_qdisc;
          Alcotest.test_case "skbuff lifecycle" `Quick test_skbuff_lifecycle;
          Alcotest.test_case "socket errors" `Quick test_socket_errors;
        ] );
    ]
