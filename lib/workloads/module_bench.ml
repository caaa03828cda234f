(** Per-module isolation overhead — an extension beyond the paper's
    evaluation, which benchmarks only the e1000 driver (§8.4).  Here
    every family of the corpus gets a steady-state workload and we
    report simulated cycles per operation, stock vs. LXFI:

    - dm-crypt: 4 KB encrypted bios through one mapped device;
    - dm-zero: 4 KB zero-fill reads;
    - snd-intel8x0: playback pointer polls (one period fill each);
    - can: raw frame sendmsg through the socket layer;
    - rds: sendmsg/recvmsg round trips.

    The shape to expect mirrors Figure 12's logic: modules whose
    operations carry lots of module-side work per boundary crossing
    (dm-crypt XORs 4 KB per bio) amortize the wrapper cost; chatty
    small-operation modules (can, rds) pay proportionally more. *)

open Kernel_sim
open Kmodules

type row = {
  mb_module : string;
  mb_op : string;
  mb_stock_cycles : float;  (** per operation *)
  mb_lxfi_cycles : float;
  mb_overhead : float;  (** lxfi/stock − 1 *)
}

let measure_cycles sys f ~ops =
  Hashtbl.iter
    (fun _ (mi : Lxfi.Runtime.module_info) ->
      Option.iter Mir.Interp.refuel mi.Lxfi.Runtime.mi_ctx)
    sys.Ksys.rt.Lxfi.Runtime.modules;
  let c0 = Kcycles.snapshot sys.Ksys.kst.Kstate.cycles in
  f ();
  let d = Kcycles.since sys.Ksys.kst.Kstate.cycles c0 in
  float_of_int (Kcycles.total d) /. float_of_int ops

let dm_crypt_workload config ~ops =
  let sys = Ksys.boot config in
  let _ = Mod_common.install sys Dm_crypt.spec in
  ignore
    (Result.get_ok
       (Blockdev.dm_create sys.Ksys.blk ~target:"crypt" ~name:"c0" ~len:65536 ~arg:0xfeed));
  let bio = Blockdev.alloc_bio sys.Ksys.blk ~sector:0 ~size:4096 ~rw:1 in
  measure_cycles sys ~ops (fun () ->
      for i = 1 to ops do
        Kmem.write_u64 sys.Ksys.kst.Kstate.mem
          (bio + Ktypes.offset sys.Ksys.kst.Kstate.types "bio" "sector")
          (Int64.of_int i);
        ignore (Result.get_ok (Blockdev.submit_bio sys.Ksys.blk ~name:"c0" bio))
      done)

let dm_zero_workload config ~ops =
  let sys = Ksys.boot config in
  let _ = Mod_common.install sys Dm_zero.spec in
  ignore
    (Result.get_ok
       (Blockdev.dm_create sys.Ksys.blk ~target:"zero" ~name:"z0" ~len:65536 ~arg:0));
  let bio = Blockdev.alloc_bio sys.Ksys.blk ~sector:0 ~size:4096 ~rw:0 in
  measure_cycles sys ~ops (fun () ->
      for _ = 1 to ops do
        ignore (Result.get_ok (Blockdev.submit_bio sys.Ksys.blk ~name:"z0" bio))
      done)

let sound_workload config ~ops =
  let sys = Ksys.boot config in
  ignore
    (Pci.add_device sys.Ksys.pci ~vendor:Snd_intel8x0.vendor ~device:Snd_intel8x0.device
       ~bar_len:64);
  let _ = Mod_common.install sys Snd_intel8x0.spec in
  match sys.Ksys.snd.Sound.cards with
  | [ card ] -> measure_cycles sys ~ops (fun () -> ignore (Sound.playback sys.Ksys.snd card ~polls:ops))
  | _ -> invalid_arg "sound card missing"

let can_workload config ~ops =
  let sys = Ksys.boot config in
  let send = Cell.can sys in
  measure_cycles sys ~ops (fun () ->
      for _ = 1 to ops do
        ignore (send ())
      done)

let rds_workload config ~ops =
  let sys = Ksys.boot config in
  let fd, send = Cell.rds sys in
  let out = Kstate.user_alloc sys.Ksys.kst 64 in
  measure_cycles sys ~ops (fun () ->
      for _ = 1 to ops do
        ignore (send ~len:32);
        ignore (Sockets.sys_recvmsg sys.Ksys.sock ~fd ~buf:out ~len:64 ~flags:0)
      done)

let workloads =
  [
    ("dm_crypt", "4KB encrypted bio", dm_crypt_workload);
    ("dm_zero", "4KB zero-fill read", dm_zero_workload);
    ("snd_intel8x0", "pcm pointer poll", sound_workload);
    ("can", "raw frame sendmsg", can_workload);
    ("rds", "send+recv round trip", rds_workload);
  ]

(** [table ?ops ()] — cycles per operation, stock vs. LXFI, for one
    representative workload per module family. *)
let table ?(ops = 400) () : row list =
  List.map
    (fun (name, op, f) ->
      let stock = f Lxfi.Config.stock ~ops in
      let lxfi = f Lxfi.Config.lxfi ~ops in
      {
        mb_module = name;
        mb_op = op;
        mb_stock_cycles = stock;
        mb_lxfi_cycles = lxfi;
        mb_overhead = (lxfi /. Float.max 1. stock) -. 1.0;
      })
    workloads
