(* Protocol-module behaviour under enforcement: the global socket list
   invariant under random create/close sequences (the §3.1
   global-principal workload), sendpage address-limit hygiene, and
   cross-module capability separation between protocol instances. *)

open Kernel_sim
open Kmodules

let boot config spec =
  let sys = Ksys.boot config in
  let h = Mod_common.install sys spec in
  (sys, h)

let walk_list sys head =
  let rec go addr acc =
    if addr = 0 then List.rev acc
    else go (Kmem.read_ptr sys.Ksys.kst.Kstate.mem addr) (addr :: acc)
  in
  go (Kmem.read_ptr sys.Ksys.kst.Kstate.mem head) []

(* qcheck: any create/close interleaving keeps the module's global list
   exactly equal to the set of live sockets' sks. *)
let prop_socket_list_invariant =
  QCheck.Test.make ~count:60 ~name:"econet global list = live sockets"
    (QCheck.make
       ~print:(fun l -> String.concat "" (List.map (fun b -> if b then "C" else "X") l))
       QCheck.Gen.(list_size (int_bound 40) bool))
    (fun ops ->
      let sys, h = boot Lxfi.Config.lxfi Econet.spec in
      let head = Mod_common.gaddr h.Mod_common.mi "econet_list_head" in
      let live = ref [] in
      List.iter
        (fun create ->
          if create then begin
            let fd = Sockets.sys_socket sys.Ksys.sock ~family:Sockets.af_econet ~typ:2 in
            if fd >= 3 then live := fd :: !live
          end
          else
            match !live with
            | [] -> ()
            | fd :: rest ->
                ignore (Sockets.sys_close sys.Ksys.sock ~fd);
                live := rest)
        ops;
      let expected_sks =
        List.map
          (fun fd ->
            let sock = Sockets.sock_of_fd sys.Ksys.sock fd in
            Kmem.read_ptr sys.Ksys.kst.Kstate.mem
              (sock + Ktypes.offset sys.Ksys.kst.Kstate.types "socket" "sk"))
          !live
        |> List.sort compare
      in
      let in_list = walk_list sys head |> List.sort compare in
      expected_sks = in_list)

let test_sendpage_restores_limit_on_success () =
  let sys, _ = boot Lxfi.Config.lxfi Econet.spec in
  let kst = sys.Ksys.kst in
  let fd = Sockets.sys_socket sys.Ksys.sock ~family:Sockets.af_econet ~typ:2 in
  let u = Kstate.user_alloc kst 16 in
  ignore (Sockets.sys_sendpage sys.Ksys.sock ~fd ~buf:u ~len:8 ~flags:0);
  Alcotest.(check int) "address limit back to USER_DS" Task.user_ds
    (Task.addr_limit kst.Kstate.mem kst.Kstate.current)

let test_sendpage_leaks_limit_on_oops () =
  (* the CVE-2010-4258 precondition: an oops inside sendpage leaves
     KERNEL_DS behind *)
  let sys, _ = boot Lxfi.Config.lxfi Econet.spec in
  let kst = sys.Ksys.kst in
  let fd = Sockets.sys_socket sys.Ksys.sock ~family:Sockets.af_econet ~typ:2 in
  (match
     Sockets.sys_sendpage sys.Ksys.sock ~fd ~buf:0 ~len:0 ~flags:Econet.crafted_flags
   with
  | exception Kmem.Fault _ -> ()
  | _ -> Alcotest.fail "expected the NULL dereference");
  Alcotest.(check int) "stale KERNEL_DS" Task.kernel_ds
    (Task.addr_limit kst.Kstate.mem kst.Kstate.current);
  Kstate.set_fs kst Task.user_ds

let test_socket_principals_isolated () =
  (* two RDS sockets: each instance owns its own staging buffer and not
     the other's *)
  let sys, h = boot Lxfi.Config.lxfi Rds.spec in
  let kst = sys.Ksys.kst in
  let mk () =
    let fd = Sockets.sys_socket sys.Ksys.sock ~family:Sockets.af_rds ~typ:2 in
    let u = Kstate.user_alloc kst 16 in
    ignore (Sockets.sys_sendmsg sys.Ksys.sock ~fd ~buf:u ~len:8 ~flags:0);
    let sock = Sockets.sock_of_fd sys.Ksys.sock fd in
    let sk =
      Kmem.read_ptr kst.Kstate.mem
        (sock + Ktypes.offset kst.Kstate.types "socket" "sk")
    in
    let buf = Kmem.read_ptr kst.Kstate.mem (sk + 24 (* Proto_common.sk_buf *)) in
    (sock, buf)
  in
  let sock1, buf1 = mk () in
  let sock2, buf2 = mk () in
  let mi = h.Mod_common.mi in
  let p1 = Kernel_sim.Inttbl.find mi.Lxfi.Runtime.mi_aliases sock1 in
  let p2 = Kernel_sim.Inttbl.find mi.Lxfi.Runtime.mi_aliases sock2 in
  let owns p buf =
    Lxfi.Runtime.principal_has sys.Ksys.rt p (Lxfi.Capability.Cwrite { base = buf; size = 8 })
  in
  Alcotest.(check bool) "1 owns its buffer" true (owns p1 buf1);
  Alcotest.(check bool) "2 owns its buffer" true (owns p2 buf2);
  Alcotest.(check bool) "1 cannot write 2's buffer" false (owns p1 buf2);
  Alcotest.(check bool) "2 cannot write 1's buffer" false (owns p2 buf1)

let test_release_frees_sk () =
  let sys, _ = boot Lxfi.Config.lxfi Can.spec in
  let live0 = Slab.live_objects sys.Ksys.kst.Kstate.slab in
  let fd = Sockets.sys_socket sys.Ksys.sock ~family:Sockets.af_can ~typ:3 in
  Alcotest.(check bool) "allocation happened" true
    (Slab.live_objects sys.Ksys.kst.Kstate.slab > live0);
  ignore (Sockets.sys_close sys.Ksys.sock ~fd);
  (* the socket struct itself is kernel-owned and stays; the sk must be
     gone.  Allow for the socket struct allocation. *)
  Alcotest.(check int) "sk freed on release" (live0 + 1)
    (Slab.live_objects sys.Ksys.kst.Kstate.slab)

let () =
  Klog.quiet ();
  Alcotest.run "proto"
    [
      ( "lists",
        [
          QCheck_alcotest.to_alcotest prop_socket_list_invariant;
          Alcotest.test_case "release frees sk" `Quick test_release_frees_sk;
        ] );
      ( "sendpage",
        [
          Alcotest.test_case "limit restored on success" `Quick
            test_sendpage_restores_limit_on_success;
          Alcotest.test_case "limit leaked on oops (the bug)" `Quick
            test_sendpage_leaks_limit_on_oops;
        ] );
      ( "principals",
        [
          Alcotest.test_case "socket instances isolated" `Quick
            test_socket_principals_isolated;
        ] );
    ]
