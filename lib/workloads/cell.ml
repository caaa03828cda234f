(** LXFI confines a misbehaving module instance to its own principal
    (§3.1, §5): every crossing restores the shadow stack and the
    kernel's current principal, and revoking one principal's
    capabilities leaves the others' alone.  {!contained} checks exactly
    that after each {!Faultsim} and {!Lifecycle} cell, beside bystander
    traffic that {!Trace_run} and {!Module_bench} drive too. *)

open Kernel_sim
open Kmodules

(* ------------------------------------------------------------------ *)
(* Bystander traffic.                                                  *)

let netperf (sys : Ksys.t) =
  let env = Netperf_sim.attach sys in
  fun () ->
    let skb = Skbuff.alloc sys.Ksys.kst 64 in
    Skbuff.set_dev sys.Ksys.kst skb env.Netperf_sim.dev;
    let r = Netdev.dev_queue_xmit sys.Ksys.net skb in
    Netperf_sim.drain env;
    r

let can (sys : Ksys.t) =
  let _ = Mod_common.install sys Can.spec in
  let fd = Sockets.sys_socket sys.Ksys.sock ~family:Sockets.af_can ~typ:3 in
  ignore (Sockets.sys_bind sys.Ksys.sock ~fd ~addr:0 ~alen:0);
  let u = Kstate.user_alloc sys.Ksys.kst 16 in
  fun () -> Sockets.sys_sendmsg sys.Ksys.sock ~fd ~buf:u ~len:16 ~flags:0

let rds (sys : Ksys.t) =
  let _ = Mod_common.install sys Rds.spec in
  let fd = Sockets.sys_socket sys.Ksys.sock ~family:Sockets.af_rds ~typ:2 in
  let u = Kstate.user_alloc sys.Ksys.kst 64 in
  (fd, fun ~len -> Sockets.sys_sendmsg sys.Ksys.sock ~fd ~buf:u ~len ~flags:0)

let bystanders =
  [
    ("netperf", netperf);
    ("can", can);
    ( "rds",
      fun sys ->
        let _, send = rds sys in
        fun () -> send ~len:32 );
  ]

let names = List.map fst bystanders

let bystander name =
  match List.assoc_opt name bystanders with
  | Some setup -> setup
  | None -> invalid_arg ("unknown bystander workload " ^ name)

(* ------------------------------------------------------------------ *)
(* Containment checks.                                                 *)

type t = { label : string; mutable found : string list (* newest first *) }

let create label = { label; found = [] }

let breach c fmt =
  Printf.ksprintf (fun s -> c.found <- Printf.sprintf "%s: %s" c.label s :: c.found) fmt

let breaches c = List.rev c.found

let contained c (rt : Lxfi.Runtime.t) ~workload ~serve ~baseline =
  let depth = Lxfi.Shadow_stack.depth rt.Lxfi.Runtime.sstack in
  if depth <> 0 then breach c "shadow stack depth %d after campaign" depth;
  Option.iter
    (fun p -> breach c "current principal is %s, not kernel" (Lxfi.Principal.describe p))
    rt.Lxfi.Runtime.current;
  List.iter
    (fun (p : Lxfi.Principal.t) ->
      if p.Lxfi.Principal.quarantined <> None then
        let caps = p.Lxfi.Principal.caps in
        let held = Lxfi.Captable.(write_count caps + call_count caps + ref_count caps) in
        if held <> 0 then
          breach c "quarantined %s still holds %d capabilities" (Lxfi.Principal.describe p)
            held)
    (Lxfi.Runtime.all_principals rt);
  let after = serve () in
  let serving = Int64.equal after baseline in
  if not serving then
    breach c "bystander %s stopped serving (%Ld, was %Ld)" workload after baseline;
  serving

(* ------------------------------------------------------------------ *)
(* Campaigns.                                                          *)

let run ~seed cell xs =
  let rows, breaches =
    List.split (List.mapi (fun i x -> cell ~seed:(seed + (7919 * (i + 1))) x) xs)
  in
  (rows, List.concat breaches)

let verdict ~held ~cells breaches =
  print_endline "";
  (match breaches with
  | [] -> Printf.printf "%d cells, all %s\n" cells held
  | bs ->
      Printf.printf "%d invariant breaches:\n" (List.length bs);
      List.iter (Printf.printf "  %s\n") bs);
  if breaches = [] then 0 else 1
