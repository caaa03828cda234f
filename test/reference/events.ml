(* Prints every event two short traced runs retain, one line each with
   [Trace.pp_event], so the event text is pinned byte for byte.  Exits 1
   naming any event kind, capability operation or capability type the
   runs do not reach, so the pin cannot silently stop covering one.

   Run 1, on a quarantine-enabled system with e1000 serving traffic:
   load the lifecycle campaign's [lcmod] (CALL and WRITE grants), send
   one packet through e1000 (kernel indirect calls, wrapper spans and
   WRITE transfers), serve one request, drop the next request's wrapper
   grant by fault injection (a violation and a quarantine), then attack
   until the module is escalated.

   Run 2: one CAN send (M2K grants, transfers back to the kernel and
   slab frees), then an entry through a slot that copies a REF before
   the call and transfers it back after. *)

open Kernel_sim
open Kmodules

let traced (sys : Ksys.t) f =
  let buf = Trace.make () in
  Lxfi.Runtime.attach_trace sys.Ksys.rt buf;
  Fun.protect ~finally:Trace.detach f;
  Trace.events buf

let run1 () =
  let sys = Ksys.boot Lxfi.Config.lxfi_quarantine in
  let rt = sys.Ksys.rt and kst = sys.Ksys.kst in
  Workloads.Lifecycle.define_slots sys;
  let xmit = List.assoc "netperf" Workloads.Faultsim.workloads sys in
  traced sys (fun () ->
      let mi = fst (Ksys.load sys (Workloads.Lifecycle.make_prog ~version:1 ~buggy:true)) in
      ignore (Lxfi.Loader.init_call rt mi "module_init" []);
      ignore (xmit ());
      let serve n =
        let buf = Slab.kmalloc kst.Kstate.slab 64 in
        ignore (Lxfi.Quarantine.dispatch rt mi "serve" [ Int64.of_int buf; Int64.of_int n ])
      in
      serve 1;
      let fi = Finject.create ~seed:1 in
      Finject.arm fi Finject.Drop_grant (Finject.Nth 1);
      Kstate.arm_finject kst fi;
      serve 2;
      Kstate.disarm_finject kst;
      for n = 8 to 11 do
        serve n
      done)

let ref_slot =
  Ksys.declare "events.probe" [ "dev" ]
    "pre(copy(ref(struct net_device), dev)) post(transfer(ref(struct net_device), dev))"

let ref_prog =
  Mir.Builder.(
    prog "evref" ~imports:[] ~globals:[]
      ~funcs:[ func "probe" [ "dev" ] [ ret0 ] ~export:"events.probe" ])

let run2 () =
  let sys = Ksys.boot Lxfi.Config.lxfi_quarantine in
  let rt = sys.Ksys.rt in
  Ksys.add_slots sys [ ref_slot ];
  let send = List.assoc "can" Workloads.Faultsim.workloads sys in
  let mi = fst (Ksys.load sys ref_prog) in
  let dev = Slab.kmalloc sys.Ksys.kst.Kstate.slab (Ksys.sizeof sys "net_device") in
  traced sys (fun () ->
      ignore (send ());
      ignore (Lxfi.Quarantine.dispatch rt mi "probe" [ Int64.of_int dev ]))

let () =
  Klog.quiet ();
  let runs = [ ("lcmod and e1000", run1 ()); ("can and a REF slot", run2 ()) ] in
  List.iter
    (fun (name, evs) ->
      Fmt.pr "== %s: %d events ==@." name (Array.length evs);
      Array.iter (Fmt.pr "%a@." Trace.pp_event) evs)
    runs;
  let kinds =
    List.concat_map (fun (_, evs) -> List.map (fun e -> e.Trace.ev_kind) (Array.to_list evs)) runs
  in
  let wants =
    [
      ("Guard", function Trace.Guard _ -> true | _ -> false);
      ("Cap Grant", function Trace.Cap (Trace.Grant, _, _) -> true | _ -> false);
      ("Cap Revoke", function Trace.Cap (Trace.Revoke, _, _) -> true | _ -> false);
      ("Cap Dropped", function Trace.Cap (Trace.Dropped, _, _) -> true | _ -> false);
      ("WRITE payload", function Trace.Cap (_, Trace.Cwrite _, _) -> true | _ -> false);
      ("REF payload", function Trace.Cap (_, Trace.Cref _, _) -> true | _ -> false);
      ("CALL payload", function Trace.Cap (_, Trace.Ccall _, _) -> true | _ -> false);
      ("Switch", function Trace.Switch _ -> true | _ -> false);
      ("Span_begin", function Trace.Span_begin _ -> true | _ -> false);
      ("Span_end", function Trace.Span_end _ -> true | _ -> false);
      ("Violation", function Trace.Violation _ -> true | _ -> false);
      ("Quarantine", function Trace.Quarantine _ -> true | _ -> false);
      ("Escalation", function Trace.Escalation _ -> true | _ -> false);
      ("Slab_alloc", function Trace.Slab_alloc _ -> true | _ -> false);
      ("Slab_free", function Trace.Slab_free _ -> true | _ -> false);
      ("Fault_injected", function Trace.Fault_injected _ -> true | _ -> false);
      ("Mod_call", function Trace.Mod_call _ -> true | _ -> false);
    ]
  in
  match List.filter (fun (_, p) -> not (List.exists p kinds)) wants with
  | [] -> ()
  | missing ->
      Fmt.epr "events: not covered: %s@." (String.concat ", " (List.map fst missing));
      exit 1
