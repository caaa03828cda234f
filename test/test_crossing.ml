(* The exit paths of the two boundary crossings.  Each case drives one
   kernel→module entry (with any module→kernel crossings nested in it)
   to a normal or an exceptional exit, then pins what the wrapper frames
   left behind: the current principal, the shadow-stack depth, the
   entry/exit guard deltas, the traced span sequence with its wrapper
   names, and the flow-automaton position and nesting depth of the
   callee and of the module's global principal. *)

open Kernel_sim
open Kmodules
open Mir.Builder

let entry_slot = "pin.entry"

(* [entry n]: 1 calls an export that oopses, 2 stores to kernel memory,
   3 spins until the watchdog expires, 4 calls [pin_a] then [pin_b], 5
   asks the kernel to re-enter the module, anything else stores [n] and
   returns it. *)
let pin_prog ~reordered =
  prog "pin"
    ~imports:[ "pin_boom"; "pin_a"; "pin_b"; "pin_reenter" ]
    ~globals:[ global "g" 32 ]
    ~funcs:
      [
        func "entry" [ "n" ]
          [
            when_ (v "n" ==: ii 1) [ ret (call_ext "pin_boom" [ v "n" ]) ];
            when_ (v "n" ==: ii 2) [ store64 (i 0x2_0BAD_0000L) (ii 1); ret0 ];
            when_ (v "n" ==: ii 3) [ while_ (ii 1) []; ret0 ];
            when_ (v "n" ==: ii 4)
              (if reordered then
                 [ expr (call_ext "pin_a" [ v "n" ]); expr (call_ext "pin_b" [ v "n" ]); ret0 ]
               else [ expr (call_ext "pin_a" [ v "n" ]); ret0 ]);
            when_ (v "n" ==: ii 5) [ ret (call_ext "pin_reenter" [ v "n" ]) ];
            store64 (glob "g") (v "n");
            ret (load64 (glob "g"));
          ]
          ~export:entry_slot;
      ]

type world = { rt : Lxfi.Runtime.t; mi : Lxfi.Runtime.module_info }

(* A fresh system with the [pin_*] exports and the module loaded.
   [pin_reenter] runs [entry 2] again under the same (shared) principal
   and turns its violation into -EFAULT, as a kernel that survives a
   faulting callback would. *)
let world ?(flow_policy = false) config =
  let sys = Ksys.boot config in
  let rt = sys.Ksys.rt in
  ignore
    (Annot.Registry.define_exn rt.Lxfi.Runtime.registry ~name:entry_slot ~params:[ "n" ]
       ~annot_src:"");
  let export name impl =
    ignore (Lxfi.Runtime.register_kexport_exn rt ~name ~params:[ "x" ] ~annot_src:"" impl)
  in
  let mi_ref = ref None in
  export "pin_boom" (fun _ -> raise (Kstate.Oops "pin_boom"));
  export "pin_a" (fun _ -> 0L);
  export "pin_b" (fun _ -> 0L);
  export "pin_reenter" (fun _ ->
      match Lxfi.Runtime.invoke_module_function rt (Option.get !mi_ref) "entry" [ 2L ] with
      | r -> r
      | exception Lxfi.Violation.Violation _ -> Lxfi.Quarantine.efault);
  if flow_policy then
    Lxfi.Runtime.register_flow_graph rt ~module_:"pin"
      (Check.Apiflow.extract (Lxfi.Loader.check_env rt) (pin_prog ~reordered:false));
  let mi, _ = Ksys.load sys (pin_prog ~reordered:true) in
  mi_ref := Some mi;
  { rt; mi }

type seen = {
  outcome : string;
  current : string;
  depth : int;
  d_entry : int;
  d_exit : int;
  spans : string list;
  callee_flow : int * int;  (** (flow_pos, flow_depth) of the shared principal *)
  global_flow : int * int;
}

let outcome_of f =
  match f () with
  | r -> Printf.sprintf "returned %Ld" r
  | exception Lxfi.Violation.Violation v ->
      "violation " ^ Lxfi.Violation.kind_name v.Lxfi.Violation.v_kind
  | exception Kstate.Oops m -> "oops " ^ m

(* Run [f] traced against [w] and read what the crossings left. *)
let observe w f =
  let rt = w.rt in
  let s0 = Lxfi.Stats.snapshot rt.Lxfi.Runtime.stats in
  let buf = Trace.make () in
  Lxfi.Runtime.attach_trace rt buf;
  let outcome = outcome_of f in
  Trace.detach ();
  let d = Lxfi.Stats.since rt.Lxfi.Runtime.stats s0 in
  let spans =
    List.rev
      (Trace.fold buf [] (fun acc ~kernel:_ ~module_:_ ~guard:_ ~principal:_ k ->
           let dir = function Trace.K2m -> "K2M" | Trace.M2k -> "M2K" in
           match k with
           | Trace.Span_begin (s, name) -> Printf.sprintf "%s+ %s" (dir s) name :: acc
           | Trace.Span_end (s, name) -> Printf.sprintf "%s- %s" (dir s) name :: acc
           | _ -> acc))
  in
  let flow (p : Lxfi.Principal.t) = (p.Lxfi.Principal.flow_pos, p.Lxfi.Principal.flow_depth) in
  {
    outcome;
    current =
      (match rt.Lxfi.Runtime.current with
      | None -> "(kernel)"
      | Some p -> Lxfi.Principal.describe p);
    depth = Lxfi.Shadow_stack.depth rt.Lxfi.Runtime.sstack;
    d_entry = d.Lxfi.Stats.fn_entry;
    d_exit = d.Lxfi.Stats.fn_exit;
    spans;
    callee_flow = flow w.mi.Lxfi.Runtime.mi_shared;
    global_flow = flow w.mi.Lxfi.Runtime.mi_global;
  }

let check_seen expect got =
  let open Alcotest in
  check string "outcome" expect.outcome got.outcome;
  check string "current principal" expect.current got.current;
  check int "shadow-stack depth" expect.depth got.depth;
  check int "fn_entry delta" expect.d_entry got.d_entry;
  check int "fn_exit delta" expect.d_exit got.d_exit;
  check (list string) "spans" expect.spans got.spans;
  check (pair int int) "callee flow (pos, depth)" expect.callee_flow got.callee_flow;
  check (pair int int) "global flow (pos, depth)" expect.global_flow got.global_flow

let invoke w n () = Lxfi.Runtime.invoke_module_function w.rt w.mi "entry" [ Int64.of_int n ]
let k2m = [ "K2M+ pin:entry"; "K2M- pin:entry" ]
let at_start = (Check.Apiflow.start, 0)

(* The baseline every exceptional case departs from: every frame counts
   its exit guard, and the principal rests at its last call's node. *)
let test_clean_entry () =
  let w = world Lxfi.Config.lxfi in
  let seen = observe w (invoke w 4) in
  let pin_b =
    match w.mi.Lxfi.Runtime.mi_flow with
    | Some g -> Check.Apiflow.id g "pin_b"
    | None -> Alcotest.fail "no flow graph under lxfi"
  in
  Alcotest.(check bool) "pin_b is a node" true (pin_b >= 0);
  check_seen
    {
      outcome = "returned 0";
      current = "(kernel)";
      depth = 0;
      d_entry = 4;
      d_exit = 4;
      spans =
        [
          "K2M+ pin:entry"; "M2K+ pin_a"; "M2K- pin_a";
          "M2K+ pin_b"; "M2K- pin_b"; "K2M- pin:entry";
        ];
      callee_flow = (pin_b, 0);
      global_flow = at_start;
    }
    seen

let test_kexport_oops_in_nested_m2k () =
  let w = world Lxfi.Config.lxfi in
  check_seen
    {
      outcome = "oops pin_boom";
      current = "(kernel)";
      depth = 0;
      d_entry = 3;
      d_exit = 1;
      spans = [ "K2M+ pin:entry"; "M2K+ pin_boom"; "M2K- pin_boom"; "K2M- pin:entry" ];
      callee_flow = at_start;
      global_flow = at_start;
    }
    (observe w (invoke w 1))

let write_denied =
  {
    outcome = "violation write-denied";
    current = "(kernel)";
    depth = 0;
    d_entry = 2;
    d_exit = 1;
    spans = k2m;
    callee_flow = at_start;
    global_flow = at_start;
  }

let test_write_violation () =
  let w = world Lxfi.Config.lxfi in
  check_seen write_denied (observe w (invoke w 2))

let test_write_violation_contained () =
  let w = world Lxfi.Config.lxfi_quarantine in
  check_seen
    { write_denied with outcome = "returned -14" }
    (observe w (fun () -> Lxfi.Quarantine.dispatch w.rt w.mi "entry" [ 2L ]));
  Alcotest.(check bool) "offender quarantined" true
    (w.mi.Lxfi.Runtime.mi_shared.Lxfi.Principal.quarantined <> None)

let test_quarantined_principal () =
  let w = world Lxfi.Config.lxfi in
  Lxfi.Quarantine.quarantine_principal w.rt w.mi.Lxfi.Runtime.mi_shared ~reason:"pinned";
  check_seen
    { write_denied with outcome = "violation principal-denied"; d_entry = 1; d_exit = 0 }
    (observe w (invoke w 9))

let test_flow_violation () =
  let w = world ~flow_policy:true Lxfi.Config.lxfi in
  let seen = observe w (invoke w 4) in
  check_seen
    {
      outcome = "violation flow-violation";
      current = "(kernel)";
      depth = 0;
      d_entry = 3;
      d_exit = 2;
      spans = [ "K2M+ pin:entry"; "M2K+ pin_a"; "M2K- pin_a"; "K2M- pin:entry" ];
      callee_flow = at_start;
      global_flow = at_start;
    }
    seen

let test_watchdog_expiry () =
  let w = world { Lxfi.Config.lxfi with Lxfi.Config.watchdog_fuel = Some 5_000 } in
  check_seen
    { write_denied with outcome = "violation watchdog-expired" }
    (observe w (invoke w 3))

(* The inner entry faults while the outer activation of the same
   principal is in flight: the inner frame restores the outer nesting
   depth but resets the position, and the outer exit then leaves the
   principal at rest. *)
let test_faulting_reentry () =
  let w = world Lxfi.Config.lxfi in
  check_seen
    {
      outcome = "returned -14";
      current = "(kernel)";
      depth = 0;
      d_entry = 5;
      d_exit = 4;
      spans =
        [
          "K2M+ pin:entry";
          "M2K+ pin_reenter";
          "K2M+ pin:entry";
          "K2M- pin:entry";
          "M2K- pin_reenter";
          "K2M- pin:entry";
        ];
      callee_flow = at_start;
      global_flow = at_start;
    }
    (observe w (invoke w 5))

let () =
  Klog.quiet ();
  Alcotest.run "crossing"
    [
      ( "exit paths",
        [
          Alcotest.test_case "clean entry" `Quick test_clean_entry;
          Alcotest.test_case "kexport oops in a nested M2K" `Quick
            test_kexport_oops_in_nested_m2k;
          Alcotest.test_case "write violation" `Quick test_write_violation;
          Alcotest.test_case "write violation contained by dispatch" `Quick
            test_write_violation_contained;
          Alcotest.test_case "entry via quarantined principal" `Quick
            test_quarantined_principal;
          Alcotest.test_case "flow violation" `Quick test_flow_violation;
          Alcotest.test_case "watchdog expiry" `Quick test_watchdog_expiry;
          Alcotest.test_case "faulting re-entry of an in-flight principal" `Quick
            test_faulting_reentry;
        ] );
    ]
