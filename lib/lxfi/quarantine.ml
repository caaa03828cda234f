(** Fault containment: the quarantine policy.

    The paper's runtime answers any LXFI violation with a kernel panic
    (§6).  A simulation serving many module instances instead
    {e contains} the fault, leaning on the multi-principal design: the
    offending principal loses all its capabilities and can no longer be
    selected for entry, the shadow stack is unwound to the kernel frame,
    and the kernel caller gets an [-EFAULT]-style error — so sibling
    instances of the same module and every other module keep working.
    A module that keeps violating inside a cycle window is escalated:
    all its principals are quarantined and its dispatch-table entries
    retired, the containment analogue of [Loader.unload].

    This preserves the paper's security argument (see DESIGN.md): no
    capability is ever added by the quarantine path, only removed, and
    removal is exactly the transfer-revocation primitive of §3.3. *)

open Kernel_sim

(** -EFAULT, the error a contained entry returns to the kernel caller. *)
let efault = -14L

let enabled (rt : Runtime.t) =
  rt.Runtime.config.Config.quarantine && rt.Runtime.config.Config.mode = Config.Lxfi

(** [quarantine_principal rt p ~reason] revokes everything [p] holds and
    bars it from future entry selection.  Idempotent. *)
let quarantine_principal (rt : Runtime.t) (p : Principal.t) ~reason =
  match p.Principal.quarantined with
  | Some _ -> ()
  | None ->
      p.Principal.quarantined <- Some reason;
      Captable.clear p.Principal.caps;
      rt.Runtime.stats.Stats.quarantines <- rt.Runtime.stats.Stats.quarantines + 1;
      let d =
        Diag.make
          ~principal:(Principal.describe p)
          ~location:p.Principal.owner ~source:"runtime.quarantine" Diag.Warning
          ("quarantined: " ^ reason)
      in
      rt.Runtime.quarantine_log <- d :: rt.Runtime.quarantine_log;
      if !Trace.on then Trace.emit (Trace.Quarantine (Principal.describe p, reason));
      Klog.diag d

(** [escalate rt mi ~reason] — repeat offender: quarantine every
    principal of the module and retire its dispatch-table entries, so
    even its shared state stops being reachable.  Idempotent. *)
let escalate (rt : Runtime.t) (mi : Runtime.module_info) ~reason =
  match mi.Runtime.mi_dead with
  | Some _ -> ()
  | None ->
      (* Pre-retirement observers run first, while the module's
         capability tables are still intact — the repair subsystem
         captures its snapshot and the traced faulting window here. *)
      List.iter (fun hook -> hook mi ~reason) rt.Runtime.on_escalate;
      mi.Runtime.mi_dead <- Some reason;
      List.iter (fun p -> quarantine_principal rt p ~reason) mi.Runtime.mi_principals;
      Runtime.retire_module rt mi;
      rt.Runtime.stats.Stats.escalations <- rt.Runtime.stats.Stats.escalations + 1;
      if !Trace.on then Trace.emit (Trace.Escalation (mi.Runtime.mi_name, reason));
      let d =
        Diag.make ~location:mi.Runtime.mi_name ~source:"runtime.quarantine"
          Diag.Error ("escalation: module retired: " ^ reason)
      in
      rt.Runtime.quarantine_log <- d :: rt.Runtime.quarantine_log;
      Klog.diag d

(** Repeat offenders: [escalate_threshold] contained violations of one
    module within [escalate_window] simulated cycles retire it. *)
let escalate_threshold = 3

let escalate_window = 1_000_000

(** Record a contained violation against [mi] and escalate once
    [escalate_threshold] violations land within [escalate_window]
    simulated cycles. *)
let note_and_maybe_escalate (rt : Runtime.t) (mi : Runtime.module_info) =
  let now = Kcycles.total rt.Runtime.kst.Kstate.cycles in
  mi.Runtime.mi_recent_violations <-
    now :: List.filter (fun t -> now - t <= escalate_window) mi.Runtime.mi_recent_violations;
  if List.length mi.Runtime.mi_recent_violations >= escalate_threshold then
    escalate rt mi
      ~reason:
        (Printf.sprintf "%d violations within %d cycles"
           (List.length mi.Runtime.mi_recent_violations)
           escalate_window)

(** The module to charge a violation to: the named module if loaded,
    else the faulting principal's owner. *)
let module_of_violation (rt : Runtime.t) (v : Violation.info) principal =
  match Runtime.module_named rt v.Violation.v_module with
  | Some mi -> Some mi
  | None -> (
      match principal with
      | Some p -> Runtime.module_of rt p
      | None -> None)

(** [handle rt v] applies the policy to a caught violation: count it,
    quarantine the faulting principal (falling back to the module's
    shared principal, then the innermost callee), and escalate the
    module if it keeps offending. *)
let handle (rt : Runtime.t) (v : Violation.info) =
  rt.Runtime.last_violation <- Some v;
  rt.Runtime.stats.Stats.violations <- rt.Runtime.stats.Stats.violations + 1;
  let principal =
    match v.Violation.v_principal with
    | Some p -> Some p
    | None -> (
        match Runtime.module_named rt v.Violation.v_module with
        | Some mi -> Some mi.Runtime.mi_shared
        | None -> rt.Runtime.last_callee)
  in
  let reason =
    Printf.sprintf "[%s] %s" (Violation.kind_name v.Violation.v_kind)
      v.Violation.v_detail
  in
  (match principal with Some p -> quarantine_principal rt p ~reason | None -> ());
  match module_of_violation rt v principal with
  | Some mi ->
      let rec take n = function
        | x :: tl when n > 0 -> x :: take (n - 1) tl
        | _ -> []
      in
      mi.Runtime.mi_recent_kinds <-
        take escalate_threshold (v.Violation.v_kind :: mi.Runtime.mi_recent_kinds);
      note_and_maybe_escalate rt mi
  | None -> ()

(** Like {!handle} for raw machine faults ([Kmem.Fault] / [Oops]) that
    carry no principal: attribute to the innermost callee of [mi]. *)
let handle_fault (rt : Runtime.t) (mi : Runtime.module_info) ~reason =
  rt.Runtime.stats.Stats.violations <- rt.Runtime.stats.Stats.violations + 1;
  let p =
    match rt.Runtime.last_callee with
    | Some p when p.Principal.owner = mi.Runtime.mi_name -> p
    | _ -> mi.Runtime.mi_shared
  in
  quarantine_principal rt p ~reason;
  note_and_maybe_escalate rt mi

(** [contain rt f handler] — the one containment path.  Runs [f]; when
    it raises, [handler] applies the policy and yields the contained
    result (or re-raises what it does not contain), then the shadow
    stack unwinds to the depth [f] started at and the principal that
    was current then is restored.  The wrappers already popped their
    frames while the exception propagated; the unwind is a backstop
    for frames abandoned between push and the handler. *)
let contain (rt : Runtime.t) f handler =
  let depth = Shadow_stack.depth rt.Runtime.sstack and saved = rt.Runtime.current in
  match f () with
  | r -> r
  | exception e ->
      let r = handler e in
      ignore (Shadow_stack.unwind_to rt.Runtime.sstack ~depth);
      rt.Runtime.current <- saved;
      r

(** [dispatch rt mi fname args] — the kernel→module entry the loader
    registers in place of a bare [Runtime.invoke_module_function]: under
    a quarantine config any violation, memory fault or oops raised by
    the entry is contained (shadow stack unwound to the kernel frame,
    kernel principal restored, offender quarantined) and surfaces to the
    kernel caller as {!efault}.  Without quarantine it is transparent. *)
let dispatch (rt : Runtime.t) (mi : Runtime.module_info) fname args =
  if not (enabled rt) then Runtime.invoke_module_function rt mi fname args
  else begin
    mi.Runtime.mi_last_entry <- Some (fname, args);
    let saved_callee = rt.Runtime.last_callee in
    let r =
      contain rt
        (fun () -> Runtime.invoke_module_function rt mi fname args)
        (function
          | Violation.Violation v ->
              handle rt v;
              efault
          | Kmem.Fault { addr; write } ->
              handle_fault rt mi
                ~reason:
                  (Printf.sprintf "memory fault: bad %s at 0x%x"
                     (if write then "write" else "read")
                     addr);
              efault
          | Kstate.Oops msg ->
              handle_fault rt mi ~reason:("oops: " ^ msg);
              efault
          | e -> raise e)
    in
    rt.Runtime.last_callee <- saved_callee;
    r
  end

(** [protect rt f] contains violations that surface at kernel top level
    rather than inside a kernel→module entry — e.g. a kernel indirect
    call through a module-corrupted or retired function-pointer slot.
    Returns [Error info] with the runtime restored to the kernel frame
    and the offender quarantined. *)
let protect (rt : Runtime.t) f =
  contain rt
    (fun () -> Ok (f ()))
    (function
      | Violation.Violation v when enabled rt ->
          handle rt v;
          Error v
      | e -> raise e)
