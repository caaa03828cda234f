(** Quarantine → repair → replay.

    Escalation retires a repeat-offender module (see {!Quarantine}),
    but a production kernel wants the service back.  This subsystem
    closes the loop:

    + {e capture} — {!arm} installs a pre-retirement escalation hook
      that records an {!incident}: the module's full security snapshot
      (taken while its capability tables are still intact), the traced
      window of events around the fault (from the attached {!Trace}
      ring buffer), the innermost kernel→module entry that was running,
      and the violation class that tripped the escalation;
    + {e repair} — somebody produces a fixed version of the module (in
      the campaigns, a variant with the bug patched);
    + {e replay} — {!replay} loads a candidate image under the
      retired module's name, restores the pre-fault snapshot into it,
      and re-drives the recorded faulting entry.  Replaying the
      {e unrepaired} program must reproduce the original violation
      class; replaying the {e repaired} one must complete cleanly —
      the recovery oracle the lifecycle campaign asserts.

    Replay is a quarantine-mode feature: it drives the entry through
    {!Quarantine.dispatch} and reads the containment result, so it
    requires a config with [quarantine = true]. *)

type incident = {
  inc_module : string;
  inc_reason : string;  (** escalation reason string *)
  inc_kind : Violation.kind option;
      (** class of the violation that tripped the escalation *)
  inc_snapshot : Snapshot.t;
      (** security state at escalation, pre-retirement *)
  inc_window : Trace.event array;
      (** traced events from the start of the faulting entry to the
          escalation; empty when no trace buffer was attached *)
  inc_entry : (string * int64 list) option;
      (** innermost kernel→module entry (function, args) *)
}

type t = { mutable incidents : incident list  (** newest first *) }

let arm (rt : Runtime.t) : t =
  let t = { incidents = [] } in
  let hook (mi : Runtime.module_info) ~reason =
    let snap = Snapshot.capture rt mi in
    (* The faulting window: every retained event from the last
       kernel→module entry into [mi] on — the whole retained buffer
       when no entry span of the module is retained, nothing when no
       buffer is attached. *)
    let window =
      match Trace.attached () with
      | None -> [||]
      | Some buf ->
          let prefix = mi.Runtime.mi_name ^ ":" in
          Trace.since_last buf (fun (e : Trace.event) ->
              match e.Trace.ev_kind with
              | Trace.Span_begin (Trace.K2m, w) -> String.starts_with ~prefix w
              | _ -> false)
    in
    t.incidents <-
      {
        inc_module = mi.Runtime.mi_name;
        inc_reason = reason;
        inc_kind =
          (* Root cause: the oldest violation class of the escalation
             episode — the last one before retirement is usually just a
             [Principal_denied] bounce off the quarantined principal. *)
          (match List.rev mi.Runtime.mi_recent_kinds with
          | k :: _ -> Some k
          | [] -> Option.map (fun v -> v.Violation.v_kind) rt.Runtime.last_violation);
        inc_snapshot = snap;
        inc_window = window;
        inc_entry = mi.Runtime.mi_last_entry;
      }
      :: t.incidents
  in
  rt.Runtime.on_escalate <- hook :: rt.Runtime.on_escalate;
  t

let incidents t = t.incidents
let last t = match t.incidents with [] -> None | i :: _ -> Some i

type verdict = {
  vd_ret : int64 option;  (** return value when the entry completed *)
  vd_violation : Violation.kind option;
      (** violation class the replay provoked, when contained *)
  vd_contained : bool;  (** the entry was contained to [-EFAULT] *)
}

(** Does the replay verdict reproduce the incident's violation class?
    Matching on the class (not the detail string) tolerates address
    drift between the original and the replayed instance. *)
let reproduces (inc : incident) (vd : verdict) =
  match (inc.inc_kind, vd.vd_violation) with
  | Some k, Some k' -> k = k'
  | None, Some _ -> vd.vd_contained  (* original class unknown: any containment counts *)
  | _, None -> false

let replay (rt : Runtime.t) (inc : incident) ~(image : Loader.image) :
    Runtime.module_info * verdict =
  let name = image.Loader.im_prog.Mir.Ast.pname in
  if name <> inc.inc_module then
    invalid_arg
      (Printf.sprintf "Repair.replay: program %s does not repair module %s" name
         inc.inc_module);
  let mi = Loader.load_image rt image in
  if Mir.Ast.find_func mi.Runtime.mi_prog "module_init" <> None then
    ignore (Loader.init_call rt mi "module_init" []);
  (* Restore the pre-fault state so the instance resumes where the
     faulted one stopped.  Additive over the fresh load grants;
     capabilities held by already-quarantined principals stay revoked
     (restore_filtered's standing rule), and CALL toward retired text
     is refused — the old version's functions no longer exist. *)
  let filter =
    {
      Snapshot.keep_write = (fun ~base:_ ~size:_ -> true);
      keep_call = (fun ~target -> not (Hashtbl.mem rt.Runtime.retired target));
      keep_ref = (fun ~rtype:_ ~addr:_ -> true);
      keep_instances = true;
    }
  in
  ignore (Snapshot.restore_filtered rt mi inc.inc_snapshot filter);
  let verdict =
    match inc.inc_entry with
    | None -> { vd_ret = None; vd_violation = None; vd_contained = false }
    | Some (fname, args) ->
        rt.Runtime.last_violation <- None;
        let r = Quarantine.dispatch rt mi fname args in
        let contained = Int64.equal r Quarantine.efault in
        {
          vd_ret = (if contained then None else Some r);
          vd_violation =
            (if contained then
               Option.map (fun v -> v.Violation.v_kind) rt.Runtime.last_violation
             else None);
          vd_contained = contained;
        }
  in
  (mi, verdict)
