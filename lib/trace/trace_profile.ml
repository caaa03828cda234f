(** Aggregation over a {!Trace} buffer: per-principal and
    per-kernel-entry-point profiles ("perf top" for principals), a text
    report, and Chrome trace-event JSON export.

    {2 Cycle attribution}

    Events are stamped with the running (kernel, module, guard) cycle
    totals.  The interval between two consecutive events is attributed
    to the principal recorded on the {e earlier} event — the principal
    that was executing when those cycles were charged.  Cycles before
    the first retained event go to the pseudo-principal ["(pre-trace)"]
    (non-zero only after ring wraparound or late attach) and cycles
    after the last event to the principal left running by it, so the
    per-principal totals always sum to exactly the final {!Kcycles}
    reading — the reconciliation property the acceptance test pins. *)

type principal_stat = {
  ps_principal : string;
  mutable ps_events : int;
  mutable ps_kernel : int;  (** cycles by category, interval-attributed *)
  mutable ps_module : int;
  mutable ps_guard : int;
  ps_guards : int array;  (** hit counts, indexed by {!Trace.guard_index} *)
  mutable ps_caps_granted : int;
  mutable ps_caps_revoked : int;
  mutable ps_switches : int;
  mutable ps_violations : int;
}

let ps_total p = p.ps_kernel + p.ps_module + p.ps_guard

type entry_stat = {
  es_wrapper : string;
  mutable es_calls : int;
  mutable es_cycles_incl : int;  (** wrapper entry to exit, children included *)
  mutable es_cycles_self : int;  (** minus nested wrapper spans *)
}

type t = {
  pr_principals : principal_stat list;  (** sorted by total cycles, descending *)
  pr_entries : entry_stat list;  (** kernel entry points, by inclusive cycles *)
  pr_kexports : entry_stat list;  (** module→kernel wrappers, by inclusive cycles *)
  pr_events : int;  (** events aggregated (retained in the ring) *)
  pr_emitted : int;  (** events ever emitted *)
  pr_dropped : int;
  pr_total_cycles : int;  (** final clock; equals the sum over principals *)
}

(* Deterministic string-keyed accumulation: an ordered assoc list keyed
   by first appearance, so no Hashtbl iteration order leaks into the
   report.  Keys are usually the one label string their principal or
   wrapper shares, so a physical-equality check settles most probes
   before a string comparison. *)
type 'a acc = { mutable items : (string * 'a) list (* newest first *) }

let acc_get acc key fresh =
  let rec find = function
    | (k, v) :: rest -> if k == key || String.equal k key then v else find rest
    | [] ->
        let v = fresh key in
        acc.items <- (key, v) :: acc.items;
        v
  in
  find acc.items

let acc_values acc = List.rev_map snd acc.items

let fresh_principal key =
  {
    ps_principal = key;
    ps_events = 0;
    ps_kernel = 0;
    ps_module = 0;
    ps_guard = 0;
    ps_guards = Array.make Trace.guard_count 0;
    ps_caps_granted = 0;
    ps_caps_revoked = 0;
    ps_switches = 0;
    ps_violations = 0;
  }

let fresh_entry key = { es_wrapper = key; es_calls = 0; es_cycles_incl = 0; es_cycles_self = 0 }

(** [aggregate ?final buf] — build the profile.  [final] is the cycle
    clock at aggregation time (e.g. the runtime's live {!Kcycles}
    record); when omitted, the last event's stamp is used and the
    trailing interval is empty. *)
let aggregate ?(final : Trace.cycles option) (buf : Trace.t) : t =
  let principals = { items = [] } in
  let entries = { items = [] } in
  let kexports = { items = [] } in
  let prin key = acc_get principals key fresh_principal in
  (* Interval attribution state: stamp and principal after the last
     processed event.  Cycles before the first retained event belong to
     "(pre-trace)". *)
  let last_k = ref 0 and last_m = ref 0 and last_g = ref 0 in
  let running = ref (if Trace.total buf = 0 then "(kernel)" else "(pre-trace)") in
  let attribute k m g =
    let p = prin !running in
    p.ps_kernel <- p.ps_kernel + (k - !last_k);
    p.ps_module <- p.ps_module + (m - !last_m);
    p.ps_guard <- p.ps_guard + (g - !last_g);
    last_k := k;
    last_m := m;
    last_g := g
  in
  (* Span stack for entry-point attribution; begin stamp is the total
     clock, [sp_child] accumulates nested wrapper spans for self time. *)
  let stack = ref [] in
  let push kind wrapper at = stack := (kind, wrapper, at, ref 0) :: !stack in
  let pop kind wrapper at =
    match !stack with
    | (k, w, t0, child) :: rest when k = kind && w = wrapper ->
        stack := rest;
        let incl = at - t0 in
        let acc = match kind with Trace.K2m -> entries | Trace.M2k -> kexports in
        let es = acc_get acc wrapper fresh_entry in
        es.es_calls <- es.es_calls + 1;
        es.es_cycles_incl <- es.es_cycles_incl + incl;
        es.es_cycles_self <- es.es_cycles_self + (incl - !child);
        (match !stack with (_, _, _, pc) :: _ -> pc := !pc + incl | [] -> ())
    | _ ->
        (* Unmatched end: its begin fell off the ring (wraparound) —
           nothing to attribute it against. *)
        ()
  in
  let events =
    Trace.fold buf 0 (fun n ~kernel ~module_ ~guard ~principal kind ->
        attribute kernel module_ guard;
        let p = prin principal in
        p.ps_events <- p.ps_events + 1;
        let at = kernel + module_ + guard in
        (match kind with
      | Trace.Guard g -> p.ps_guards.(Trace.guard_index g) <- p.ps_guards.(Trace.guard_index g) + 1
      | Trace.Cap (Trace.Grant, _, _) -> p.ps_caps_granted <- p.ps_caps_granted + 1
      | Trace.Cap (Trace.Revoke, _, _) -> p.ps_caps_revoked <- p.ps_caps_revoked + 1
      | Trace.Cap (Trace.Dropped, _, _) -> ()
      | Trace.Switch _ -> p.ps_switches <- p.ps_switches + 1
      | Trace.Span_begin (kind, w) -> push kind w at
      | Trace.Span_end (kind, w) -> pop kind w at
      | Trace.Violation _ -> p.ps_violations <- p.ps_violations + 1
        | Trace.Quarantine _ | Trace.Escalation _ | Trace.Slab_alloc _ | Trace.Slab_free _
        | Trace.Fault_injected _ | Trace.Mod_call _ ->
            ());
        (* After the event, the running principal is whatever it
           reported — a Switch event already carries the new
           principal's name in its payload for the *next* interval. *)
        running := (match kind with Trace.Switch to_ -> to_ | _ -> principal);
        n + 1)
  in
  (* Trailing interval up to the final clock, and spans still open at
     the end of the capture window (e.g. a trace stopped mid-entry). *)
  let fk, fm, fg =
    match final with
    | Some c -> (c.Trace.kernel, c.Trace.module_, c.Trace.guard)
    | None -> (!last_k, !last_m, !last_g)
  in
  attribute fk fm fg;
  let final_total = fk + fm + fg in
  List.iter (fun (kind, w, _, _) -> pop kind w final_total) !stack;
  let by_cycles l =
    List.sort
      (fun a b ->
        match compare (ps_total b) (ps_total a) with
        | 0 -> compare a.ps_principal b.ps_principal
        | c -> c)
      l
  in
  let by_incl l =
    List.sort
      (fun a b ->
        match compare b.es_cycles_incl a.es_cycles_incl with
        | 0 -> compare a.es_wrapper b.es_wrapper
        | c -> c)
      l
  in
  {
    pr_principals = by_cycles (acc_values principals);
    pr_entries = by_incl (acc_values entries);
    pr_kexports = by_incl (acc_values kexports);
    pr_events = events;
    pr_emitted = Trace.total buf;
    pr_dropped = Trace.dropped buf;
    pr_total_cycles = final_total;
  }

let attributed_cycles t = List.fold_left (fun acc p -> acc + ps_total p) 0 t.pr_principals

(** {1 Text report} *)

let report ppf (t : t) =
  Fmt.pf ppf "=== trace profile: %d events aggregated (%d emitted, %d dropped) ===@."
    t.pr_events t.pr_emitted t.pr_dropped;
  Fmt.pf ppf "@.-- per-principal (cycles by category; guards by type) --@.";
  Fmt.pf ppf "%-26s %12s %10s %10s %10s  %6s %6s %6s %6s  %5s %5s %4s %4s@." "principal"
    "cycles" "kernel" "module" "guard" "entry" "exit" "write" "icall" "grant" "rvk"
    "sw" "viol";
  List.iter
    (fun p ->
      Fmt.pf ppf "%-26s %12d %10d %10d %10d  %6d %6d %6d %6d  %5d %5d %4d %4d@."
        p.ps_principal (ps_total p) p.ps_kernel p.ps_module p.ps_guard
        p.ps_guards.(Trace.guard_index Trace.Gentry)
        p.ps_guards.(Trace.guard_index Trace.Gexit)
        p.ps_guards.(Trace.guard_index Trace.Gwrite)
        (p.ps_guards.(Trace.guard_index Trace.Gindcall)
        + p.ps_guards.(Trace.guard_index Trace.Gkindcall_checked)
        + p.ps_guards.(Trace.guard_index Trace.Gkindcall_elided))
        p.ps_caps_granted p.ps_caps_revoked p.ps_switches p.ps_violations)
    t.pr_principals;
  let entry_table title rows =
    if rows <> [] then begin
      Fmt.pf ppf "@.-- %s --@." title;
      Fmt.pf ppf "%-40s %8s %14s %14s %10s@." "wrapper" "calls" "cycles" "self" "avg";
      List.iter
        (fun e ->
          Fmt.pf ppf "%-40s %8d %14d %14d %10.1f@." e.es_wrapper e.es_calls
            e.es_cycles_incl e.es_cycles_self
            (float_of_int e.es_cycles_incl /. float_of_int (max 1 e.es_calls)))
        rows
    end
  in
  entry_table "kernel entry points (kernel->module wrappers)" t.pr_entries;
  entry_table "kernel exports called (module->kernel wrappers)" t.pr_kexports;
  Fmt.pf ppf "@.total cycles %d, attributed %d (%s)@." t.pr_total_cycles
    (attributed_cycles t)
    (if attributed_cycles t = t.pr_total_cycles then "reconciled" else "MISMATCH")

(** {1 Chrome trace-event JSON}

    Loadable in chrome://tracing / Perfetto: wrapper spans become
    complete ("X") events, violations / quarantines / escalations /
    injected faults become instants, one track per principal.
    Timestamps are simulated microseconds at the paper's 3.2 GHz test
    machine (cycles / 3200). *)

let cycles_per_us = 3200.

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let ts_of cycles = Printf.sprintf "%.3f" (float_of_int cycles /. cycles_per_us)

(** [to_chrome_json buf] — serialize the retained events.  Deterministic:
    thread ids are assigned in order of first appearance. *)
let to_chrome_json (buf : Trace.t) : string =
  let out = Buffer.create 4096 in
  let first = ref true in
  let emit_json fields =
    if !first then first := false else Buffer.add_string out ",\n";
    Buffer.add_string out "    {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string out ", ";
        Buffer.add_string out (Printf.sprintf "\"%s\": %s" k v))
      fields;
    Buffer.add_string out "}"
  in
  let str s = "\"" ^ json_escape s ^ "\"" in
  let tids = { items = [] } in
  let next_tid = ref 0 in
  let tid_of principal =
    let v =
      acc_get tids principal (fun name ->
          let id = !next_tid in
          incr next_tid;
          emit_json
            [
              ("name", str "thread_name");
              ("ph", str "M");
              ("pid", "0");
              ("tid", string_of_int id);
              ("args", Printf.sprintf "{\"name\": %s}" (str name));
            ];
          id)
    in
    v
  in
  Buffer.add_string out "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n";
  (* Spans: match begin/end on a stack (exporter-side, same discipline
     as the aggregator) and emit complete events so nesting renders. *)
  let stack = ref [] in
  let instant at principal name =
    emit_json
      [
        ("name", str name);
        ("ph", str "i");
        ("s", str "g");
        ("ts", ts_of at);
        ("pid", "0");
        ("tid", string_of_int (tid_of principal));
      ]
  in
  let last =
    Trace.fold buf 0 (fun _ ~kernel ~module_ ~guard ~principal kind ->
      let at = kernel + module_ + guard in
      (match kind with
      | Trace.Span_begin (kind, w) -> stack := (kind, w, at, principal) :: !stack
      | Trace.Span_end (kind, w) -> (
          match !stack with
          | (k, w', t0, p) :: rest when k = kind && w' = w ->
              stack := rest;
              emit_json
                [
                  ("name", str w);
                  ("ph", str "X");
                  ("ts", ts_of t0);
                  ("dur", ts_of (at - t0));
                  ("pid", "0");
                  ("tid", string_of_int (tid_of p));
                ]
          | _ -> ())
      | Trace.Violation (k, m) -> instant at principal (Printf.sprintf "violation:%s:%s" k m)
      | Trace.Quarantine (p, _) -> instant at principal ("quarantine:" ^ p)
      | Trace.Escalation (m, _) -> instant at principal ("escalation:" ^ m)
      | Trace.Fault_injected site -> instant at principal ("fault:" ^ site)
      | Trace.Guard _ | Trace.Cap _ | Trace.Switch _ | Trace.Slab_alloc _
      | Trace.Slab_free _ | Trace.Mod_call _ ->
          ());
      at)
  in
  (* Close spans still open at the end of the capture window. *)
  List.iter
    (fun (_, w, t0, p) ->
      emit_json
        [
          ("name", str (w ^ " (unfinished)"));
          ("ph", str "X");
          ("ts", ts_of t0);
          ("dur", ts_of (last - t0));
          ("pid", "0");
          ("tid", string_of_int (tid_of p));
        ])
    !stack;
  Buffer.add_string out "\n  ]\n}\n";
  Buffer.contents out

let write_chrome_json path buf =
  let oc = open_out_bin path in
  output_string oc (to_chrome_json buf);
  close_out oc
