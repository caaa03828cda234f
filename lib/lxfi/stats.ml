(** Guard counters — the raw material of Figure 13 ("guards per packet"
    by type) and the writer-set ablation.

    Counters are cheap monotonic ints; the benchmark harness snapshots
    them around a workload section and divides by the packet count.
    [all] names each field once; every other whole-record operation is
    derived from it. *)

type t = {
  mutable annotation_actions : int;
      (** copy/transfer/check actions executed by wrappers *)
  mutable fn_entry : int;  (** wrapper/function entry guards *)
  mutable fn_exit : int;
  mutable mem_write_checks : int;  (** module store guards *)
  mutable mod_indcall_checks : int;  (** module-side indirect-call guards *)
  mutable kernel_indcall_all : int;  (** kernel indirect-call sites executed *)
  mutable kernel_indcall_checked : int;  (** ... that needed the capability check *)
  mutable kernel_indcall_elided : int;  (** ... skipped via writer-set fast path *)
  mutable caps_granted : int;
  mutable caps_revoked : int;
  mutable principal_switches : int;
  mutable violations : int;  (** contained by [Quarantine] *)
  mutable quarantines : int;  (** principals quarantined *)
  mutable escalations : int;  (** whole-module unloads after repeat offenses *)
  mutable watchdog_expiries : int;
  mutable flow_violations : int;  (** kernel-API calls denied by the flow automaton *)
  mutable caps_dropped : int;  (** grants suppressed by fault injection *)
}

let create () =
  {
    annotation_actions = 0;
    fn_entry = 0;
    fn_exit = 0;
    mem_write_checks = 0;
    mod_indcall_checks = 0;
    kernel_indcall_all = 0;
    kernel_indcall_checked = 0;
    kernel_indcall_elided = 0;
    caps_granted = 0;
    caps_revoked = 0;
    principal_switches = 0;
    violations = 0;
    quarantines = 0;
    escalations = 0;
    watchdog_expiries = 0;
    flow_violations = 0;
    caps_dropped = 0;
  }

type counter = { name : string; get : t -> int; set : t -> int -> unit }

let all =
  let c name get set = { name; get; set } in
  [
    c "annotation_actions"
      (fun t -> t.annotation_actions) (fun t n -> t.annotation_actions <- n);
    c "fn_entry" (fun t -> t.fn_entry) (fun t n -> t.fn_entry <- n);
    c "fn_exit" (fun t -> t.fn_exit) (fun t n -> t.fn_exit <- n);
    c "mem_write_checks" (fun t -> t.mem_write_checks) (fun t n -> t.mem_write_checks <- n);
    c "mod_indcall_checks"
      (fun t -> t.mod_indcall_checks) (fun t n -> t.mod_indcall_checks <- n);
    c "kernel_indcall_all"
      (fun t -> t.kernel_indcall_all) (fun t n -> t.kernel_indcall_all <- n);
    c "kernel_indcall_checked"
      (fun t -> t.kernel_indcall_checked) (fun t n -> t.kernel_indcall_checked <- n);
    c "kernel_indcall_elided"
      (fun t -> t.kernel_indcall_elided) (fun t n -> t.kernel_indcall_elided <- n);
    c "caps_granted" (fun t -> t.caps_granted) (fun t n -> t.caps_granted <- n);
    c "caps_revoked" (fun t -> t.caps_revoked) (fun t n -> t.caps_revoked <- n);
    c "principal_switches"
      (fun t -> t.principal_switches) (fun t n -> t.principal_switches <- n);
    c "violations" (fun t -> t.violations) (fun t n -> t.violations <- n);
    c "quarantines" (fun t -> t.quarantines) (fun t n -> t.quarantines <- n);
    c "escalations" (fun t -> t.escalations) (fun t n -> t.escalations <- n);
    c "watchdog_expiries" (fun t -> t.watchdog_expiries) (fun t n -> t.watchdog_expiries <- n);
    c "flow_violations" (fun t -> t.flow_violations) (fun t n -> t.flow_violations <- n);
    c "caps_dropped" (fun t -> t.caps_dropped) (fun t n -> t.caps_dropped <- n);
  ]

let snapshot t = { t with fn_entry = t.fn_entry }

let since t s =
  let d = snapshot t in
  List.iter (fun c -> c.set d (c.get t - c.get s)) all;
  d

let pp ppf t =
  Fmt.pf ppf "guards{%a}"
    (Fmt.list ~sep:(Fmt.any "; ") (fun ppf c -> Fmt.pf ppf "%s=%d" c.name (c.get t)))
    all
