(** Aggregation over a {!Trace} buffer: per-principal and
    per-kernel-entry-point profiles, a text report, and Chrome
    trace-event JSON export. *)

type principal_stat = {
  ps_principal : string;
  mutable ps_events : int;
  mutable ps_kernel : int;
  mutable ps_module : int;
  mutable ps_guard : int;
  ps_guards : int array;  (** indexed by {!Trace.guard_index} *)
  mutable ps_caps_granted : int;
  mutable ps_caps_revoked : int;
  mutable ps_switches : int;
  mutable ps_violations : int;
}

type entry_stat = {
  es_wrapper : string;
  mutable es_calls : int;
  mutable es_cycles_incl : int;
  mutable es_cycles_self : int;
}

type t = {
  pr_principals : principal_stat list;  (** sorted by cycles, descending *)
  pr_entries : entry_stat list;  (** kernel→module entry points *)
  pr_kexports : entry_stat list;  (** module→kernel wrapper calls *)
  pr_events : int;
  pr_emitted : int;
  pr_dropped : int;
  pr_total_cycles : int;
}

val aggregate : ?final:Trace.cycles -> Trace.t -> t
(** Build the profile.  [final] is the cycle clock at aggregation time
    (the runtime's live counter record); the per-principal cycle totals
    then sum exactly to it (see {!attributed_cycles}). *)

val attributed_cycles : t -> int
(** Sum of per-principal cycles; equals [pr_total_cycles] when [final]
    was supplied to {!aggregate}. *)

val report : Format.formatter -> t -> unit

val write_chrome_json : string -> Trace.t -> unit
(** Write Chrome trace-event JSON (chrome://tracing / Perfetto) to a
    file: wrapper spans as "X" complete events, violations /
    quarantines / escalations / injected faults as instants, one track
    per principal.  Deterministic for a fixed input. *)
