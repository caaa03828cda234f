(** Runtime introspection — the /proc-style view of LXFI's state:
    modules, principals (with their alias names), capability
    populations, writer-set size, shadow-stack depth, guard counters.
    Used by [lxfi_sim state] and debugging sessions. *)

type principal_view = {
  pv_describe : string;
  pv_writes : int;
  pv_calls : int;
  pv_refs : int;
  pv_aliases : int list;
  pv_quarantined : string option;  (** quarantine reason, if contained *)
}

type module_view = {
  mv_name : string;
  mv_functions : int;
  mv_globals : int;
  mv_sections : (string * int * int) list;
  mv_principals : principal_view list;
  mv_dead : string option;  (** retirement reason after escalation *)
}

type t = {
  iv_mode : string;
  iv_modules : module_view list;
  iv_writer_set_lines : int;
  iv_shadow_depth : int;
  iv_current : string;
  iv_stats : Stats.t;
  iv_quarantine_log : Diag.t list;  (** structured containment diagnostics, newest first *)
}

val capture : Runtime.t -> t
(** Exported for the tests that read the view's fields. *)

val to_string : Runtime.t -> string
