(** Runtime introspection — the /proc-style view of LXFI's state:
    modules, principals (with their alias names), capability
    populations, writer-set size, shadow-stack depth, guard counters.
    Used by [lxfi_sim state] and debugging sessions. *)

val to_string : Runtime.t -> string
