(** Machine-readable reports: a minimal JSON emitter for [lxfi_sim
    reference] and the [--json] reports of the lxfi_sim subcommands.
    Output is standard JSON; [nan]/[inf] floats become [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed (2-space indent), deterministic for deterministic
    inputs — the enforcement-neutrality check compares these strings
    byte for byte. *)

val write_file : string -> t -> unit
(** Write [to_string] plus a trailing newline to a file. *)

val of_measure : Netperf_sim.measure -> t
(** Simulated cycles per unit, guard-cycle share, and guard counters of
    one netperf measurement. *)
