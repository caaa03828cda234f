(** What every seeded campaign cell shares: the bystander traffic a
    cell runs beside its target, the containment checks it must pass
    once its faults are in, the seed of each cell and the verdict line
    of the report. *)

(** {1 Bystander traffic} *)

val can : Kmodules.Ksys.t -> unit -> int64
(** Install can and bind a raw CAN socket; the result sends one
    16-byte frame. *)

val rds : Kmodules.Ksys.t -> int * (len:int -> int64)
(** Install rds and open an RDS socket; returns it and a send of
    [len] bytes from a 64-byte user buffer. *)

val bystanders : (string * (Kmodules.Ksys.t -> unit -> int64)) list
(** netperf (one 64-byte frame through e1000, set up by
    {!Netperf_sim.attach}), can, and rds (a 32-byte send): each sets
    up its traffic in a booted system and returns a probe whose value
    a contained fault must not change. *)

val names : string list

val bystander : string -> Kmodules.Ksys.t -> unit -> int64
(** The set-up named; [Invalid_argument] for a name not in {!names}. *)

(** {1 Containment checks} *)

type t
(** One cell's invariant breaches, each prefixed with its label. *)

val create : string -> t
val breach : t -> ('a, unit, string, unit) format4 -> 'a

val breaches : t -> string list
(** Oldest first. *)

val contained :
  t -> Lxfi.Runtime.t -> workload:string -> serve:(unit -> int64) -> baseline:int64 -> bool
(** Breaches for a shadow stack left unbalanced, a principal left
    current, a quarantined principal that still holds a capability,
    and then a bystander whose [serve] no longer returns [baseline];
    returns whether the bystander still serves. *)

(** {1 Campaigns} *)

val run :
  seed:int -> (seed:int -> 'a -> 'row * string list) -> 'a list -> 'row list * string list
(** One cell per element, the [i]th (from 1) seeded [seed + 7919 * i];
    the rows in order and every breach, cell by cell. *)

val verdict : held:string -> cells:int -> string list -> int
(** Print a blank line, then "[cells] cells, all [held]" or every
    breach; returns the exit status, 0 when nothing was breached. *)
