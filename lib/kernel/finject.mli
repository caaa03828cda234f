(** Deterministic, seeded fault-injection engine.

    One engine instance drives every injector in the simulation.  All
    randomness derives from the seed via a splitmix64 stream, so the
    same seed makes identical decisions on every run — the property the
    faultsim campaign report depends on. *)

type site =
  | Alloc_fail  (** make {!Slab.kmalloc} raise [Out_of_memory] *)
  | Drop_grant  (** silently drop an LXFI capability grant *)
  | Corrupt_slot  (** overwrite a function-pointer slot with garbage *)

type plan =
  | Nth of int  (** fire on the [n]th eligible event (1-based), once *)
  | Prob of float  (** fire each eligible event with this probability *)

type t

val create : seed:int -> t
val arm : t -> site -> plan -> unit
(** Start injecting at a site; resets its event counter so [Nth n]
    counts from this moment. *)

val fires : t -> site -> bool
(** Called by the instrumented operation at each eligible event; [true]
    means "inject the fault here".  Counts the event either way. *)

val fired : t -> site -> int
(** Faults actually injected at a site since [create]. *)

val next : t -> int64
(** The next 64 bits of the seed's splitmix64 stream. *)

val pick : t -> int -> int
(** Deterministic integer in [0, n).  Advances the stream. *)

val garbage_addr : t -> int
(** A recognisably-wild kernel address for slot corruption. *)
