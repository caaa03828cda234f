(** Deterministic fault-injection engine.

    A single seeded engine drives every injector in the simulation:
    allocation failures (consulted by {!Slab.kmalloc}), dropped
    capability grants (consulted by the LXFI runtime's grant path) and
    corrupted function-pointer slots (applied by the campaign runner).
    All randomness derives from the seed through a splitmix64 stream,
    so a campaign with the same seed makes exactly the same decisions
    run after run — the property the faultsim report depends on. *)

type site = Alloc_fail | Drop_grant | Corrupt_slot

let site_name = function
  | Alloc_fail -> "alloc-fail"
  | Drop_grant -> "drop-grant"
  | Corrupt_slot -> "corrupt-slot"

type plan =
  | Nth of int  (** fire on the [n]th eligible event (1-based), once *)
  | Prob of float  (** fire each eligible event with this probability *)

type counter = {
  mutable c_plan : plan option;
  mutable c_seen : int;  (** eligible events observed since arming *)
  mutable c_fired : int;  (** events actually failed/dropped *)
}

type t = {
  seed : int64;
  mutable rng : int64;  (** splitmix64 state *)
  alloc : counter;
  grant : counter;
  slot : counter;
}

(* splitmix64: tiny, seedable, and plenty for deciding which event to
   fail.  (OCaml's Random is banned here: its default self-seeding
   would break report determinism.) *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed =
  let fresh () = { c_plan = None; c_seen = 0; c_fired = 0 } in
  {
    seed = Int64.of_int seed;
    rng = Int64.of_int seed;
    alloc = fresh ();
    grant = fresh ();
    slot = fresh ();
  }

let next t =
  t.rng <- Int64.add t.rng 0x9e3779b97f4a7c15L;
  mix t.rng

(** [pick t n] — a deterministic integer in [0, n). *)
let pick t n =
  if n <= 0 then invalid_arg "Finject.pick: n <= 0";
  Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int n))

(** [float01 t] — a deterministic float in [0, 1). *)
let float01 t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

let counter_of t = function
  | Alloc_fail -> t.alloc
  | Drop_grant -> t.grant
  | Corrupt_slot -> t.slot

(** [arm t site plan] starts injecting at [site]; resets its event
    counter so [Nth n] counts from this moment. *)
let arm t site plan =
  let c = counter_of t site in
  c.c_plan <- Some plan;
  c.c_seen <- 0

(** [fires t site] — called by the instrumented operation at each
    eligible event; true means "inject the fault here". *)
let fires t site =
  let c = counter_of t site in
  match c.c_plan with
  | None -> false
  | Some plan ->
      c.c_seen <- c.c_seen + 1;
      let hit =
        match plan with
        | Nth n -> c.c_seen = n
        | Prob p -> float01 t < p
      in
      if hit then begin
        c.c_fired <- c.c_fired + 1;
        if !Trace.on then Trace.emit (Trace.Fault_injected (site_name site))
      end;
      hit

let fired t site = (counter_of t site).c_fired

(** A recognisably-wild kernel address for slot corruption: inside the
    heap region but never a callable target. *)
let garbage_addr t = 0x2_0BAD_0000 + (pick t 256 * 16)
