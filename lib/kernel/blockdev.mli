(** Block layer + device-mapper substrate for the dm-* corpus: target
    modules register a [target_type] whose ctr/dtr/map pointers live in
    module memory; each mapped device is a natural instance principal
    (§3.1). *)

val tt_layout : Ktypes.strct
val ti_layout : Ktypes.strct
val bio_layout : Ktypes.strct

val layouts : Ktypes.strct list
(** Every layout of this subsystem, in registration order. *)

val define_layout : Ktypes.t -> unit
(** Add {!layouts} to a booted system's registry. *)

val dm_mapio_submitted : int64
val dm_mapio_remapped : int64

type t = {
  kst : Kstate.t;
  targets : (string, int) Hashtbl.t;
  mutable mapped : (string * int * int) list;
  mutable backing_io : int;
}

val create : Kstate.t -> t
val register_target : t -> name:string -> tt:int -> int64
val unregister_target : t -> name:string -> unit

val dm_create :
  t -> target:string -> name:string -> len:int -> arg:int -> (int, string) result
(** Build a mapped device: allocate the [dm_target] and run the
    module's constructor through the ctr slot; returns the dm_target
    address. *)

val dm_destroy : t -> name:string -> unit
val alloc_bio : t -> sector:int -> size:int -> rw:int -> int
val free_bio : t -> int -> unit

val bio_data : t -> int -> int
(** A bio's payload buffer. *)

val bio_size : t -> int -> int
(** A bio's payload length in bytes. *)

val submit_bio : t -> name:string -> int -> (int64, string) result
(** Route a bio through the named device's map slot; REMAPPED/SUBMITTED
    results reach the backing device (counted). *)
