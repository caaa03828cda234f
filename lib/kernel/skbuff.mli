(** Simulated [struct sk_buff] — the network packet: a struct with an
    interior pointer to a separately-allocated payload, whose
    capability set is expressed by the [skb_caps] iterator (paper
    Figure 4). *)

val layout : Ktypes.strct
(** [struct sk_buff], laid out once per process. *)

val layouts : Ktypes.strct list
(** Every layout of this subsystem, in registration order. *)

val define_layout : Ktypes.t -> unit
(** Add {!layouts} to a booted system's registry. *)

val build : Kstate.t -> buf:int -> len:int -> int
(** Wrap an existing buffer of the given length in a fresh sk_buff;
    returns the struct address. *)

val alloc : Kstate.t -> int -> int
(** Allocate an sk_buff with a payload buffer of the given length;
    returns the struct address. *)

val data : Kstate.t -> int -> int
val len : Kstate.t -> int -> int
val set_len : Kstate.t -> int -> int -> unit
val dev : Kstate.t -> int -> int
val set_dev : Kstate.t -> int -> int -> unit

val free : Kstate.t -> int -> unit
(** Free the struct and (if live) its payload buffer. *)
