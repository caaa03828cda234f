(** Struct-layout registry for the simulated kernel: sizes, field
    offsets, and which fields are typed function-pointer slots (the
    anchor of annotation propagation and indirect-call hash checks). *)

type field_kind =
  | Scalar
  | Pointer
  | Funcptr of string
      (** names the slot type registered in [Annot.Registry], e.g.
          ["net_device_ops.ndo_start_xmit"] *)

type field = { f_name : string; f_offset : int; f_size : int; f_kind : field_kind }
type strct = { s_name : string; s_size : int; s_fields : field list }
type t = { structs : (string, strct) Hashtbl.t }

val create : unit -> t

exception Unknown_struct of string
exception Unknown_field of string * string

val layout : string -> (string * int * field_kind) list -> strct
(** Lay out a struct: fields in order, with natural alignment.  Pure;
    the kernel subsystems hold their layouts as per-process values. *)

val add : t -> strct -> unit
(** Register a layout under its name.  Raises [Invalid_argument] on
    duplicates. *)

val define : t -> string -> (string * int * field_kind) list -> strct
(** [layout] then [add]; returns the layout. *)

val offset_of : strct -> string -> int
(** Byte offset of a field of a layout; raises [Unknown_field]. *)

val find : t -> string -> strct
val mem : t -> string -> bool
val sizeof : t -> string -> int
val field : t -> string -> string -> field
val offset : t -> string -> string -> int

val funcptr_fields : t -> string -> (field * string) list
(** All function-pointer fields, with their slot-type names. *)

val funcptr_slot : t -> string -> int -> string option
(** Slot-type name of the function pointer at a byte offset, if that
    field is one. *)

val all : t -> strct list
val pp_struct : Format.formatter -> strct -> unit
