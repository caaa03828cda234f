(** Registry of annotated function-pointer slot types: a name such as
    ["proto_ops.ioctl"], its parameter names, and its parsed annotation
    with canonical hash.  Kernel indirect-call sites pass the slot-type
    name; the runtime resolves the expected hash and contract here. *)

type slot = {
  sl_name : string;
  sl_params : string list;
  sl_annot : Ast.t;
  sl_ahash : int64;
}

type t = { slots : (string, slot) Hashtbl.t }

val create : unit -> t

exception Unknown_slot of string

type error =
  | Duplicate of string  (** name already defined (slot type or kernel export) *)
  | Parse of { name : string; src : string; err : Parser.error }
      (** the [~annot_src] convenience form failed to parse *)
  | Invalid of { name : string; msg : string }
      (** parsed, but [Ast.validate] rejected it against the params *)

val error_to_string : error -> string

val ok_exn : ('a, error) result -> 'a
(** Unwrap, raising [Invalid_argument] with the rendered error — for
    built-in declarations, where a bad annotation is a programming
    bug. *)

val make_src :
  name:string -> params:string list -> annot_src:string -> (slot, error) result
(** Build a declaration without touching any registry: parse
    [annot_src], validate it against [params] (unknown parameter names,
    [return] in pre clauses) and compute its canonical hash. *)

val add : t -> slot -> (slot, error) result
(** Insert a declaration; [Error (Duplicate name)] if the name is
    already defined. *)

val define : t -> name:string -> params:string list -> annot:Ast.t -> (slot, error) result
(** Validate and hash an already-parsed annotation, then {!add} it, so
    every slot in the registry is internally consistent. *)

val define_src :
  t -> name:string -> params:string list -> annot_src:string -> (slot, error) result
(** {!make_src} then {!add}. *)

val define_exn : t -> name:string -> params:string list -> annot_src:string -> slot
(** [define_src] + [ok_exn]. *)

val find : t -> string -> slot
val find_opt : t -> string -> slot option
val mem : t -> string -> bool
val ahash : t -> string -> int64
val all : t -> slot list
(** Sorted by name. *)
