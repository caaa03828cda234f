(** Registry of annotated function-pointer slot types: a name such as
    ["proto_ops.ioctl"], its parameter names, and its parsed annotation
    with canonical hash.  Kernel indirect-call sites pass the slot-type
    name; the runtime resolves the expected hash and contract here. *)

type slot = private {
  sl_name : string;
  sl_params : string list;
  sl_annot : Ast.t;
  sl_ahash : int64;
  sl_derived : derived;
      (** the values {!derive} made from this declaration; polymorphic
          equality and comparison see it by identity only *)
}
(** Built only by {!make_src} and {!forge}, so every declaration starts
    with nothing derived. *)

and derived

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
(** Exported for the tests that print an unexpected error. *)

val ok_exn : ('a, error) result -> 'a
(** Unwrap, raising [Invalid_argument] with the rendered error — for
    built-in declarations, where a bad annotation is a programming
    bug. *)

val make_src :
  name:string -> params:string list -> annot_src:string -> (slot, error) result
(** Build a declaration without touching any registry: parse
    [annot_src], validate it against [params] (unknown parameter names,
    [return] in pre clauses) and compute its canonical hash. *)

val forge : name:string -> params:string list -> Ast.t -> slot
(** A declaration built without validation, the way a hand-edited
    annotation table would arrive — for the checker's tests and the
    broken demo, which must not trust the front door. *)

val equal : slot -> slot -> bool
(** The same declaration: physically, or by name, parameters,
    annotation and hash.  Use it rather than [=], under which two equal
    declarations made separately differ (their derived values do). *)

(** {1 Values derived per declaration}

    What a client computes from a declaration alone — the runtime's
    compiled crossings, the checker's parameter coverage — is made the
    first time it is asked for and kept on the declaration: once per
    declaration per process, never per boot, and never longer than the
    declaration lives. *)

type 'a key
(** Names one kind of derived value; make each key once per process. *)

val key : unit -> 'a key

val derive : 'a key -> (slot -> 'a) -> slot -> 'a
(** [derive k make s] — the value of kind [k] derived from [s], made by
    [make s] the first time. *)

val add : t -> slot -> (slot, error) result
(** Insert a declaration; [Error (Duplicate name)] if the name is
    already defined. *)

val define_exn : t -> name:string -> params:string list -> annot_src:string -> slot
(** {!make_src}, then {!add}, then {!ok_exn}. *)

val find : t -> string -> slot
val find_opt : t -> string -> slot option
val mem : t -> string -> bool
val all : t -> slot list
(** Sorted by name. *)
