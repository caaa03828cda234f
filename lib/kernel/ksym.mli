(** Kernel symbol table: every callable entity (kernel export, module
    function, attacker payload) is interned at a unique fake text
    address, so function pointers in simulated memory are plain
    integers that corruption can redirect and CALL capabilities can
    name. *)

type t = {
  by_name : (string, int) Hashtbl.t;
  by_addr : string Inttbl.t;
  mutable text_cursor : int;
}

val create : unit -> t

exception Unknown_symbol of string

val intern : t -> string -> int
(** Assign a fresh kernel-text address (idempotent). *)

val register_at : t -> string -> int -> unit
(** Bind a name at a caller-chosen address (module text, user
    payloads). *)

val addr_of : t -> string -> int

val pp_addr : t -> Format.formatter -> int -> unit
(** Print an address with its symbol name when known. *)
