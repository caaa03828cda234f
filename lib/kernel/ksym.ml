(** Kernel symbol table.

    Every callable entity in the simulation — exported kernel functions,
    module functions, and (for exploit modelling) attacker-controlled
    user-space payloads — is {e interned}: assigned a unique fake text
    address.  Function pointers stored in simulated memory are exactly
    these addresses, so memory corruption can (and in the exploits, does)
    redirect them, and LXFI's CALL capabilities are keyed on them. *)

type t = {
  by_name : (string, int) Hashtbl.t;
  by_addr : string Inttbl.t;
  mutable text_cursor : int;
}

let create () =
  {
    by_name = Hashtbl.create 128;
    by_addr = Inttbl.create 128;
    text_cursor = Kmem.Layout.kernel_text_base;
  }

exception Unknown_symbol of string

(** [intern t name] assigns a fresh kernel-text address to [name]
    (idempotent: re-interning returns the existing address). *)
let intern t name =
  match Hashtbl.find_opt t.by_name name with
  | Some a -> a
  | None ->
      let a = t.text_cursor in
      (* Functions get 16-byte-aligned fake addresses. *)
      t.text_cursor <- t.text_cursor + 16;
      Hashtbl.add t.by_name name a;
      Inttbl.replace t.by_addr a name;
      a

(** [register_at t name addr] binds [name] to a caller-chosen address
    (used for module text, which lives in the module area, and for user
    payloads, which live at attacker-chosen user addresses). *)
let register_at t name addr =
  Hashtbl.replace t.by_name name addr;
  Inttbl.replace t.by_addr addr name

let addr_of t name =
  match Hashtbl.find_opt t.by_name name with
  | Some a -> a
  | None -> raise (Unknown_symbol name)

let name_of t addr = Inttbl.find_opt t.by_addr addr

let pp_addr t ppf addr =
  match name_of t addr with
  | Some n -> Fmt.pf ppf "%s(0x%x)" n addr
  | None -> Fmt.pf ppf "0x%x" addr
