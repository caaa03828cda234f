(** Struct-layout registry for the simulated kernel.

    The Linux kernel exposes its internal data structures (e.g.
    [struct sk_buff], [struct net_device_ops]) to modules; LXFI's
    annotations reference them by name ([ref(struct pci_dev)],
    the default "size of the pointed-to struct").  This registry
    records, for each named
    struct, its size and field layout so that:

    - the annotation evaluator can resolve [sizeof(struct foo)] and the
      default size of a pointer's referent;
    - module code (MIR) and kernel substrate agree on field offsets;
    - function-pointer-typed fields carry the name of their slot type,
      which the kernel rewriter uses to look up the expected annotation
      hash at indirect call sites (paper §4.1).

    A layout itself is a pure value ([layout]): each kernel subsystem
    builds its layouts once per process and binds the offsets its
    accessors use from them, as a C compiler fixes [offsetof]; each boot
    only [add]s those values to its registry, for the names that arrive
    at run time. *)

type field_kind =
  | Scalar  (** plain integer data *)
  | Pointer  (** pointer to other kernel data *)
  | Funcptr of string
      (** function pointer; the payload names the slot type registered in
          [Annot.Registry], e.g. ["net_device_ops.ndo_start_xmit"] *)

type field = {
  f_name : string;
  f_offset : int;
  f_size : int;
  f_kind : field_kind;
}

type strct = { s_name : string; s_size : int; s_fields : field list }

type t = { structs : (string, strct) Hashtbl.t }

let create () = { structs = Hashtbl.create 64 }

exception Unknown_struct of string
exception Unknown_field of string * string

(** [layout name specs] lays out a struct whose fields come in
    declaration order with natural alignment for their size.  Pure: the
    kernel subsystems build their layouts once per process, as values. *)
let layout name (specs : (string * int * field_kind) list) : strct =
  let align off sz =
    let a = if sz >= 8 then 8 else if sz >= 4 then 4 else if sz >= 2 then 2 else 1 in
    (off + a - 1) land lnot (a - 1)
  in
  let fields, size =
    List.fold_left
      (fun (acc, off) (fname, fsize, fkind) ->
        let off = align off fsize in
        ( { f_name = fname; f_offset = off; f_size = fsize; f_kind = fkind } :: acc,
          off + fsize ))
      ([], 0) specs
  in
  let size = align size 8 in
  { s_name = name; s_size = max size 8; s_fields = List.rev fields }

(** [add t s] registers the layout [s] under its name.  Raises
    [Invalid_argument] on duplicate names. *)
let add t s =
  if Hashtbl.mem t.structs s.s_name then
    invalid_arg (Printf.sprintf "Ktypes.define: duplicate struct %s" s.s_name);
  Hashtbl.replace t.structs s.s_name s

(** [define t name specs] lays out and registers a struct; returns the
    layout. *)
let define t name specs =
  let s = layout name specs in
  add t s;
  s

(** The field [fname] of the layout [s]. *)
let field_of s fname =
  match List.find_opt (fun f -> String.equal f.f_name fname) s.s_fields with
  | Some f -> f
  | None -> raise (Unknown_field (s.s_name, fname))

(** Byte offset of [fname] within the layout [s]. *)
let offset_of s fname = (field_of s fname).f_offset

let find t name =
  match Hashtbl.find_opt t.structs name with
  | Some s -> s
  | None -> raise (Unknown_struct name)

let mem t name = Hashtbl.mem t.structs name
let sizeof t name = (find t name).s_size

let field t sname fname = field_of (find t sname) fname

(** Byte offset of [fname] within [sname]. *)
let offset t sname fname = (field t sname fname).f_offset

(** All function-pointer fields of [sname], with their slot-type names. *)
let funcptr_fields t sname =
  List.filter_map
    (fun f -> match f.f_kind with Funcptr ty -> Some (f, ty) | _ -> None)
    (find t sname).s_fields

(** [funcptr_slot t sname off] is the slot-type name of the function
    pointer at byte offset [off] in [sname], if that field is one. *)
let funcptr_slot t sname off =
  List.find_map
    (fun f ->
      match f.f_kind with
      | Funcptr ty when f.f_offset = off -> Some ty
      | _ -> None)
    (find t sname).s_fields

let all t = Hashtbl.fold (fun _ s acc -> s :: acc) t.structs []

let pp_struct ppf s =
  Fmt.pf ppf "struct %s { /* %d bytes */@." s.s_name s.s_size;
  List.iter
    (fun f ->
      let kind =
        match f.f_kind with
        | Scalar -> "scalar"
        | Pointer -> "ptr"
        | Funcptr ty -> "fn:" ^ ty
      in
      Fmt.pf ppf "  +%-4d %-24s (%d bytes, %s)@." f.f_offset f.f_name f.f_size kind)
    s.s_fields;
  Fmt.pf ppf "}"
