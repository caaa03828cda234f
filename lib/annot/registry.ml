(** Registry of annotated function-pointer slot types.

    A {e slot type} names a function-pointer position in a kernel
    interface — e.g. ["proto_ops.ioctl"] or
    ["net_device_ops.ndo_start_xmit"] — together with its parameter
    names and its annotation set.  Kernel indirect-call sites pass the
    slot-type name; the LXFI runtime resolves it here to obtain the
    expected annotation hash and the contract to enforce around the
    call. *)

type slot = {
  sl_name : string;
  sl_params : string list;  (** parameter names, excluding the return value *)
  sl_annot : Ast.t;
  sl_ahash : int64;
}

type t = { slots : (string, slot) Hashtbl.t }

let create () = { slots = Hashtbl.create 64 }

exception Unknown_slot of string

type error =
  | Duplicate of string  (** name already in the registry or runtime *)
  | Parse of { name : string; src : string; err : Parser.error }
      (** the [~annot_src] convenience form failed to parse *)
  | Invalid of { name : string; msg : string }
      (** parsed, but [Ast.validate] rejected it against the params *)

let error_to_string = function
  | Duplicate name -> Printf.sprintf "duplicate declaration %s" name
  | Parse { name; src; err } ->
      Printf.sprintf "%s: %s" name (Parser.error_to_string ~src err)
  | Invalid { name; msg } -> Printf.sprintf "%s: invalid annotation: %s" name msg

let ok_exn = function
  | Ok v -> v
  | Error e -> invalid_arg (Printf.sprintf "Registry.define: %s" (error_to_string e))

(** [make ~name ~params ~annot] builds a declaration: validates
    [annot] against [params] and computes its canonical hash, without
    touching any registry. *)
let make ~name ~params ~annot : (slot, error) result =
  match Ast.validate ~params annot with
  | Error msg -> Error (Invalid { name; msg })
  | Ok () ->
      Ok
        {
          sl_name = name;
          sl_params = params;
          sl_annot = annot;
          sl_ahash = Hash.of_annot ~params annot;
        }

let make_src ~name ~params ~annot_src : (slot, error) result =
  match Parser.parse annot_src with
  | Error err -> Error (Parse { name; src = annot_src; err })
  | Ok annot -> make ~name ~params ~annot

let add t s : (slot, error) result =
  if Hashtbl.mem t.slots s.sl_name then Error (Duplicate s.sl_name)
  else begin
    Hashtbl.replace t.slots s.sl_name s;
    Ok s
  end

let define t ~name ~params ~annot = Result.bind (make ~name ~params ~annot) (add t)
let define_src t ~name ~params ~annot_src = Result.bind (make_src ~name ~params ~annot_src) (add t)
let define_exn t ~name ~params ~annot_src = ok_exn (define_src t ~name ~params ~annot_src)

let find t name =
  match Hashtbl.find_opt t.slots name with
  | Some s -> s
  | None -> raise (Unknown_slot name)

let find_opt t name = Hashtbl.find_opt t.slots name
let mem t name = Hashtbl.mem t.slots name
let ahash t name = (find t name).sl_ahash

let all t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.slots []
  |> List.sort (fun a b -> compare a.sl_name b.sl_name)
