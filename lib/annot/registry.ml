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
  sl_derived : derived;
}

(* The values derived from the declaration.  An object, so that
   polymorphic equality, comparison and hashing of declarations see it
   by identity only and never reach the closures and cycles a derived
   value holds. *)
and derived = < values : value list ; keep : value list -> unit >

(* A derived value with the key it was made for. *)
and value = Value : 'a Type.Id.t * 'a -> value

let no_values () : derived =
  object
    val mutable values = []
    method values = values
    method keep vs = values <- vs
  end

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

let forge ~name ~params annot =
  {
    sl_name = name;
    sl_params = params;
    sl_annot = annot;
    sl_ahash = Hash.of_annot ~params annot;
    sl_derived = no_values ();
  }

(** [make ~name ~params ~annot] builds a declaration: validates
    [annot] against [params] and computes its canonical hash, without
    touching any registry. *)
let make ~name ~params ~annot : (slot, error) result =
  match Ast.validate ~params annot with
  | Error msg -> Error (Invalid { name; msg })
  | Ok () -> Ok (forge ~name ~params annot)

let make_src ~name ~params ~annot_src : (slot, error) result =
  match Parser.parse annot_src with
  | Error err -> Error (Parse { name; src = annot_src; err })
  | Ok annot -> make ~name ~params ~annot

let equal a b =
  a == b
  || String.equal a.sl_name b.sl_name
     && a.sl_params = b.sl_params && a.sl_annot = b.sl_annot
     && Int64.equal a.sl_ahash b.sl_ahash

type 'a key = 'a Type.Id.t

let key () = Type.Id.make ()

let derive (type a) (key : a key) (make : slot -> a) (s : slot) : a =
  let rec find = function
    | [] ->
        let v = make s in
        s.sl_derived#keep (Value (key, v) :: s.sl_derived#values);
        v
    | Value (k, v) :: rest -> (
        match Type.Id.provably_equal key k with Some Type.Equal -> v | None -> find rest)
  in
  find s.sl_derived#values

let add t s : (slot, error) result =
  if Hashtbl.mem t.slots s.sl_name then Error (Duplicate s.sl_name)
  else begin
    Hashtbl.replace t.slots s.sl_name s;
    Ok s
  end

let define_exn t ~name ~params ~annot_src =
  ok_exn (Result.bind (make_src ~name ~params ~annot_src) (add t))

let find t name =
  match Hashtbl.find_opt t.slots name with
  | Some s -> s
  | None -> raise (Unknown_slot name)

let find_opt t name = Hashtbl.find_opt t.slots name
let mem t name = Hashtbl.mem t.slots name

let all t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.slots []
  |> List.sort (fun a b -> compare a.sl_name b.sl_name)
