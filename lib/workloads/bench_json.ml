(** Machine-readable benchmark output.

    Each bench section serializes to a [BENCH_<section>.json] file so
    runs can be diffed, plotted, and regression-checked by CI without
    scraping the text tables.  The emitter is a deliberately small
    hand-rolled JSON printer (no JSON library in the dependency
    cone) — output is standard JSON: objects, arrays, strings with
    escapes, and numbers ([nan]/[inf] become [null]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let to_string (v : t) : string =
  let buf = Buffer.create 1024 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            go (indent + 2) item)
          items;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\": ";
            go (indent + 2) item)
          fields;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

let write_file path v =
  let oc = open_out path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc

(** Every guard counter, one field per {!Lxfi.Stats.all} row. *)
let of_stats (s : Lxfi.Stats.t) : t =
  Obj (List.map (fun c -> (c.Lxfi.Stats.name, Int (c.Lxfi.Stats.get s))) Lxfi.Stats.all)

(** A netperf measurement: simulated cycles per unit, guard share, and
    the guard counters accumulated over the run. *)
let of_measure (m : Netperf_sim.measure) : t =
  Obj
    [
      ("units", Int m.Netperf_sim.m_units);
      ("cycles_per_unit", Float m.Netperf_sim.m_cycles_per_unit);
      ("guard_cycles_per_unit", Float m.Netperf_sim.m_guard_cycles_per_unit);
      ("guard_counters", of_stats m.Netperf_sim.m_stats);
    ]
