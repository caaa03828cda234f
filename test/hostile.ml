(* Hostile annotation text: seeded 1–4-byte edits, shared by the
   properties that feed edited declarations to the parser, the lint
   and the compiled crossings. *)

(* One 1–4-byte edit: overwrite, insert or delete at [pos] (taken
   modulo the text's length plus one) as many bytes as [bytes] holds. *)
type edit = { op : int; pos : int; bytes : string }

let apply_edit { op; pos; bytes } src =
  let len = String.length src and n = String.length bytes in
  let pos = pos mod (len + 1) in
  match op with
  | 0 -> String.mapi (fun i c -> if i >= pos && i < pos + n then bytes.[i - pos] else c) src
  | 1 -> String.sub src 0 pos ^ bytes ^ String.sub src pos (len - pos)
  | _ ->
      let stop = min len (pos + n) in
      String.sub src 0 pos ^ String.sub src stop (len - stop)

(* Half the bytes from the annotation language's own characters, so
   that some edits still parse. *)
let gen_edit =
  let lexical =
    List.of_seq (String.to_seq "(),=!<>&|+-* 0123456789abcdefghijklmnopqrstuvwxyz_:@")
  in
  QCheck.Gen.(
    map3
      (fun op pos bytes -> { op; pos; bytes })
      (int_bound 2) nat
      (string_size ~gen:(frequency [ (1, char); (1, oneofl lexical) ]) (int_range 1 4)))
