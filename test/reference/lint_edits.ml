(* Pins the annotation lint on hostile text: 2,000 seeded 1–4-byte edits
   of the declared annotations (every slot type, then every kernel
   export, round robin; every other round edits each annotation written
   twice, so that duplicate clauses and transfers followed by a use
   occur).  Each edit that parses becomes a declaration forged past
   validation, as the broken demo forges one, and is linted as a slot or
   as a kernel export; every finding is printed whole (severity,
   location, message and rule). *)

open Kmodules

let edits = 2_000

(* Bytes an edit writes: half from the annotation language's own
   characters, so that some edits still parse, half any byte. *)
let lexical = "(),=!<>&|+-* 0123456789abcdefghijklmnopqrstuvwxyz_"

(* Overwrite, insert or delete 1–4 bytes at a random offset. *)
let edit rand src =
  let len = String.length src in
  let n = 1 + rand 4 in
  let pos = rand (len + 1) in
  let byte _ =
    if rand 2 = 0 then lexical.[rand (String.length lexical)] else Char.chr (rand 256)
  in
  match rand 3 with
  | 0 -> String.mapi (fun i c -> if i >= pos && i < pos + n then byte i else c) src
  | 1 -> String.sub src 0 pos ^ String.init n byte ^ String.sub src pos (len - pos)
  | _ ->
      let stop = min len (pos + n) in
      String.sub src 0 pos ^ String.sub src stop (len - stop)

let () =
  let sys = Ksys.boot Lxfi.Config.lxfi in
  let env = Lxfi.Loader.check_env sys.Ksys.rt in
  let decls =
    Array.of_list
      (List.map (fun d -> (Check.Lint.slot_findings, d)) Ksys.slot_types
      @ List.map (fun (d, _) -> (Check.Lint.kexport_findings, d)) Ksys.kexports)
  in
  let rng = Fuzz.Rng.create ~seed:1 in
  let rand = Fuzz.Rng.rand rng in
  let parsed = ref 0 and found = ref 0 in
  let n = Array.length decls in
  for i = 0 to edits - 1 do
    let lint, (d : Annot.Registry.slot) = decls.(i mod n) in
    let text = Annot.Ast.to_string d.sl_annot in
    let src = edit rand (if (i / n) land 1 = 0 then text else text ^ " " ^ text) in
    match Annot.Parser.parse src with
    | Error _ -> ()
    | Ok annot ->
        incr parsed;
        let forged = Annot.Registry.forge ~name:d.sl_name ~params:d.sl_params annot in
        let fs = lint env forged in
        found := !found + List.length fs;
        Fmt.pr "%d %s %S@." i d.sl_name src;
        List.iter (fun f -> Fmt.pr "  %s@." (Check.Finding.to_string f)) fs
  done;
  Fmt.pr "%d edits, %d parsed, %d findings@." edits !parsed !found
