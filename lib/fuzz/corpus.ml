type expect = Eviolation of Lxfi.Violation.kind | Eclean

type spec = {
  sp_drive : Mutate.drive option;
  sp_inputs : int64 list;
  sp_expect : expect;
}

let default_inputs = [ 0L; 5L; 123456789L ]

let arg_token = function
  | Mutate.Acanary -> "@canary"
  | Mutate.Akbuf -> "@kbuf"
  | Mutate.Ainput -> "@in"

let arg_of_token = function
  | "@canary" -> Some Mutate.Acanary
  | "@kbuf" -> Some Mutate.Akbuf
  | "@in" -> Some Mutate.Ainput
  | _ -> None

let drive_line = function
  | Mutate.Dinvoke (f, args) ->
      "drive: invoke " ^ String.concat " " (f :: List.map arg_token args)
  | Mutate.Dcorrupt_kcall (f, args) ->
      "drive: invoke+kcall " ^ String.concat " " (f :: List.map arg_token args)
  | Mutate.Dupgrade ((f1, a1), (f2, a2)) ->
      "drive: invoke+upgrade+invoke "
      ^ String.concat " "
          ((f1 :: List.map arg_token a1) @ (f2 :: List.map arg_token a2))
  | Mutate.Dflow (f, args) ->
      "drive: invoke+flowpolicy " ^ String.concat " " (f :: List.map arg_token args)

let header lines =
  "/* fuzz corpus\n"
  ^ String.concat "" (List.map (fun l -> " * " ^ l ^ "\n") lines)
  ^ " */\n"

let render_mutant ~comment ~expect drive prog =
  header
    [
      comment;
      drive_line drive;
      "expect: violation " ^ Lxfi.Violation.kind_name expect;
    ]
  ^ Mir.Printer.to_string prog

let render_clean ~comment ~inputs prog =
  header
    [
      comment;
      "inputs: " ^ String.concat "," (List.map Int64.to_string inputs);
      "expect: clean";
    ]
  ^ Mir.Printer.to_string prog

(* ---- parsing ---- *)

let strip_comment_prefix line =
  let line = String.trim line in
  if String.length line >= 2 && String.sub line 0 2 = "* " then
    String.sub line 2 (String.length line - 2)
  else line

let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse_spec src =
  let lines = String.split_on_char '\n' src |> List.map strip_comment_prefix in
  let directive prefix =
    List.find_map
      (fun l ->
        let pl = String.length prefix in
        if String.length l > pl && String.sub l 0 pl = prefix then
          Some (String.trim (String.sub l pl (String.length l - pl)))
        else None)
      lines
  in
  let parse_args toks =
    List.fold_left
      (fun acc t ->
        match (acc, arg_of_token t) with
        | Ok args, Some a -> Ok (args @ [ a ])
        | Ok _, None -> Error (Printf.sprintf "bad drive argument %S" t)
        | err, _ -> err)
      (Ok []) toks
  in
  let drive =
    match directive "drive:" with
    | None -> Ok None
    | Some rest -> (
        match words rest with
        | "invoke" :: f :: toks ->
            Result.map (fun args -> Some (Mutate.Dinvoke (f, args))) (parse_args toks)
        | "invoke+kcall" :: f :: toks ->
            Result.map (fun args -> Some (Mutate.Dcorrupt_kcall (f, args))) (parse_args toks)
        | "invoke+flowpolicy" :: f :: toks ->
            (* the replayed policy is re-derived deterministically: the
               graph of [Mutate.benign_of] on the stored program *)
            Result.map (fun args -> Some (Mutate.Dflow (f, args))) (parse_args toks)
        | "invoke+upgrade+invoke" :: f1 :: toks -> (
            (* leading @-tokens belong to the first call; the next bare
               word names the post-upgrade entry *)
            let rec split acc = function
              | t :: rest when arg_of_token t <> None ->
                  split (acc @ [ Option.get (arg_of_token t) ]) rest
              | rest -> (acc, rest)
            in
            let a1, rest = split [] toks in
            match rest with
            | f2 :: toks2 ->
                Result.map
                  (fun a2 -> Some (Mutate.Dupgrade ((f1, a1), (f2, a2))))
                  (parse_args toks2)
            | [] -> Error "invoke+upgrade+invoke needs a post-upgrade entry name")
        | _ -> Error (Printf.sprintf "bad drive directive %S" rest))
  in
  let inputs =
    match directive "inputs:" with
    | None -> Ok default_inputs
    | Some rest -> (
        let toks = String.split_on_char ',' rest |> List.map String.trim in
        try Ok (List.map Int64.of_string toks)
        with _ -> Error (Printf.sprintf "bad inputs directive %S" rest))
  in
  let expect =
    match directive "expect:" with
    | None -> Error "missing expect: directive"
    | Some rest -> (
        match words rest with
        | [ "clean" ] -> Ok Eclean
        | [ "violation"; kname ] -> (
            match Lxfi.Violation.kind_of_name kname with
            | Some k -> Ok (Eviolation k)
            | None -> Error (Printf.sprintf "unknown violation kind %S" kname))
        | _ -> Error (Printf.sprintf "bad expect directive %S" rest))
  in
  match (drive, inputs, expect) with
  | Ok d, Ok i, Ok e -> Ok { sp_drive = d; sp_inputs = i; sp_expect = e }
  | Error m, _, _ | _, Error m, _ | _, _, Error m -> Error m

let replay ~src =
  match parse_spec src with
  | Error m -> Error ("directives: " ^ m)
  | Ok spec -> (
      match Mir.Parser.parse_result src with
      | Error m -> Error ("parse: " ^ m)
      | Ok prog -> (
          match spec.sp_expect with
          | Eclean -> (
              match Harness.clean_failure { Gen.c_prog = prog; c_inputs = spec.sp_inputs } with
              | None -> Ok ()
              | Some m -> Error m)
          | Eviolation kind -> (
              match spec.sp_drive with
              | None -> Error "expect: violation requires a drive: directive"
              | Some drive ->
                  Harness.run_violation_repro prog drive ~inputs:spec.sp_inputs ~expect:kind)))
