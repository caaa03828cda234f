(** Fixed-width table formatting shared by [lxfi_sim paper] and the
    other subcommands. *)

let rule width = String.make width '-'

(** [table ~title ~header rows] prints an aligned table; column widths
    are computed from the content. *)
let table ?title ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun m row ->
        match List.nth_opt row c with Some s -> max m (String.length s) | None -> m)
      0 all
  in
  let widths = List.init ncols width in
  let line row =
    String.concat "  "
      (List.mapi
         (fun c cell ->
           let w = List.nth widths c in
           if c = 0 then Printf.sprintf "%-*s" w cell else Printf.sprintf "%*s" w cell)
         row)
  in
  let total = List.fold_left ( + ) (2 * (ncols - 1)) widths in
  (match title with
  | Some t ->
      print_endline "";
      print_endline t;
      print_endline (rule total)
  | None -> ());
  print_endline (line header);
  print_endline (rule total);
  List.iter (fun r -> print_endline (line r)) rows

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let pct x = Printf.sprintf "%.0f%%" (100. *. x)
let pct1 x = Printf.sprintf "%.1f%%" (100. *. x)
let int_ n = string_of_int n
