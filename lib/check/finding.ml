(** A checker finding: a structured {!Diag.t} tagged with the lint or
    dataflow rule that produced it, so reports (and tests) can select
    findings by rule. *)

type t = { f_rule : string; f_diag : Diag.t }

let make ~rule ?principal ?location ~source severity fmt =
  Format.kasprintf
    (fun msg ->
      { f_rule = rule; f_diag = Diag.make ?principal ?location ~source severity msg })
    fmt

let rule f = f.f_rule
let severity f = f.f_diag.Diag.d_severity
let is_error f = Diag.is_error f.f_diag

let count_severity fs sev = List.length (List.filter (fun f -> severity f = sev) fs)
let errors fs = count_severity fs Diag.Error

let pp ppf f = Fmt.pf ppf "%a [%s]" Diag.pp f.f_diag f.f_rule
let to_string f = Fmt.str "%a" pp f

(** Sort by severity (errors first), then location, then rule — the
    stable order of the CLI and JSON reports. *)
let sort fs =
  List.stable_sort
    (fun a b ->
      match Diag.severity_compare (severity a) (severity b) with
      | 0 -> (
          match compare a.f_diag.Diag.d_location b.f_diag.Diag.d_location with
          | 0 -> compare a.f_rule b.f_rule
          | c -> c)
      | c -> c)
    fs
