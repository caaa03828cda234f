(** The checker façade: run the annotation lint over every registered
    interface and the capability-flow pass over module MIR, and
    summarise the findings.

    This is the load-time verifier move of the SFI lineage (Wahbe et
    al.'s verifier, XFI's two-phase checker) applied to LXFI's trusted
    input: the annotations themselves.  See DESIGN.md, "Static
    checking". *)

type summary = {
  findings : Finding.t list;  (** sorted: errors first *)
  errors : int;
  warnings : int;
  infos : int;
}

let summarize findings =
  let findings = Finding.sort findings in
  {
    findings;
    errors = Finding.count_severity findings Diag.Error;
    warnings = Finding.count_severity findings Diag.Warning;
    infos = Finding.count_severity findings Diag.Info;
  }

(** Lint the whole declared API surface: every slot type in the
    registry, then every annotated kernel export by name. *)
let check_interfaces (env : Env.t) =
  List.concat_map (Lint.slot_findings env) (Annot.Registry.all env.registry)
  @ (env.kexports ()
    |> List.sort (fun (a : Annot.Registry.slot) b -> compare a.sl_name b.sl_name)
    |> List.concat_map (Lint.kexport_findings env))

(** One module's MIR against its propagated slot types, plus the
    syscall-flow extraction pass ([flow]: the module's graph, if
    already extracted). *)
let check_module ?flow env prog =
  Capflow.check_module env prog @ Apiflow.check_module ?graph:flow env prog

let ok summary = summary.errors = 0

let pp_summary ppf s =
  List.iter (fun f -> Fmt.pf ppf "%a@." Finding.pp f) s.findings;
  Fmt.pf ppf "%d error%s, %d warning%s, %d info@." s.errors
    (if s.errors = 1 then "" else "s")
    s.warnings
    (if s.warnings = 1 then "" else "s")
    s.infos
