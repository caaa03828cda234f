(** Driver for the static checker: boot the kernel, build the checker
    environment from the live runtime, and run the annotation lint and
    capability-flow pass over the declared API surface and the module
    corpus — without loading (and hence without instrumenting or
    running) anything.  This is what `lxfi_sim check` and the CI check
    job execute; [broken_demo] is the deliberately-bad module that
    proves the checker actually rejects things. *)

open Kmodules

type report = {
  r_scope : string;  (** "catalog", a module name, or "broken-demo" *)
  r_interface : Check.Finding.t list;
      (** registry + kexport lint findings ([--all] only) *)
  r_modules : (string * Check.Finding.t list) list;
      (** per-module capability-flow findings *)
  r_summary : Check.Checker.summary;  (** all findings, sorted *)
}

let summarize ~scope ~interface ~modules =
  {
    r_scope = scope;
    r_interface = interface;
    r_modules = modules;
    r_summary =
      Check.Checker.summarize (interface @ List.concat_map snd modules);
  }

let has_errors r = not (Check.Checker.ok r.r_summary)

(** Check the shipped corpus.  [only] restricts to one module (no
    interface lint — the module is judged against the interfaces as
    they are); [None] checks the whole API surface plus every module. *)
let check_catalog ?only () : report =
  let sys = Ksys.boot Lxfi.Config.lxfi in
  let env = Lxfi.Loader.check_env sys.Ksys.rt in
  match only with
  | Some name -> (
      match Catalog.find name with
      | None -> invalid_arg (Printf.sprintf "unknown module %s" name)
      | Some spec ->
          let prog = spec.Mod_common.make sys in
          let fs = Check.Checker.check_module env prog in
          summarize ~scope:name ~interface:[] ~modules:[ (name, fs) ])
  | None ->
      let interface = Check.Checker.check_interfaces env in
      let modules =
        List.map
          (fun (spec : Mod_common.spec) ->
            let prog = spec.Mod_common.make sys in
            (spec.Mod_common.name, Check.Checker.check_module env prog))
          Catalog.all
      in
      summarize ~scope:"catalog" ~interface ~modules

(** The deliberately broken module of the acceptance checklist: a slot
    annotation naming a parameter that does not exist (forged past
    [Registry.make_src]'s validation, the way a hand-edited annotation
    table would arrive), an annotation using an unregistered capability
    iterator, and an entry function that stores through a parameter no
    clause grants WRITE for.  Every one of these is a guaranteed
    runtime failure; the checker must find all three before load. *)
let broken_demo () : report =
  let sys = Ksys.boot Lxfi.Config.lxfi in
  let rt = sys.Ksys.rt in
  let registry = rt.Lxfi.Runtime.registry in
  (* unknown-param: validation would reject this, so forge the slot
     record directly — the checker must not trust the registry to have
     been populated through the front door *)
  let forge name params src =
    let annot = Result.get_ok (Annot.Parser.parse src) in
    Hashtbl.replace registry.Annot.Registry.slots name (Annot.Registry.forge ~name ~params annot)
  in
  forge "bad.entry" [ "buf"; "n" ] "pre(check(write, bogus, 8))";
  (* unknown-iterator: parses and validates (iterator names are not
     checked until runtime), so the front door accepts it *)
  ignore
    (Annot.Registry.define_exn registry ~name:"bad.iter" ~params:[ "p" ]
       ~annot_src:"pre(transfer(no_such_iter(p)))");
  let env = Lxfi.Loader.check_env rt in
  let prog =
    let open Mir.Builder in
    prog "badmod" ~imports:[] ~globals:[]
      ~funcs:
        [
          (* stores through [buf], but bad.entry's only clause covers
             the non-existent [bogus]: uncovered-store *)
          func "entry" [ "buf"; "n" ] ~export:"bad.entry"
            [ store64 (v "buf") (v "n"); ret0 ];
          func "iter_user" [ "p" ] ~export:"bad.iter" [ ret0 ];
        ]
  in
  let interface =
    Check.Lint.slot_findings env (Annot.Registry.find registry "bad.entry")
    @ Check.Lint.slot_findings env (Annot.Registry.find registry "bad.iter")
  in
  let modules = [ ("badmod", Check.Checker.check_module env prog) ] in
  summarize ~scope:"broken-demo" ~interface ~modules

(* ---- rendering ---- *)

let finding_json (f : Check.Finding.t) : Bench_json.t =
  let d = f.Check.Finding.f_diag in
  Bench_json.Obj
    [
      ("rule", Bench_json.Str (Check.Finding.rule f));
      ("severity", Bench_json.Str (Diag.severity_name d.Diag.d_severity));
      ("source", Bench_json.Str d.Diag.d_source);
      ( "location",
        match d.Diag.d_location with
        | Some l -> Bench_json.Str l
        | None -> Bench_json.Null );
      ( "principal",
        match d.Diag.d_principal with
        | Some p -> Bench_json.Str p
        | None -> Bench_json.Null );
      ("message", Bench_json.Str d.Diag.d_message);
    ]

let to_json (r : report) : Bench_json.t =
  let s = r.r_summary in
  Bench_json.Obj
    [
      ("scope", Bench_json.Str r.r_scope);
      ("errors", Bench_json.Int s.Check.Checker.errors);
      ("warnings", Bench_json.Int s.Check.Checker.warnings);
      ("infos", Bench_json.Int s.Check.Checker.infos);
      ( "modules",
        Bench_json.List (List.map (fun (n, _) -> Bench_json.Str n) r.r_modules)
      );
      ( "findings",
        Bench_json.List (List.map finding_json s.Check.Checker.findings) );
    ]

let pp ppf (r : report) =
  Fmt.pf ppf "static check: %s (%d module%s)@." r.r_scope
    (List.length r.r_modules)
    (if List.length r.r_modules = 1 then "" else "s");
  Check.Checker.pp_summary ppf r.r_summary
