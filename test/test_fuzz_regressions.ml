(* Corpus replay + fuzz-subsystem regression pins.

   - every checked-in repro in corpus/*.mir replays green: clean
     exemplars pass the full oracle battery, attack exemplars raise
     exactly their recorded violation class with the canary intact;
   - a fixed-seed smoke campaign finds zero divergences and detects
     every mutant as the correct class;
   - the campaign report is deterministic (same seed, equal report);
   - the shrinker preserves the failure signature and only ever
     removes things. *)

(* cwd is test/ under `dune runtest`, the project root under
   `dune exec` *)
let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mir")
  |> List.sort compare

let read_file path = In_channel.with_open_text path In_channel.input_all

let test_corpus_replay () =
  let files = corpus_files () in
  (* one attack exemplar per mutation class plus the clean exemplar *)
  Alcotest.(check bool) "corpus covers every class" true
    (List.length files >= List.length Fuzz.Mutate.all + 1);
  List.iter
    (fun f ->
      let src = read_file (Filename.concat corpus_dir f) in
      match Fuzz.Corpus.replay ~src with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" f m)
    files

(* Every mutation class has an attack exemplar checked in, so a
   regressing guard family fails loudly by name. *)
let test_corpus_covers_all_classes () =
  let files = corpus_files () in
  List.iter
    (fun cls ->
      let expected = Printf.sprintf "attack_%s.mir" (Fuzz.Mutate.name cls) in
      Alcotest.(check bool) expected true (List.mem expected files))
    Fuzz.Mutate.all

(* Differential control for the flow class: the mutant raises
   flow-violation under the registered benign policy, and the same
   module with its kernel-API calls reordered back runs clean under
   that very policy — the guard rejects the ordering, not the calls. *)
let test_flow_reorder_differential () =
  let canary = Lazy.force Fuzz.Harness.canary_addr in
  let rng = Fuzz.Rng.create ~seed:11 in
  let case = Fuzz.Gen.case_of_rand (Fuzz.Rng.rand rng) in
  let m =
    Fuzz.Mutate.apply ~canary_addr:canary Fuzz.Mutate.Flow_reorder case.Fuzz.Gen.c_prog
  in
  let inputs = case.Fuzz.Gen.c_inputs in
  (match
     Fuzz.Harness.run_violation_repro m.Fuzz.Mutate.m_prog m.Fuzz.Mutate.m_drive
       ~inputs ~expect:Lxfi.Violation.Flow_violation
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flow mutant not detected: %s" e);
  let benign =
    { m with Fuzz.Mutate.m_prog = Fuzz.Mutate.benign_of m.Fuzz.Mutate.m_prog }
  in
  match Fuzz.Harness.run_mutant benign ~inputs with
  | Error e -> Alcotest.failf "reordered-back control setup: %s" e
  | Ok r -> (
      match r.Fuzz.Harness.mr_outcome with
      | Fuzz.Harness.Oval _ -> ()
      | o ->
          Alcotest.failf "reordered-back control raised %s"
            (Fuzz.Harness.outcome_string o))

let test_smoke_campaign () =
  let r = Fuzz.Campaign.run ~seed:7 ~runs:25 () in
  List.iter
    (fun (d : Fuzz.Campaign.divergence) ->
      Printf.printf "divergence %s: %s\n" d.Fuzz.Campaign.dv_name d.Fuzz.Campaign.dv_message)
    r.Fuzz.Campaign.r_divergences;
  Alcotest.(check int) "clean cases all pass" 25 r.Fuzz.Campaign.r_cases_ok;
  Alcotest.(check int) "every mutant correct" r.Fuzz.Campaign.r_mutants_total
    r.Fuzz.Campaign.r_mutants_correct;
  Alcotest.(check bool) "campaign passed" true (Fuzz.Campaign.passed r)

let test_campaign_deterministic () =
  let a = Fuzz.Campaign.run ~seed:3 ~runs:8 () in
  let b = Fuzz.Campaign.run ~seed:3 ~runs:8 () in
  Alcotest.(check string) "same JSON report"
    (Workloads.Bench_json.to_string (Workloads.Fuzz_run.json_of_report a))
    (Workloads.Bench_json.to_string (Workloads.Fuzz_run.json_of_report b))

(* The shrinker on a real mutant: result still fails with the same
   signature and is no larger than the input. *)
let prog_weight (p : Mir.Ast.prog) =
  let rec stmts ss = List.fold_left (fun a s -> a + stmt s) 0 ss
  and stmt = function
    | Mir.Ast.If (_, t, e) -> 1 + stmts t + stmts e
    | Mir.Ast.While (_, b) -> 1 + stmts b
    | _ -> 1
  in
  List.length p.Mir.Ast.globals + List.length p.Mir.Ast.imports
  + List.fold_left (fun a (f : Mir.Ast.func) -> a + 1 + stmts f.Mir.Ast.body) 0 p.Mir.Ast.funcs

let test_shrinker_preserves_signature () =
  let canary = Lazy.force Fuzz.Harness.canary_addr in
  let rng = Fuzz.Rng.create ~seed:99 in
  let case = Fuzz.Gen.case_of_rand (Fuzz.Rng.rand rng) in
  let m = Fuzz.Mutate.apply ~canary_addr:canary Fuzz.Mutate.Store_oob case.Fuzz.Gen.c_prog in
  let inputs = case.Fuzz.Gen.c_inputs in
  let expect = Fuzz.Mutate.expected_kind m.Fuzz.Mutate.m_class in
  let pred p =
    match Fuzz.Harness.run_violation_repro p m.Fuzz.Mutate.m_drive ~inputs ~expect with
    | Ok () -> Some "detected"
    | Error _ -> None
  in
  Alcotest.(check bool) "mutant fails before shrinking" true (pred m.Fuzz.Mutate.m_prog <> None);
  let small = Fuzz.Shrink.minimize ~pred m.Fuzz.Mutate.m_prog in
  Alcotest.(check bool) "shrunk program still fails" true (pred small <> None);
  Alcotest.(check bool) "shrinking never grows the program" true
    (prog_weight small <= prog_weight m.Fuzz.Mutate.m_prog);
  (* the shrunk repro round-trips through the printer/parser *)
  let txt = Mir.Printer.to_string small in
  match Mir.Parser.parse_result txt with
  | Error e -> Alcotest.failf "shrunk repro does not re-parse: %s" e
  | Ok _ -> ()

(* Rendered repros parse both as directives and as plain MIR. *)
let test_render_parse_roundtrip () =
  let canary = Lazy.force Fuzz.Harness.canary_addr in
  let rng = Fuzz.Rng.create ~seed:5 in
  let case = Fuzz.Gen.case_of_rand (Fuzz.Rng.rand rng) in
  let m = Fuzz.Mutate.apply ~canary_addr:canary Fuzz.Mutate.Over_grant case.Fuzz.Gen.c_prog in
  let txt =
    Fuzz.Corpus.render_mutant ~comment:"roundtrip"
      ~expect:(Fuzz.Mutate.expected_kind m.Fuzz.Mutate.m_class)
      m.Fuzz.Mutate.m_drive m.Fuzz.Mutate.m_prog
  in
  (match Fuzz.Corpus.parse_spec txt with
  | Error e -> Alcotest.failf "directives do not re-parse: %s" e
  | Ok spec -> (
      Alcotest.(check bool) "drive survives" true (spec.Fuzz.Corpus.sp_drive <> None);
      match spec.Fuzz.Corpus.sp_expect with
      | Fuzz.Corpus.Eviolation k ->
          Alcotest.(check string) "kind survives"
            (Lxfi.Violation.kind_name (Fuzz.Mutate.expected_kind m.Fuzz.Mutate.m_class))
            (Lxfi.Violation.kind_name k)
      | Fuzz.Corpus.Eclean -> Alcotest.fail "expected a violation directive"));
  match Mir.Parser.parse_result txt with
  | Error e -> Alcotest.failf "repro is not plain MIR: %s" e
  | Ok _ -> ()

(* The canary address mutants aim at is found once per process; every
   harness boot must still put the canary there, whichever module it
   then loads. *)
let test_canary_addr_fixed () =
  List.iter
    (fun seed ->
      let case = Fuzz.Gen.case_of_rand (Fuzz.Rng.rand (Fuzz.Rng.create ~seed)) in
      let ctx =
        Fuzz.Harness.boot Fuzz.Harness.mutant_config (Lxfi.Loader.linker case.Fuzz.Gen.c_prog)
      in
      Alcotest.(check int) "canary where a fresh boot puts it"
        ctx.Fuzz.Harness.canary (Lazy.force Fuzz.Harness.canary_addr))
    [ 1; 2; 3 ]

let () =
  Kernel_sim.Klog.quiet ();
  Alcotest.run "fuzz_regressions"
    [
      ( "corpus",
        [
          Alcotest.test_case "replay" `Quick test_corpus_replay;
          Alcotest.test_case "covers all classes" `Quick test_corpus_covers_all_classes;
          Alcotest.test_case "flow-reorder differential control" `Quick
            test_flow_reorder_differential;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "smoke" `Quick test_smoke_campaign;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "canary address fixed" `Quick test_canary_addr_fixed;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "preserves signature" `Quick test_shrinker_preserves_signature;
          Alcotest.test_case "render/parse roundtrip" `Quick test_render_parse_roundtrip;
        ] );
    ]
