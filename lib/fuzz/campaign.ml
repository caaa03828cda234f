type class_stat = {
  cs_class : Mutate.mclass;
  mutable cs_total : int;
  mutable cs_detected : int;
  mutable cs_correct : int;
  mutable cs_static : int;
}

type repro = { rp_name : string; rp_text : string }
type divergence = { dv_name : string; dv_message : string }

type report = {
  r_seed : int;
  r_runs : int;
  r_mutants_per_case : int;
  r_cases_ok : int;
  r_mutants_total : int;
  r_mutants_correct : int;
  r_stats : class_stat list;
  r_divergences : divergence list;
  r_repros : repro list;
}

let passed r = r.r_divergences = [] && r.r_mutants_correct = r.r_mutants_total

let detected = function Harness.Oviolation _ -> true | Harness.Oval _ | Harness.Oexn _ -> false

let run ?(shrink = true) ?(mutants_per_case = 4) ~seed ~runs () =
  let canary_addr = Lazy.force Harness.canary_addr in
  let stats =
    List.map
      (fun c -> { cs_class = c; cs_total = 0; cs_detected = 0; cs_correct = 0; cs_static = 0 })
      Mutate.all
  in
  let stat c = List.find (fun s -> s.cs_class = c) stats in
  let cases_ok = ref 0 in
  let mutants_total = ref 0 in
  let mutants_correct = ref 0 in
  let divergences = ref [] in
  let repros = ref [] in
  let diverge name message repro_text =
    divergences := { dv_name = name; dv_message = message } :: !divergences;
    repros := { rp_name = name ^ ".mir"; rp_text = repro_text } :: !repros
  in
  for i = 1 to runs do
    let rng = Rng.create ~seed:(Rng.derive seed i) in
    let rand = Rng.rand rng in
    let case = Gen.case_of_rand rand in
    (match Harness.clean_failure case with
    | None -> incr cases_ok
    | Some msg ->
        let pred p = Harness.clean_failure { case with Gen.c_prog = p } in
        let small = if shrink then Shrink.minimize ~pred case.Gen.c_prog else case.Gen.c_prog in
        let name = Printf.sprintf "clean_s%d_c%d" seed i in
        diverge name msg
          (Corpus.render_clean
             ~comment:(Printf.sprintf "%s: %s" name msg)
             ~inputs:case.Gen.c_inputs small));
    List.iter
      (fun cls ->
        let m = Mutate.apply ~canary_addr cls case.Gen.c_prog in
        let s = stat cls in
        s.cs_total <- s.cs_total + 1;
        incr mutants_total;
        let failure =
          match Harness.run_mutant m ~inputs:case.Gen.c_inputs with
          | Error msg -> Some ("setup failed: " ^ msg)
          | Ok r ->
              if detected r.Harness.mr_outcome then s.cs_detected <- s.cs_detected + 1;
              if r.Harness.mr_static_errors > 0 then s.cs_static <- s.cs_static + 1;
              Harness.mutant_verdict m r
        in
        match failure with
        | None ->
            s.cs_correct <- s.cs_correct + 1;
            incr mutants_correct
        | Some msg ->
            let pred p =
              Harness.mutant_failure { m with Mutate.m_prog = p } ~inputs:case.Gen.c_inputs
            in
            let small = if shrink then Shrink.minimize ~pred m.Mutate.m_prog else m.Mutate.m_prog in
            let name = Printf.sprintf "mutant_s%d_c%d_%s" seed i (Mutate.name cls) in
            diverge name msg
              (Corpus.render_mutant
                 ~comment:(Printf.sprintf "%s: %s" name msg)
                 ~expect:(Mutate.expected_kind cls) m.Mutate.m_drive small))
      (Mutate.select ~rand ~count:mutants_per_case)
  done;
  {
    r_seed = seed;
    r_runs = runs;
    r_mutants_per_case = mutants_per_case;
    r_cases_ok = !cases_ok;
    r_mutants_total = !mutants_total;
    r_mutants_correct = !mutants_correct;
    r_stats = stats;
    r_divergences = List.rev !divergences;
    r_repros = List.rev !repros;
  }

(* ---- exemplar generation for the checked-in corpus ---- *)

let exemplars ~seed =
  let canary_addr = Lazy.force Harness.canary_addr in
  (* One detected attack per class, shrunk down to the attack skeleton:
     the predicate pins "raises exactly the expected kind with the
     canary intact", the same check corpus replay applies. *)
  let attack cls =
    let rec find i =
      if i > 50 then
        failwith (Printf.sprintf "no detected %s exemplar in 50 tries" (Mutate.name cls))
      else
        let rng = Rng.create ~seed:(Rng.derive seed (1000 + i)) in
        let case = Gen.case_of_rand (Rng.rand rng) in
        let m = Mutate.apply ~canary_addr cls case.Gen.c_prog in
        let inputs = case.Gen.c_inputs in
        let expect = Mutate.expected_kind cls in
        let pred p =
          match Harness.run_violation_repro p m.Mutate.m_drive ~inputs ~expect with
          | Ok () -> Some "detected"
          | Error _ -> None
        in
        if pred m.Mutate.m_prog = None then find (i + 1)
        else
          let small = Shrink.minimize ~pred m.Mutate.m_prog in
          {
            rp_name = Printf.sprintf "attack_%s.mir" (Mutate.name cls);
            rp_text =
              Corpus.render_mutant
                ~comment:
                  (Printf.sprintf "exemplar: %s attack on the %s guard family" (Mutate.name cls)
                     (Mutate.guard_family cls))
                ~expect m.Mutate.m_drive small;
          }
    in
    find 0
  in
  (* One small clean module passing the full oracle battery. *)
  let clean =
    let rec find i =
      if i > 50 then failwith "no clean exemplar in 50 tries"
      else
        let rng = Rng.create ~seed:(Rng.derive seed (2000 + i)) in
        let case = Gen.case_of_rand ~size:3 (Rng.rand rng) in
        match Harness.clean_failure case with
        | None ->
            {
              rp_name = "clean_small.mir";
              rp_text =
                Corpus.render_clean
                  ~comment:"exemplar: well-behaved module, all clean oracles must pass"
                  ~inputs:case.Gen.c_inputs case.Gen.c_prog;
            }
        | Some _ -> find (i + 1)
    in
    find 0
  in
  clean :: List.map attack Mutate.all
