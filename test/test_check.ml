(* Unit tests for the static checker: one known-bad annotation per lint
   rule, the capability-flow rules on minimal MIR entries, and the
   catalog-wide acceptance properties (the shipped corpus checks clean;
   the deliberately broken module does not). *)

module F = Check.Finding

(* ------------------------------------------------------------------ *)
(* Environment plumbing                                                *)
(* ------------------------------------------------------------------ *)

let mk_env ?(iterators = [ "skb_caps" ]) ?(kexports = []) () =
  let registry = Annot.Registry.create () in
  let types = Kernel_sim.Ktypes.create () in
  ignore
    (Kernel_sim.Ktypes.define types "sk_buff"
       [ ("data", 8, Kernel_sim.Ktypes.Pointer); ("len", 4, Kernel_sim.Ktypes.Scalar) ]);
  let env =
    {
      Check.Env.registry;
      types;
      iterator_exists = (fun n -> List.mem n iterators);
      kexport = (fun n -> List.find_opt (fun k -> k.Check.Env.kx_name = n) kexports);
      kexports = (fun () -> kexports);
    }
  in
  (registry, env)

let parse src =
  match Annot.Parser.parse src with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse %S: %s" src (Annot.Parser.error_to_string e)

let rules fs = String.concat ", " (List.map F.rule fs)
let has_rule r fs = List.exists (fun f -> F.rule f = r) fs

(* ------------------------------------------------------------------ *)
(* Annotation lint: one known-bad annotation per rule                  *)
(* ------------------------------------------------------------------ *)

let check_rule ?(kexport = false) ~params src expected_rule expected_sev =
  let _, env = mk_env () in
  let fs = Check.Lint.annot_findings env ~what:"slot t.f" ~kexport ~params (parse src) in
  match List.find_opt (fun f -> F.rule f = expected_rule) fs with
  | None -> Alcotest.failf "%s: rule %s not raised (got: %s)" src expected_rule (rules fs)
  | Some f ->
      Alcotest.(check string)
        (src ^ " severity")
        (Diag.severity_name expected_sev)
        (Diag.severity_name (F.severity f))

let test_lint_errors () =
  check_rule ~params:[ "p" ] "pre(check(write, bogus, 8))" "unknown-param" Diag.Error;
  check_rule ~params:[ "p" ] "pre(check(write, return, 8))" "return-in-pre" Diag.Error;
  check_rule ~params:[ "p" ] "pre(transfer(nope(p)))" "unknown-iterator" Diag.Error;
  check_rule ~params:[ "p" ] "pre(check(write, p, sizeof(struct nope)))"
    "sizeof-unknown-struct" Diag.Error

let test_lint_warnings () =
  check_rule ~params:[ "p" ] "pre(copy(write, p))" "write-size-defaulted" Diag.Warning;
  check_rule ~params:[ "p" ] "pre(if (1 == 2) check(write, p, 8))" "unsat-guard"
    Diag.Warning;
  check_rule ~params:[ "p" ] "pre(if (2 > 1) check(write, p, 8))" "redundant-guard"
    Diag.Info;
  check_rule ~params:[ "p" ]
    "pre(check(write, p, 8)) pre(check(write, p, 8))" "duplicate-clause" Diag.Warning;
  check_rule ~params:[ "p" ] "pre(if (p > 0) if (p > 0) check(write, p, 8))"
    "duplicate-guard" Diag.Warning

let test_transfer_then_use () =
  (* unconditional transfer followed by a pre referencing the same cap:
     the ownership check is guaranteed to fail *)
  check_rule ~kexport:true ~params:[ "p" ]
    "pre(transfer(write, p, 8)) pre(check(write, p, 8))" "transfer-then-use"
    Diag.Error;
  (* either side conditional: only liable to fail *)
  check_rule ~kexport:true ~params:[ "p"; "n" ]
    "pre(if (n > 0) transfer(write, p, 8)) pre(check(write, p, 8))"
    "transfer-then-use" Diag.Warning;
  (* M2K is the only direction where callers provably lose the cap *)
  let _, env = mk_env () in
  let fs =
    Check.Lint.annot_findings env ~what:"slot t.f" ~kexport:false ~params:[ "p" ]
      (parse "pre(transfer(write, p, 8)) pre(check(write, p, 8))")
  in
  Alcotest.(check bool) "not flagged on slots" false (has_rule "transfer-then-use" fs)

let test_lint_clean () =
  let _, env = mk_env () in
  let fs =
    Check.Lint.annot_findings env ~what:"slot t.f" ~kexport:false
      ~params:[ "skb"; "len" ]
      (parse
         "principal(skb) pre(copy(write, skb, sizeof(struct sk_buff))) \
          post(if (return == 0) transfer(skb_caps(skb)))")
  in
  Alcotest.(check string) "no findings" "" (rules fs)

(* ------------------------------------------------------------------ *)
(* Capability flow                                                     *)
(* ------------------------------------------------------------------ *)

let capflow ?iterators ?kexports ~slots ~funcs () =
  let registry, env = mk_env ?iterators ?kexports () in
  List.iter
    (fun (name, params, annot_src) ->
      ignore (Annot.Registry.define_exn registry ~name ~params ~annot_src))
    slots;
  let prog = Mir.Builder.prog "m" ~imports:[] ~globals:[] ~funcs in
  Check.Checker.check_module env prog

let test_uncovered_store () =
  let open Mir.Builder in
  let fs =
    capflow
      ~slots:[ ("t.entry", [ "buf"; "n" ], "") ]
      ~funcs:
        [ func "f" [ "buf"; "n" ] ~export:"t.entry" [ store64 (v "buf") (ii 0); ret0 ] ]
      ()
  in
  Alcotest.(check bool) "uncovered-store" true (has_rule "uncovered-store" fs);
  (* the same store is fine once a clause covers the parameter *)
  let fs =
    capflow
      ~slots:[ ("t.entry", [ "buf"; "n" ], "pre(copy(write, buf, n))") ]
      ~funcs:
        [ func "f" [ "buf"; "n" ] ~export:"t.entry" [ store64 (v "buf") (ii 0); ret0 ] ]
      ()
  in
  Alcotest.(check string) "covered" "" (rules fs)

let test_param_rooted_arith () =
  (* parameter-rooted pointer arithmetic keeps the root *)
  let open Mir.Builder in
  let fs =
    capflow
      ~slots:[ ("t.entry", [ "buf" ], "") ]
      ~funcs:
        [
          func "f" [ "buf" ] ~export:"t.entry"
            [
              let_ "p" (v "buf" +: ii 16);
              store64 (v "p" +: ii 8) (ii 0);
              ret0;
            ];
        ]
      ()
  in
  Alcotest.(check bool) "rooted through arith" true (has_rule "uncovered-store" fs);
  (* loads break the root: pointers read out of memory are the
     runtime's problem, not this pass's *)
  let fs =
    capflow
      ~slots:[ ("t.entry", [ "buf" ], "") ]
      ~funcs:
        [
          func "f" [ "buf" ] ~export:"t.entry"
            [ let_ "q" (load64 (v "buf")); store64 (v "q") (ii 0); ret0 ]
        ]
      ()
  in
  Alcotest.(check bool) "load clears root (no store finding)" false
    (has_rule "uncovered-store" fs)

let test_uncovered_indcall () =
  let open Mir.Builder in
  let fs =
    capflow
      ~slots:[ ("t.entry", [ "cb" ], "") ]
      ~funcs:
        [ func "f" [ "cb" ] ~export:"t.entry" [ expr (call_ind (v "cb") []); ret0 ] ]
      ()
  in
  Alcotest.(check bool) "uncovered-indcall" true (has_rule "uncovered-indcall" fs);
  let fs =
    capflow
      ~slots:[ ("t.entry", [ "cb" ], "pre(check(call, cb, 8))") ]
      ~funcs:
        [ func "f" [ "cb" ] ~export:"t.entry" [ expr (call_ind (v "cb") []); ret0 ] ]
      ()
  in
  Alcotest.(check string) "covered indcall" "" (rules fs)

let test_principal_held_store () =
  let open Mir.Builder in
  let fs =
    capflow
      ~slots:[ ("t.entry", [ "sock" ], "principal(sock)") ]
      ~funcs:
        [ func "f" [ "sock" ] ~export:"t.entry" [ store64 (v "sock") (ii 0); ret0 ] ]
      ()
  in
  Alcotest.(check bool) "principal-held-store info" true
    (has_rule "principal-held-store" fs);
  Alcotest.(check int) "no errors" 0 (F.errors fs)

let test_use_after_transfer () =
  let open Mir.Builder in
  let kexports =
    [
      {
        Check.Env.kx_name = "take";
        kx_params = [ "p" ];
        kx_annot = parse "pre(transfer(write, p, 8))";
      };
    ]
  in
  let fs =
    capflow ~kexports
      ~slots:[ ("t.entry", [ "n" ], "") ]
      ~funcs:
        [
          func "f" [ "n" ] ~export:"t.entry"
            [
              alloca "x" 16;
              expr (call_ext "take" [ v "x" ]);
              store64 (v "x") (ii 1);
              ret0;
            ];
        ]
      ()
  in
  Alcotest.(check bool) "use-after-transfer" true (has_rule "use-after-transfer" fs)

let test_over_privilege_and_arity () =
  let open Mir.Builder in
  let fs =
    capflow
      ~slots:[ ("t.entry", [ "buf" ], "pre(copy(write, buf, 8))") ]
      ~funcs:[ func "f" [ "buf" ] ~export:"t.entry" [ ret0 ] ]
      ()
  in
  Alcotest.(check bool) "over-privilege" true (has_rule "over-privilege" fs);
  let fs =
    capflow
      ~slots:[ ("t.entry", [ "a" ], "") ]
      ~funcs:[ func "f" [ "a"; "b" ] ~export:"t.entry" [ ret0 ] ]
      ()
  in
  Alcotest.(check bool) "param-arity" true (has_rule "param-arity" fs)

let test_propagation () =
  let open Mir.Builder in
  let fs =
    capflow ~slots:[]
      ~funcs:[ func "f" [ "a" ] ~export:"no.such" [ ret0 ] ]
      ()
  in
  Alcotest.(check bool) "unknown slot type" true (has_rule "propagation" fs);
  Alcotest.(check bool) "is an error" true (List.exists F.is_error fs)

(* ------------------------------------------------------------------ *)
(* Syscall-flow extraction (apiflow)                                   *)
(* ------------------------------------------------------------------ *)

let flow_kexports names =
  List.map
    (fun n -> { Check.Env.kx_name = n; kx_params = [ "a" ]; kx_annot = parse "" })
    names

let flow_env () =
  let _, env =
    mk_env
      ~kexports:
        (flow_kexports
           [ "kmalloc"; "kfree"; "spin_lock"; "spin_unlock"; "spin_lock_init" ])
      ()
  in
  env

let test_flow_graph_shape () =
  let open Mir.Builder in
  let p =
    prog "m" ~imports:[ "kmalloc"; "kfree" ] ~globals:[]
      ~funcs:
        [
          func "f" [ "n" ]
            [
              let_ "p" (call_ext "kmalloc" [ v "n" ]);
              expr (call_ext "kfree" [ v "p" ]);
              ret0;
            ];
        ]
  in
  let g = Check.Apiflow.extract (flow_env ()) p in
  Alcotest.(check (list string)) "nodes" [ "kfree"; "kmalloc" ] g.Check.Apiflow.g_nodes;
  Alcotest.(check (list string)) "start" [ "kmalloc" ] g.Check.Apiflow.g_start;
  (* (kmalloc, kfree) within the entry; (kfree, kmalloc) across the
     entry boundary (a kernel may re-enter the module) *)
  Alcotest.(check bool) "intra edge" true
    (Check.Apiflow.permits g ~pos:(Some "kmalloc") "kfree");
  Alcotest.(check bool) "boundary edge" true
    (Check.Apiflow.permits g ~pos:(Some "kfree") "kmalloc");
  Alcotest.(check bool) "kfree is not a start" false
    (Check.Apiflow.permits g ~pos:None "kfree");
  Alcotest.(check bool) "no kfree -> kfree edge" false
    (Check.Apiflow.permits g ~pos:(Some "kfree") "kfree");
  Alcotest.(check bool) "has_node" true (Check.Apiflow.has_node g "kmalloc");
  Alcotest.(check bool) "foreign node" false (Check.Apiflow.has_node g "vmalloc")

let test_flow_undefined_callee () =
  let open Mir.Builder in
  let p =
    prog "m" ~imports:[] ~globals:[]
      ~funcs:[ func "f" [ "n" ] [ let_ "x" (call "nope" [ v "n" ]); ret (v "x") ] ]
  in
  let fs = Check.Apiflow.check_module (flow_env ()) p in
  Alcotest.(check bool) "flow-extraction error" true (has_rule "flow-extraction" fs);
  Alcotest.(check bool) "is an error" true (List.exists F.is_error fs)

(* The node set is syntactic: a kernel-export call counts wherever it
   sits ([Positions.all]). *)
let test_flow_node_every_position () =
  let open Mir.Builder in
  List.iter
    (fun (name, at) ->
      let p = Positions.prog_of (at (call_ext "kmalloc" [ ii 8 ])) in
      let g = Check.Apiflow.extract (flow_env ()) p in
      Alcotest.(check bool) name true (List.mem "kmalloc" g.Check.Apiflow.g_nodes))
    Positions.all

(* Extraction soundness on the fuzzer's well-behaved modules: the
   loader self-extracts this graph in Lxfi mode and the
   runtime automaton checks every kernel-API call against it, so any
   false rejection surfaces as a violation outcome in the clean drive.
   Determinism: two independent extractions render byte-identically. *)
let prop_flow_soundness =
  QCheck.Test.make ~count:25
    ~name:"flow graph accepts every clean run; extraction deterministic"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let case = Fuzz.Gen.case_of_rand (Fuzz.Rng.rand (Fuzz.Rng.create ~seed)) in
      let render () =
        Check.Apiflow.render (Check.Apiflow.extract (flow_env ()) case.Fuzz.Gen.c_prog)
      in
      if render () <> render () then
        QCheck.Test.fail_report "extraction is not deterministic";
      (match Fuzz.Harness.clean_sig_under Lxfi.Config.lxfi case with
      | Error m -> QCheck.Test.fail_reportf "setup: %s" m
      | Ok s ->
          List.iter
            (fun (name, o) ->
              match o with
              | Fuzz.Harness.Oviolation k ->
                  QCheck.Test.fail_reportf "%s: clean run rejected as %s" name
                    (Lxfi.Violation.kind_name k)
              | Fuzz.Harness.Oval _ | Fuzz.Harness.Oexn _ -> ())
            s.Fuzz.Harness.s_outcomes);
      true)

(* The prebuilt lookup behind [permits] and [has_node] answers exactly
   what membership in the rendered lists does, over every name a graph
   mentions plus one it does not, on the catalog's graphs and on each
   generated case's graph and its flow-reorder mutant's audited
   counterpart ([Mutate.benign_of]). *)
let lookup_agrees_with_lists (g : Check.Apiflow.graph) =
  let open Check.Apiflow in
  let mem x = List.exists (String.equal x) in
  let names =
    "no_such_kexport"
    :: (g.g_nodes @ g.g_start @ List.concat_map (fun (a, b) -> [ a; b ]) g.g_edges)
  in
  let fail fmt = QCheck.Test.fail_reportf ("module %s: " ^^ fmt) g.g_module in
  List.iter
    (fun k ->
      if has_node g k <> mem k g.g_nodes then fail "has_node %s disagrees" k;
      if permits g ~pos:None k <> mem k g.g_start then fail "start -> %s disagrees" k;
      List.iter
        (fun p ->
          let listed =
            List.exists (fun (a, b) -> String.equal a p && String.equal b k) g.g_edges
          in
          if permits g ~pos:(Some p) k <> listed then fail "%s -> %s disagrees" p k)
        names)
    names

let catalog_graphs =
  lazy
    (Kernel_sim.Klog.quiet ();
     let sys = Kmodules.Ksys.boot Lxfi.Config.lxfi in
     let env = Lxfi.Loader.check_env sys.Kmodules.Ksys.rt in
     List.map
       (fun (spec : Kmodules.Mod_common.spec) ->
         Check.Apiflow.extract env (spec.Kmodules.Mod_common.make sys))
       Kmodules.Catalog.all)

let prop_flow_lookup =
  QCheck.Test.make ~count:50 ~name:"flow lookup equals list membership"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let case = Fuzz.Gen.case_of_rand (Fuzz.Rng.rand (Fuzz.Rng.create ~seed)) in
      let prog = case.Fuzz.Gen.c_prog in
      let mutant = Fuzz.Mutate.apply ~canary_addr:0x1000 Fuzz.Mutate.Flow_reorder prog in
      let env = flow_env () in
      List.iter lookup_agrees_with_lists
        (Lazy.force catalog_graphs
        @ [
            Check.Apiflow.extract env prog;
            Check.Apiflow.extract env (Fuzz.Mutate.benign_of mutant.Fuzz.Mutate.m_prog);
          ]);
      true)

(* ------------------------------------------------------------------ *)
(* Catalog acceptance                                                  *)
(* ------------------------------------------------------------------ *)

let test_catalog_clean () =
  Kernel_sim.Klog.quiet ();
  let r = Workloads.Check_run.check_catalog () in
  Alcotest.(check bool) "shipped corpus has no error findings" false
    (Workloads.Check_run.has_errors r);
  Alcotest.(check int) "all ten modules checked" 10 (List.length r.Workloads.Check_run.r_modules)

let test_broken_demo () =
  Kernel_sim.Klog.quiet ();
  let r = Workloads.Check_run.broken_demo () in
  Alcotest.(check bool) "broken demo has errors" true (Workloads.Check_run.has_errors r);
  let fs = r.Workloads.Check_run.r_summary.Check.Checker.findings in
  List.iter
    (fun rule ->
      Alcotest.(check bool) rule true (has_rule rule fs))
    [ "unknown-param"; "unknown-iterator"; "uncovered-store" ];
  (* the JSON report carries the findings *)
  let json = Workloads.Bench_json.to_string (Workloads.Check_run.to_json r) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json names the rule" true (contains json "uncovered-store");
  Alcotest.(check bool) "json counts errors" true (contains json "\"errors\": 3")

let test_strict_loader () =
  (* Config.strict_check turns checker errors into load errors *)
  Kernel_sim.Klog.quiet ();
  let open Mir.Builder in
  let sys = Kmodules.Ksys.boot { Lxfi.Config.lxfi with Lxfi.Config.strict_check = true } in
  ignore
    (Annot.Registry.define_exn sys.Kmodules.Ksys.rt.Lxfi.Runtime.registry ~name:"strict.entry"
       ~params:[ "buf" ] ~annot_src:"");
  let prog =
    prog "strictmod" ~imports:[] ~globals:[]
      ~funcs:
        [ func "entry" [ "buf" ] ~export:"strict.entry" [ store64 (v "buf") (ii 0); ret0 ] ]
  in
  (match Kmodules.Ksys.load sys prog with
  | exception Lxfi.Loader.Load_error m ->
      Alcotest.(check bool) "message names the check" true
        (String.length m > 0)
  | _ -> Alcotest.fail "strict mode must refuse the module");
  (* same module loads fine without strict checking *)
  let sys2 = Kmodules.Ksys.boot Lxfi.Config.lxfi in
  ignore
    (Annot.Registry.define_exn sys2.Kmodules.Ksys.rt.Lxfi.Runtime.registry ~name:"strict.entry"
       ~params:[ "buf" ] ~annot_src:"");
  ignore (Kmodules.Ksys.load sys2 prog)

let () =
  Alcotest.run "check"
    [
      ( "lint",
        [
          Alcotest.test_case "error rules" `Quick test_lint_errors;
          Alcotest.test_case "warning rules" `Quick test_lint_warnings;
          Alcotest.test_case "transfer-then-use" `Quick test_transfer_then_use;
          Alcotest.test_case "clean annotation" `Quick test_lint_clean;
        ] );
      ( "capflow",
        [
          Alcotest.test_case "uncovered store" `Quick test_uncovered_store;
          Alcotest.test_case "param-rooted arithmetic" `Quick test_param_rooted_arith;
          Alcotest.test_case "uncovered indirect call" `Quick test_uncovered_indcall;
          Alcotest.test_case "principal-held store" `Quick test_principal_held_store;
          Alcotest.test_case "use after transfer" `Quick test_use_after_transfer;
          Alcotest.test_case "over-privilege + arity" `Quick test_over_privilege_and_arity;
          Alcotest.test_case "propagation errors" `Quick test_propagation;
        ] );
      ( "apiflow",
        [
          Alcotest.test_case "graph shape" `Quick test_flow_graph_shape;
          Alcotest.test_case "undefined callee" `Quick test_flow_undefined_callee;
          Alcotest.test_case "node at every position" `Quick test_flow_node_every_position;
          QCheck_alcotest.to_alcotest prop_flow_soundness;
          QCheck_alcotest.to_alcotest prop_flow_lookup;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "catalog checks clean" `Quick test_catalog_clean;
          Alcotest.test_case "broken demo rejected" `Quick test_broken_demo;
          Alcotest.test_case "strict loader gate" `Quick test_strict_loader;
        ] );
    ]
