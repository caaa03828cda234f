(* Tests pinning the Figure 11 microbenchmark shapes. *)

open Workloads

let results = lazy (Microbench.all ~iters:100 ())
let results_noopt = lazy (Microbench.all ~iters:100 ~config_lxfi:Lxfi.Config.lxfi_noopt ())

let get l name = List.find (fun r -> r.Microbench.b_name = name) (Lazy.force l)

let test_results_agree_across_modes () =
  (* Microbench.run itself asserts stock/lxfi output equality; getting
     results at all is the test, plus sanity on the values. *)
  List.iter
    (fun (r : Microbench.result) ->
      Alcotest.(check bool)
        (r.Microbench.b_name ^ " ran")
        true
        (r.Microbench.b_stock_cycles > 0 && r.Microbench.b_lxfi_cycles > 0))
    (Lazy.force results)

let test_hotlist_negligible () =
  let r = get results "hotlist" in
  Alcotest.(check bool)
    (Printf.sprintf "hotlist slowdown %.1f%% < 5%%" (100. *. r.Microbench.b_slowdown))
    true
    (r.Microbench.b_slowdown < 0.05)

let test_md5_small_with_elision () =
  let r = get results "MD5" in
  Alcotest.(check bool)
    (Printf.sprintf "MD5 slowdown %.1f%% < 5%%" (100. *. r.Microbench.b_slowdown))
    true
    (r.Microbench.b_slowdown < 0.05)

let test_md5_large_without_elision () =
  let w = get results "MD5" and wo = get results_noopt "MD5" in
  Alcotest.(check bool)
    (Printf.sprintf "no-opt MD5 %.0f%% much worse than %.0f%%"
       (100. *. wo.Microbench.b_slowdown)
       (100. *. w.Microbench.b_slowdown))
    true
    (wo.Microbench.b_slowdown > 10. *. (w.Microbench.b_slowdown +. 0.01))

let test_lld_moderate_with_inlining () =
  let w = get results "lld" and wo = get results_noopt "lld" in
  Alcotest.(check bool) "lld slowdown moderate (<60%)" true
    (w.Microbench.b_slowdown < 0.60);
  Alcotest.(check bool) "no-opt lld at least 2x worse" true
    (wo.Microbench.b_slowdown > 2. *. w.Microbench.b_slowdown)

let test_code_size_ratios () =
  List.iter
    (fun (r : Microbench.result) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s code ratio %.2f in [1.0, 1.5]" r.Microbench.b_name
           r.Microbench.b_code_ratio)
        true
        (r.Microbench.b_code_ratio >= 1.0 && r.Microbench.b_code_ratio <= 1.5))
    (Lazy.force results)

let test_ordering_matches_paper () =
  (* paper ordering: hotlist <= MD5 < lld *)
  let h = get results "hotlist" and m = get results "MD5" and l = get results "lld" in
  Alcotest.(check bool) "lld is the worst" true
    (l.Microbench.b_slowdown > m.Microbench.b_slowdown
    && l.Microbench.b_slowdown > h.Microbench.b_slowdown)

let test_divergence_detected () =
  (* a benchmark whose instrumented result differs must be reported *)
  Alcotest.(check bool) "equality enforced by harness" true
    (try
       ignore (Microbench.run "hotlist" Microbench.hotlist_prog ~iters:10);
       true
     with Invalid_argument _ -> false)

let () =
  Kernel_sim.Klog.quiet ();
  Alcotest.run "microbench"
    [
      ( "figure 11",
        [
          Alcotest.test_case "all run + agree" `Quick test_results_agree_across_modes;
          Alcotest.test_case "hotlist ~0%" `Quick test_hotlist_negligible;
          Alcotest.test_case "MD5 small (elision)" `Quick test_md5_small_with_elision;
          Alcotest.test_case "MD5 large without elision" `Quick
            test_md5_large_without_elision;
          Alcotest.test_case "lld moderate (inlining)" `Quick
            test_lld_moderate_with_inlining;
          Alcotest.test_case "code size ratios" `Quick test_code_size_ratios;
          Alcotest.test_case "ordering" `Quick test_ordering_matches_paper;
          Alcotest.test_case "divergence detection" `Quick test_divergence_detected;
        ] );
    ]
