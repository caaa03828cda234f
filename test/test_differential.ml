(* Differential testing: for randomly generated *well-behaved* modules
   (stores confined to memory they legitimately own, bounded loops),
   the full LXFI pipeline — rewriter, loader, wrappers, guards — must
   be semantically invisible: same outcomes and same final memory as a
   stock run.

   The generator is the shared one in [Fuzz.Gen] (the same definition
   `lxfi_sim fuzz` mutates into attack variants), exercised here
   through qcheck so failures shrink and print as MIR.  The oracle is
   [Fuzz.Harness], whose clean battery also covers the de-optimized
   config, the static checker and trace reconciliation. *)

open Kernel_sim

let gen_case = Fuzz.Gen.of_random_state ()

let arb_case =
  QCheck.make ~print:(fun (c : Fuzz.Gen.case) -> Mir.Printer.to_string c.Fuzz.Gen.c_prog) gen_case

(* The full clean-oracle battery: stock = lxfi = de-optimized lxfi on
   every drive outcome and on final arena/buffer memory, zero static
   findings, and (traced) cycle totals that reconcile. *)
let prop_clean_oracles =
  QCheck.Test.make ~count:200 ~name:"clean oracles hold on well-behaved modules" arb_case
    (fun case ->
      match Fuzz.Harness.clean_failure case with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* XFI mode (segment confinement without API integrity) must agree with
   stock on well-behaved modules too — it is not part of the fuzz
   campaign's battery, so pin it here. *)
let prop_xfi_agrees =
  QCheck.Test.make ~count:100 ~name:"xfi mode agrees too" arb_case (fun case ->
      match
        ( Fuzz.Harness.clean_sig_under Lxfi.Config.stock case,
          Fuzz.Harness.clean_sig_under Lxfi.Config.xfi case )
      with
      | Ok stock, Ok xfi -> (
          match Fuzz.Harness.diff_sigs ~la:"stock" ~lb:"xfi" stock xfi with
          | None -> true
          | Some d -> QCheck.Test.fail_report d)
      | Error m, _ | _, Error m -> QCheck.Test.fail_report ("setup: " ^ m))

let () =
  Klog.quiet ();
  Alcotest.run "differential"
    [
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest [ prop_clean_oracles; prop_xfi_agrees ] );
    ]
