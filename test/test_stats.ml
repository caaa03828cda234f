(* Stats.all is the one list of guard counters that snapshot, since,
   pp and the JSON are derived from.  These checks pin it to the
   record: one row per field, unique names, each row reading and
   writing its own field, and pp naming every row once.  A counter
   added to Stats.t without its [all] row fails the first check. *)

open Lxfi

let n_counters = List.length Stats.all
let names = List.map (fun c -> c.Stats.name) Stats.all

(* A bump plan: for each counter, a baseline count (applied before the
   snapshot) and a delta count (applied after).  [since] must see the
   delta alone, and the live record baseline + delta. *)
let arb_plan =
  QCheck.make
    ~print:(fun l ->
      String.concat "; "
        (List.map2 (fun name (b, d) -> Printf.sprintf "%s:%d+%d" name b d) names l))
    QCheck.Gen.(list_repeat n_counters (pair (int_bound 20) (int_bound 20)))

let apply t plan pick =
  List.iter2 (fun c bd -> c.Stats.set t (c.Stats.get t + pick bd)) Stats.all plan

let prop_since_roundtrip =
  QCheck.Test.make ~count:200 ~name:"stats since = post - pre over every counter"
    arb_plan (fun plan ->
      let t = Stats.create () in
      apply t plan fst;
      let s0 = Stats.snapshot t in
      apply t plan snd;
      let d = Stats.since t s0 in
      List.for_all2
        (fun c (base, delta) ->
          c.Stats.get d = delta && c.Stats.get t = base + delta && c.Stats.get s0 = base)
        Stats.all plan)

let prop_snapshot_of_fresh_is_zero =
  QCheck.Test.make ~count:50 ~name:"stats snapshot of fresh t is all-zero"
    arb_plan (fun plan ->
      let t = Stats.create () in
      let s = Stats.snapshot t in
      apply t plan fst;
      List.for_all (fun c -> c.Stats.get s = 0) Stats.all)

(* Every field of Stats.t is an int, so the record's block size is its
   field count. *)
let test_counter_coverage () =
  Alcotest.(check int) "one row per field of Stats.t"
    (Obj.size (Obj.repr (Stats.create ())))
    n_counters;
  Alcotest.(check int) "names are unique" n_counters
    (List.length (List.sort_uniq compare names))

let test_set_own_counter () =
  List.iter
    (fun c ->
      let t = Stats.create () in
      c.Stats.set t 7;
      List.iter
        (fun c' ->
          Alcotest.(check int)
            (Printf.sprintf "set %s, get %s" c.Stats.name c'.Stats.name)
            (if c' == c then 7 else 0)
            (c'.Stats.get t))
        Stats.all)
    Stats.all

let test_pp_names () =
  let printed = Fmt.str "%a" Stats.pp (Stats.create ()) in
  let fields =
    Scanf.sscanf printed "guards{%[^}]}%!" Fun.id
    |> String.split_on_char ';'
    |> List.map (fun f -> List.hd (String.split_on_char '=' (String.trim f)))
  in
  Alcotest.(check (list string)) "every name once, in order" names fields

(* ---- violation-kind exhaustiveness guard ---------------------------

   Every [Violation.kind] must be threaded through four places: the
   [all_kinds] enumeration, the [kind_name]/[kind_of_name] pair, a
   [counter_row] decision whose title exists as a Figure 13 row, and
   [to_diag]'s rendering.  The matches below are wildcard-free and
   warning 8 is an error in the dev profile, so adding a kind breaks
   this test's build outright; the assertions then catch each way the
   fix could stay incomplete. *)

let ordinal : Violation.kind -> int = function
  | Violation.Write_denied -> 0
  | Violation.Call_denied -> 1
  | Violation.Ref_denied -> 2
  | Violation.Cap_not_owned -> 3
  | Violation.Annot_mismatch -> 4
  | Violation.Shadow_stack -> 5
  | Violation.Principal_denied -> 6
  | Violation.Watchdog_expired -> 7
  | Violation.Flow_violation -> 8

(* bump together with the new [ordinal] arm *)
let n_kinds =
  match Violation.Write_denied with
  | Violation.Write_denied | Violation.Call_denied | Violation.Ref_denied
  | Violation.Cap_not_owned | Violation.Annot_mismatch | Violation.Shadow_stack
  | Violation.Principal_denied | Violation.Watchdog_expired
  | Violation.Flow_violation ->
      9

let test_kind_enumeration () =
  Alcotest.(check int) "all_kinds lists every constructor" n_kinds
    (List.length Violation.all_kinds);
  Alcotest.(check (list int))
    "all_kinds in declaration order, no duplicates"
    (List.init n_kinds Fun.id)
    (List.map ordinal Violation.all_kinds);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Violation.kind_name k ^ " round-trips through kind_of_name")
        true
        (Violation.kind_of_name (Violation.kind_name k) = Some k))
    Violation.all_kinds

let test_kind_counter_rows () =
  let rows, _ = Workloads.Netperf_sim.figure13 ~pkts:100 () in
  let titles = List.map (fun g -> g.Workloads.Netperf_sim.g_type) rows in
  List.iter
    (fun k ->
      let row = Violation.counter_row k in
      Alcotest.(check bool)
        (Printf.sprintf "%s accounted under Figure 13 row %S"
           (Violation.kind_name k) row)
        true (List.mem row titles))
    Violation.all_kinds

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_kind_diag_rendering () =
  List.iter
    (fun k ->
      let d =
        Violation.to_diag
          {
            Violation.v_kind = k;
            v_module = "m";
            v_principal = None;
            v_where = None;
            v_detail = "detail";
          }
      in
      Alcotest.(check bool)
        (Violation.kind_name k ^ " named in its diagnostic")
        true
        (contains ~needle:(Violation.kind_name k) d.Diag.d_message))
    Violation.all_kinds

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_since_roundtrip; prop_snapshot_of_fresh_is_zero ]
  in
  Alcotest.run "stats"
    [
      ("roundtrip", qsuite);
      ( "coverage",
        [
          Alcotest.test_case "every counter covered" `Quick test_counter_coverage;
          Alcotest.test_case "set touches only its own counter" `Quick test_set_own_counter;
          Alcotest.test_case "pp names every counter once" `Quick test_pp_names;
        ] );
      ( "kinds",
        [
          Alcotest.test_case "enumeration + name round-trip" `Quick test_kind_enumeration;
          Alcotest.test_case "every kind has a Figure 13 row" `Quick test_kind_counter_rows;
          Alcotest.test_case "every kind renders in diagnostics" `Quick
            test_kind_diag_rendering;
        ] );
    ]
