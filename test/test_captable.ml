(* Unit tests for the capability tables, including the paper's
   page-masked multi-slot WRITE representation. *)

open Lxfi

let test_write_basic () =
  let t = Captable.create () in
  Captable.add_write t ~base:0x1000 ~size:64;
  Alcotest.(check bool) "exact range" true (Captable.has_write t ~addr:0x1000 ~size:64);
  Alcotest.(check bool) "interior byte" true (Captable.has_write t ~addr:0x1020 ~size:1);
  Alcotest.(check bool) "suffix" true (Captable.has_write t ~addr:0x1030 ~size:16);
  Alcotest.(check bool) "one past end" false (Captable.has_write t ~addr:0x1040 ~size:1);
  Alcotest.(check bool) "straddles end" false (Captable.has_write t ~addr:0x1030 ~size:32);
  Alcotest.(check bool) "before" false (Captable.has_write t ~addr:0xfff ~size:1)

let test_write_spanning_pages () =
  let t = Captable.create () in
  (* range covering three pages: must be found from any page's slot *)
  Captable.add_write t ~base:0x3ff0 ~size:0x2020;
  Alcotest.(check bool) "first page" true (Captable.has_write t ~addr:0x3ff0 ~size:8);
  Alcotest.(check bool) "middle page" true (Captable.has_write t ~addr:0x4800 ~size:8);
  Alcotest.(check bool) "last page" true (Captable.has_write t ~addr:0x6000 ~size:8);
  Alcotest.(check bool) "cross-page access inside" true
    (Captable.has_write t ~addr:0x4ffc ~size:8);
  Alcotest.(check int) "one distinct entry" 1 (Captable.write_count t)

let test_write_removal_spanning () =
  let t = Captable.create () in
  Captable.add_write t ~base:0x3ff0 ~size:0x2020;
  let removed = Captable.remove_write_intersecting t ~base:0x5000 ~size:8 in
  Alcotest.(check int) "removed once" 1 removed;
  Alcotest.(check bool) "gone from every slot" false
    (Captable.has_write t ~addr:0x3ff0 ~size:8);
  Alcotest.(check int) "count zero" 0 (Captable.write_count t)

let test_write_intersecting_removal () =
  let t = Captable.create () in
  Captable.add_write t ~base:0x1000 ~size:64;
  Captable.add_write t ~base:0x1100 ~size:64;
  let removed = Captable.remove_write_intersecting t ~base:0x1020 ~size:8 in
  Alcotest.(check int) "only overlapping entry removed" 1 removed;
  Alcotest.(check bool) "other survives" true (Captable.has_write t ~addr:0x1100 ~size:64)

let test_write_idempotent_insert () =
  let t = Captable.create () in
  Captable.add_write t ~base:0x1000 ~size:64;
  Captable.add_write t ~base:0x1000 ~size:64;
  Alcotest.(check int) "no duplicate" 1 (Captable.write_count t)

let test_big_range () =
  let t = Captable.create () in
  let base = 0x1000 and size = 0x8000_0000 - 0x1000 in
  (* a 2 GB blanket must not take 500k insertions *)
  let t0 = Unix.gettimeofday () in
  Captable.add_write t ~base ~size;
  Alcotest.(check bool) "fast insert" true (Unix.gettimeofday () -. t0 < 0.05);
  Alcotest.(check bool) "covers low" true (Captable.has_write t ~addr:0x2000 ~size:8);
  Alcotest.(check bool) "covers high" true
    (Captable.has_write t ~addr:0x7fff_0000 ~size:8);
  Alcotest.(check bool) "not beyond" false
    (Captable.has_write t ~addr:0x8000_0000 ~size:8);
  (* small revocations inside must NOT strip the blanket *)
  ignore (Captable.remove_write_intersecting t ~base:0x2000 ~size:64);
  Alcotest.(check bool) "blanket survives small revoke" true
    (Captable.has_write t ~addr:0x2000 ~size:8);
  (* full-range revocation does remove it *)
  ignore (Captable.remove_write_intersecting t ~base:0 ~size:0x9000_0000);
  Alcotest.(check bool) "blanket removable" false
    (Captable.has_write t ~addr:0x2000 ~size:8)

let test_zero_length_ranges () =
  let t = Captable.create () in
  (* empty grants are a caller bug, not a silent no-op capability *)
  Alcotest.check_raises "size 0 rejected" (Invalid_argument "Captable.add_write: size <= 0")
    (fun () -> Captable.add_write t ~base:0x1000 ~size:0);
  (try Captable.add_write t ~base:0x1000 ~size:(-8) with Invalid_argument _ -> ());
  Alcotest.(check int) "nothing inserted" 0 (Captable.write_count t);
  (* revoking an empty range removes nothing *)
  Captable.add_write t ~base:0x1000 ~size:64;
  Alcotest.(check int) "empty revoke is a no-op" 0
    (Captable.remove_write_intersecting t ~base:0x1000 ~size:0);
  Alcotest.(check bool) "grant survives" true (Captable.has_write t ~addr:0x1000 ~size:64)

let test_exactly_adjacent_ranges () =
  let t = Captable.create () in
  (* two abutting grants: each side covered, but a single access
     straddling the seam is not — capabilities do not coalesce *)
  Captable.add_write t ~base:0x1000 ~size:0x40;
  Captable.add_write t ~base:0x1040 ~size:0x40;
  Alcotest.(check bool) "left suffix" true (Captable.has_write t ~addr:0x1038 ~size:8);
  Alcotest.(check bool) "right prefix" true (Captable.has_write t ~addr:0x1040 ~size:8);
  Alcotest.(check bool) "seam-straddling access denied" false
    (Captable.has_write t ~addr:0x1038 ~size:16);
  (* revoking the left entry must not disturb its neighbour *)
  Alcotest.(check int) "left revoked" 1
    (Captable.remove_write_intersecting t ~base:0x1000 ~size:0x40);
  Alcotest.(check bool) "right intact" true (Captable.has_write t ~addr:0x1040 ~size:0x40)

let test_page_boundary_writes () =
  let t = Captable.create () in
  (* a grant ending exactly on a page boundary grants nothing beyond *)
  Captable.add_write t ~base:0xff8 ~size:8;
  Alcotest.(check bool) "covers to the edge" true (Captable.has_write t ~addr:0xff8 ~size:8);
  Alcotest.(check bool) "next page excluded" false (Captable.has_write t ~addr:0x1000 ~size:1);
  (* a grant straddling a page boundary admits the straddling write,
     from the slot of either page *)
  Captable.add_write t ~base:0x1ff0 ~size:0x20;
  Alcotest.(check bool) "write across the boundary" true
    (Captable.has_write t ~addr:0x1ffc ~size:8);
  Alcotest.(check bool) "tail on second page" true (Captable.has_write t ~addr:0x2008 ~size:8);
  Alcotest.(check bool) "past the grant" false (Captable.has_write t ~addr:0x2010 ~size:1)

let test_revoke_inside_covering_range () =
  let t = Captable.create () in
  (* revocation granularity is the whole entry: an interior revoke
     (kfree of an interior pointer, transfer-back of a sub-buffer)
     strips the full grant rather than splitting it *)
  Captable.add_write t ~base:0x1000 ~size:0x40;
  Alcotest.(check int) "interior revoke hits the entry" 1
    (Captable.remove_write_intersecting t ~base:0x1010 ~size:8);
  Alcotest.(check bool) "prefix gone" false (Captable.has_write t ~addr:0x1000 ~size:8);
  Alcotest.(check bool) "suffix gone" false (Captable.has_write t ~addr:0x1020 ~size:8);
  Alcotest.(check int) "count zero" 0 (Captable.write_count t)

(* Single-address queries, as the writer-set check asks them: the
   address is covered, and by the one entry that was granted. *)
let test_find_covering () =
  let t = Captable.create () in
  Captable.add_write t ~base:0x1000 ~size:64;
  Alcotest.(check bool) "covers" true (Captable.has_write t ~addr:0x1010 ~size:1);
  Alcotest.(check (list (pair int int)))
    "entry base" [ (0x1000, 64) ]
    (Captable.fold_writes t (fun acc ~base ~size -> (base, size) :: acc) []);
  Alcotest.(check bool) "miss" false (Captable.has_write t ~addr:0x2000 ~size:1)

let test_call_refs () =
  let t = Captable.create () in
  Captable.add_call t ~target:0x4000;
  Alcotest.(check bool) "call present" true (Captable.has_call t ~target:0x4000);
  Alcotest.(check bool) "other absent" false (Captable.has_call t ~target:0x4001);
  Captable.remove_call t ~target:0x4000;
  Alcotest.(check bool) "call removed" false (Captable.has_call t ~target:0x4000);
  Captable.add_ref t ~rtype:"pci_dev" ~addr:0x5000;
  Alcotest.(check bool) "ref present" true (Captable.has_ref t ~rtype:"pci_dev" ~addr:0x5000);
  Alcotest.(check bool) "type matters" false
    (Captable.has_ref t ~rtype:"net_device" ~addr:0x5000);
  Captable.remove_ref t ~rtype:"pci_dev" ~addr:0x5000;
  Alcotest.(check bool) "ref removed" false
    (Captable.has_ref t ~rtype:"pci_dev" ~addr:0x5000)

let test_fold_writes () =
  let t = Captable.create () in
  Captable.add_write t ~base:0x1000 ~size:0x3000 (* spans pages *);
  Captable.add_write t ~base:0x9000 ~size:16;
  let n = Captable.fold_writes t (fun acc ~base:_ ~size:_ -> acc + 1) 0 in
  Alcotest.(check int) "distinct entries folded once" 2 n

(* The one-entry "last covering range" cache on the guard-write fast
   path must be invisible: under any interleaving of grants, revokes
   and clears, the cached [has_write] answers exactly as the uncached
   scan.  The generator works a small page universe so ranges collide,
   straddle page boundaries, and occasionally exceed [big_range_pages]
   (landing on the blanket list). *)

type cop = Add of int * int | Remove of int * int | Clear | Query of int * int

let gen_cop =
  QCheck.Gen.(
    let page = 0x1000 in
    let addr = map (fun a -> page + (a * 8)) (int_bound (8 * page / 8)) in
    let small_size = map (fun s -> 1 + s) (int_bound (2 * page)) in
    let big_size =
      map (fun s -> (Lxfi.Captable.big_range_pages + s) * page) (int_bound 8)
    in
    frequency
      [
        (5, map2 (fun a s -> Add (a, s)) addr small_size);
        (1, map2 (fun a s -> Add (a, s)) addr big_size);
        (3, map2 (fun a s -> Remove (a, s)) addr small_size);
        (1, return Clear);
        (6, map2 (fun a s -> Query (a, s)) addr small_size);
      ])

let show_cop = function
  | Add (a, s) -> Printf.sprintf "Add(0x%x,%d)" a s
  | Remove (a, s) -> Printf.sprintf "Remove(0x%x,%d)" a s
  | Clear -> "Clear"
  | Query (a, s) -> Printf.sprintf "Query(0x%x,%d)" a s

let arb_cops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map show_cop l))
    QCheck.Gen.(list_size (int_bound 80) gen_cop)

let prop_write_cache_transparent =
  QCheck.Test.make ~count:500 ~name:"write cache = uncached has_write" arb_cops
    (fun ops ->
      let t = Captable.create () in
      List.for_all
        (function
          | Add (base, size) ->
              Captable.add_write t ~base ~size;
              true
          | Remove (base, size) ->
              ignore (Captable.remove_write_intersecting t ~base ~size);
              true
          | Clear ->
              Captable.clear t;
              true
          | Query (addr, size) ->
              let uncached = Captable.has_write_uncached t ~addr ~size in
              (* query twice: the first may fill the cache, the second
                 must answer from it — both must agree with the scan *)
              Captable.has_write t ~addr ~size = uncached
              && Captable.has_write t ~addr ~size = uncached)
        ops)

let () =
  Alcotest.run "captable"
    [
      ( "write",
        [
          Alcotest.test_case "coverage" `Quick test_write_basic;
          Alcotest.test_case "page spanning" `Quick test_write_spanning_pages;
          Alcotest.test_case "spanning removal" `Quick test_write_removal_spanning;
          Alcotest.test_case "intersecting removal" `Quick test_write_intersecting_removal;
          Alcotest.test_case "idempotent insert" `Quick test_write_idempotent_insert;
          Alcotest.test_case "big (user) ranges" `Quick test_big_range;
          Alcotest.test_case "zero-length ranges" `Quick test_zero_length_ranges;
          Alcotest.test_case "exactly-adjacent ranges" `Quick test_exactly_adjacent_ranges;
          Alcotest.test_case "page-boundary writes" `Quick test_page_boundary_writes;
          Alcotest.test_case "revoke inside covering range" `Quick
            test_revoke_inside_covering_range;
          Alcotest.test_case "find covering" `Quick test_find_covering;
        ] );
      ( "call/ref",
        [
          Alcotest.test_case "call + ref tables" `Quick test_call_refs;
          Alcotest.test_case "fold distinct" `Quick test_fold_writes;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_write_cache_transparent ]);
    ]
