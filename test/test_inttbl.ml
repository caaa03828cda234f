(* Kernel_sim.Inttbl against the standard library's Hashtbl.Make over
   the same hash (Inttbl_ref): the same answers, the same length and
   the same fold order after every operation.  The fold order is what
   keeps the snapshots and reports that read a table byte-identical. *)

open Kernel_sim

type op =
  | Add of int * int
  | Replace of int * int
  | Remove of int
  | Find of int
  | Find_opt of int
  | Find_or of int
  | Mem of int
  | Fold
  | Fold_changing of (int * int option) list
      (** a fold that, at its first binding, replaces each key with
          [Some v] and removes each key with [None] *)
  | Reset

(* Small ints, and page indexes and addresses of every Kmem region: the
   regions differ only above bit 20 of a page index. *)
let regions =
  Kmem.Layout.[ user_base; kernel_text_base; kernel_heap_base; kernel_stack_base; module_base ]

let gen_key =
  QCheck.Gen.(
    frequency
      [
        (1, int_range (-16) 63);
        (3, map2 (fun base k -> (base lsr 12) + k) (oneofl regions) (int_bound 127));
        (2, map2 (fun base k -> base + (16 * k)) (oneofl regions) (int_bound 127));
      ])

let gen_op =
  QCheck.Gen.(
    let kv f = map2 f gen_key (int_bound 999) and change = pair gen_key (opt (int_bound 999)) in
    frequency
      [
        (120, kv (fun k v -> Add (k, v)));
        (200, kv (fun k v -> Replace (k, v)));
        (60, map (fun k -> Remove k) gen_key);
        (30, map (fun k -> Find k) gen_key);
        (30, map (fun k -> Find_opt k) gen_key);
        (30, map (fun k -> Find_or k) gen_key);
        (30, map (fun k -> Mem k) gen_key);
        (5, return Fold);
        (5, map (fun l -> Fold_changing l) (list_size (int_bound 80) change));
        (1, return Reset);
      ])

let show_op = function
  | Add (k, v) -> Printf.sprintf "Add(0x%x,%d)" k v
  | Replace (k, v) -> Printf.sprintf "Replace(0x%x,%d)" k v
  | Remove k -> Printf.sprintf "Remove 0x%x" k
  | Find k -> Printf.sprintf "Find 0x%x" k
  | Find_opt k -> Printf.sprintf "Find_opt 0x%x" k
  | Find_or k -> Printf.sprintf "Find_or 0x%x" k
  | Mem k -> Printf.sprintf "Mem 0x%x" k
  | Fold -> "Fold"
  | Fold_changing l ->
      Printf.sprintf "Fold_changing [%s]"
        (String.concat "; "
           (List.map
              (function
                | k, Some v -> Printf.sprintf "0x%x:=%d" k v | k, None -> Printf.sprintf "-0x%x" k)
              l))
  | Reset -> "Reset"

(* The bindings a fold visits, in visiting order, applying [changes] at
   the first one. *)
let fold_changing ~fold ~replace ~remove changes =
  let first = ref true in
  List.rev
    (fold
       (fun k v acc ->
         if !first then begin
           first := false;
           List.iter (function k, Some v -> replace k v | k, None -> remove k) changes
         end;
         (k, v) :: acc)
       [])

let bindings t = List.rev (Inttbl.fold (fun k v acc -> (k, v) :: acc) t [])
let bindings_ref r = List.rev (Inttbl_ref.fold (fun k v acc -> (k, v) :: acc) r [])

let catch f = match f () with v -> Some v | exception Not_found -> None

(* Run [ops] on both tables, created with [init]; [false] at the first
   answer, length or fold order that differs. *)
let agree init ops =
  let t = Inttbl.create init and r = Inttbl_ref.create init in
  List.for_all
    (fun op ->
      let same =
        match op with
        | Add (k, v) ->
            Inttbl.add t k v;
            Inttbl_ref.add r k v;
            true
        | Replace (k, v) ->
            Inttbl.replace t k v;
            Inttbl_ref.replace r k v;
            true
        | Remove k ->
            Inttbl.remove t k;
            Inttbl_ref.remove r k;
            true
        | Find k -> catch (fun () -> Inttbl.find t k) = catch (fun () -> Inttbl_ref.find r k)
        | Find_opt k -> Inttbl.find_opt t k = Inttbl_ref.find_opt r k
        | Find_or k ->
            Inttbl.find_or t k ~default:(-1) = Option.value ~default:(-1) (Inttbl_ref.find_opt r k)
        | Mem k -> Inttbl.mem t k = Inttbl_ref.mem r k
        | Fold -> bindings t = bindings_ref r
        | Fold_changing changes ->
            fold_changing ~fold:(fun f -> Inttbl.fold f t) ~replace:(Inttbl.replace t)
              ~remove:(Inttbl.remove t) changes
            = fold_changing ~fold:(fun f -> Inttbl_ref.fold f r) ~replace:(Inttbl_ref.replace r)
                ~remove:(Inttbl_ref.remove r) changes
        | Reset ->
            Inttbl.reset t;
            Inttbl_ref.reset r;
            true
      in
      same && Inttbl.length t = Inttbl_ref.length r)
    ops
  && bindings t = bindings_ref r

let arb_run =
  QCheck.make
    ~print:(fun (init, ops) ->
      Printf.sprintf "create %d: %s" init (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(pair (int_bound 100) (list_size (int_range 1 1500) gen_op))

let prop_agrees =
  QCheck.Test.make ~count:200 ~name:"inttbl = Hashtbl.Make (answers, length, fold order)" arb_run
    (fun (init, ops) -> agree init ops)

(* Deterministic companions of the property: growth from 16 buckets to
   2,048 (seven doublings) with keys from every region, a fold that
   grows the table under itself, and a reset after growth. *)
let region_keys n =
  List.init n (fun i ->
      let base = List.nth regions (i mod List.length regions) in
      if i mod 2 = 0 then (base lsr 12) + (i / 10) else base + (16 * (i / 10)))

let test_growth () =
  let ops =
    List.concat
      (List.mapi
         (fun i k ->
           let op = if i mod 3 = 0 then Add (k, i) else Replace (k, i) in
           if i mod 50 = 0 then [ op; Fold ] else [ op ])
         (region_keys 3000))
  in
  Alcotest.(check bool) "3,000 keys agree" true (agree 0 ops)

let test_fold_while_growing () =
  let keys = region_keys 100 in
  let grow = List.map (fun k -> (k + 1, Some k)) (region_keys 200) in
  let ops = List.map (fun k -> Replace (k, k land 0xfff)) keys @ [ Fold_changing grow; Fold ] in
  Alcotest.(check bool) "a fold that doubles the table agrees" true (agree 16 ops)

let test_reset_after_growth () =
  let keys = region_keys 500 in
  let fill = List.map (fun k -> Replace (k, k land 0xff)) keys in
  Alcotest.(check bool) "refilled after reset" true (agree 32 (fill @ [ Reset ] @ fill @ [ Fold ]))

let test_find_or () =
  let t = Inttbl.create 0 in
  Alcotest.(check int) "miss" 7 (Inttbl.find_or t 3 ~default:7);
  Inttbl.add t 3 1;
  Inttbl.add t 3 2;
  Alcotest.(check int) "most recent binding" 2 (Inttbl.find_or t 3 ~default:7);
  Inttbl.remove t 3;
  Alcotest.(check int) "hidden binding back" 1 (Inttbl.find_or t 3 ~default:7);
  Alcotest.check_raises "find raises" Not_found (fun () -> ignore (Inttbl.find t 4))

let () =
  Alcotest.run "inttbl"
    [
      ( "reference",
        [
          Alcotest.test_case "growth across regions" `Quick test_growth;
          Alcotest.test_case "fold while growing" `Quick test_fold_while_growing;
          Alcotest.test_case "reset after growth" `Quick test_reset_after_growth;
          Alcotest.test_case "find_or" `Quick test_find_or;
          QCheck_alcotest.to_alcotest prop_agrees;
        ] );
    ]
