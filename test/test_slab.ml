(* Unit tests for the SLUB-style allocator — especially the properties
   the CAN BCM exploit depends on: size-class rounding, adjacency
   within a class, and LIFO reuse of freed objects. *)

open Kernel_sim

let mk () =
  let mem = Kmem.create () in
  let cycles = Kcycles.create () in
  Slab.create mem cycles

(* Every request size up to one past the largest class: the usable size
   is the first class at least that size, and a freed object goes back
   to that class (the next request of the size takes it again).  Larger
   requests round up to whole pages. *)
let test_size_class_rounding () =
  let classes = [ 16; 32; 64; 96; 128; 192; 256; 512; 1024; 2048; 4096 ] in
  let pages size = (size + Kmem.page_size - 1) / Kmem.page_size * Kmem.page_size in
  let s = mk () in
  for size = 1 to 4097 do
    let want =
      match List.find_opt (fun c -> c >= size) classes with Some c -> c | None -> pages size
    in
    let a = Slab.kmalloc s size in
    Alcotest.(check int) (Printf.sprintf "request %d" size) want (Slab.usable_size s a);
    Slab.kfree s a;
    let b = Slab.kmalloc s size in
    if want <= 4096 then
      Alcotest.(check int) (Printf.sprintf "request %d reuses its class" size) a b;
    Slab.kfree s b
  done;
  List.iter
    (fun size ->
      Alcotest.(check int) (Printf.sprintf "request %d" size) (pages size)
        (Slab.usable_size s (Slab.kmalloc s size)))
    [ 4097; 8192; 8193; 12289; 65536 ]

let test_adjacency_within_class () =
  let s = mk () in
  let a = Slab.kmalloc s 16 in
  let b = Slab.kmalloc s 16 in
  Alcotest.(check int) "sequential carve is adjacent" (a + 16) b

let test_lifo_reuse () =
  let s = mk () in
  let a = Slab.kmalloc s 16 in
  let _b = Slab.kmalloc s 16 in
  Slab.kfree s a;
  let c = Slab.kmalloc s 16 in
  Alcotest.(check int) "freed slot reused first (LIFO)" a c

let test_different_classes_not_adjacent () =
  let s = mk () in
  let a = Slab.kmalloc s 16 in
  let b = Slab.kmalloc s 64 in
  Alcotest.(check bool) "classes carve from different pages" true (abs (b - a) >= 16)

let test_zeroed_on_alloc () =
  let s = mk () in
  let a = Slab.kmalloc s 32 in
  Kmem.write_u64 s.Slab.mem a 0x4141414141414141L;
  Slab.kfree s a;
  let b = Slab.kmalloc s 32 in
  Alcotest.(check int) "same slot" a b;
  Alcotest.(check int64) "object zeroed on reallocation" 0L (Kmem.read_u64 s.Slab.mem b)

let test_double_free_rejected () =
  let s = mk () in
  let a = Slab.kmalloc s 16 in
  Slab.kfree s a;
  Alcotest.check_raises "double free" (Slab.Bad_free a) (fun () -> Slab.kfree s a)

let test_bad_free_rejected () =
  let s = mk () in
  Alcotest.check_raises "free of non-object" (Slab.Bad_free 0x12345) (fun () ->
      Slab.kfree s 0x12345)

let test_large_allocation () =
  let s = mk () in
  let a = Slab.kmalloc s 10000 in
  Alcotest.(check int) "page-rounded usable size" (3 * Kmem.page_size)
    (Slab.usable_size s a);
  Kmem.write_u8 s.Slab.mem (a + 9999) 7;
  Slab.kfree s a

let test_live_accounting () =
  let s = mk () in
  let a = Slab.kmalloc s 16 and b = Slab.kmalloc s 16 in
  Alcotest.(check int) "two live" 2 (Slab.live_objects s);
  Alcotest.(check bool) "a live" true (Slab.is_live s a);
  Slab.kfree s a;
  Alcotest.(check int) "one live" 1 (Slab.live_objects s);
  Alcotest.(check bool) "a dead" false (Slab.is_live s a);
  Alcotest.(check bool) "b live" true (Slab.is_live s b)

let test_page_boundary_carving () =
  let s = mk () in
  (* 4096/96 = 42 objects + remainder: the 43rd must come from a fresh
     page, never straddling. *)
  let addrs = List.init 60 (fun _ -> Slab.kmalloc s 96) in
  List.iter
    (fun a ->
      let page = a lsr 12 and last_page = (a + 95) lsr 12 in
      Alcotest.(check int) "object within one page" page last_page)
    addrs

let () =
  Alcotest.run "slab"
    [
      ( "allocator",
        [
          Alcotest.test_case "size-class rounding" `Quick test_size_class_rounding;
          Alcotest.test_case "adjacency" `Quick test_adjacency_within_class;
          Alcotest.test_case "LIFO reuse" `Quick test_lifo_reuse;
          Alcotest.test_case "class separation" `Quick test_different_classes_not_adjacent;
          Alcotest.test_case "zero on alloc" `Quick test_zeroed_on_alloc;
          Alcotest.test_case "double free" `Quick test_double_free_rejected;
          Alcotest.test_case "bad free" `Quick test_bad_free_rejected;
          Alcotest.test_case "large allocation" `Quick test_large_allocation;
          Alcotest.test_case "live accounting" `Quick test_live_accounting;
          Alcotest.test_case "page boundary" `Quick test_page_boundary_carving;
        ] );
    ]
