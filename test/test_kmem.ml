(* Unit tests for the simulated address space. *)

open Kernel_sim

let t () = Kmem.create ()

let test_rw_widths () =
  let m = t () in
  let base = 0x2_0000_0000 in
  List.iter
    (fun (size, v, expect) ->
      Kmem.write m ~addr:base ~size v;
      Alcotest.(check int64)
        (Printf.sprintf "width %d" size)
        expect
        (Kmem.read m ~addr:base ~size))
    [
      (1, 0x1ffL, 0xffL);
      (2, 0x1_ffffL, 0xffffL);
      (4, 0x1_ffff_ffffL, 0xffff_ffffL);
      (8, -1L, -1L);
    ]

let test_little_endian () =
  let m = t () in
  let base = 0x2_0000_0000 in
  Kmem.write m ~addr:base ~size:8 0x1122334455667788L;
  Alcotest.(check int) "low byte first" 0x88 (Kmem.read_u8 m base);
  Alcotest.(check int) "high byte last" 0x11 (Kmem.read_u8 m (base + 7));
  Alcotest.(check int64) "u32 low half" 0x55667788L (Kmem.read m ~addr:base ~size:4)

let test_page_crossing () =
  let m = t () in
  let base = 0x2_0000_0000 + Kmem.page_size - 3 in
  Kmem.write m ~addr:base ~size:8 0xdeadbeefcafebabeL;
  Alcotest.(check int64) "value crosses page boundary" 0xdeadbeefcafebabeL
    (Kmem.read m ~addr:base ~size:8)

let test_null_guard () =
  let m = t () in
  (match Kmem.read m ~addr:0 ~size:8 with
  | exception Kmem.Fault { addr; write = false } ->
      Alcotest.(check bool) "fault inside NULL page" true (addr < 0x1000)
  | _ -> Alcotest.fail "read of NULL must fault");
  match Kmem.write m ~addr:0xfff ~size:1 0L with
  | exception Kmem.Fault { addr = 0xfff; write = true } -> ()
  | _ -> Alcotest.fail "write near NULL must fault"

let test_zero_fill () =
  let m = t () in
  let base = 0x2_0000_0000 in
  Alcotest.(check int64) "fresh memory reads zero" 0L (Kmem.read m ~addr:base ~size:8);
  Kmem.write m ~addr:base ~size:8 5L;
  Kmem.zero m ~addr:base ~len:8;
  Alcotest.(check int64) "zeroed" 0L (Kmem.read m ~addr:base ~size:8)

let test_blit () =
  let m = t () in
  let src = 0x2_0000_0000 and dst = 0x2_0001_0000 in
  Kmem.write_bytes m ~addr:src "api integrity";
  Kmem.blit m ~src ~dst ~len:13;
  Alcotest.(check string) "copied" "api integrity"
    (Bytes.to_string (Kmem.read_bytes m ~addr:dst ~len:13))

let test_bytes_roundtrip () =
  let m = t () in
  let base = 0x3_0000_0000 in
  let s = String.init 300 (fun i -> Char.chr (i mod 256)) in
  Kmem.write_bytes m ~addr:base s;
  Alcotest.(check string) "300-byte blob" s
    (Bytes.to_string (Kmem.read_bytes m ~addr:base ~len:300))

let test_layout_predicates () =
  Alcotest.(check bool) "user addr" true (Kmem.Layout.is_user 0x1000);
  Alcotest.(check bool) "null guard not user" false (Kmem.Layout.is_user 0xfff);
  Alcotest.(check bool) "kernel heap is kernel" true
    (Kmem.Layout.is_kernel Kmem.Layout.kernel_heap_base);
  Alcotest.(check bool) "module area" true
    (Kmem.Layout.is_module_area Kmem.Layout.module_base);
  Alcotest.(check bool) "user not kernel" false (Kmem.Layout.is_kernel 0x2000)

(* Nothing maps memory ahead of use: every page reads zero until its
   first touch, a store straddling two untouched pages materialises
   both, and the NULL guard faults either way. *)
let test_demand_zero () =
  let m = t () in
  List.iter
    (fun (what, addr) ->
      Alcotest.(check int64) (what ^ " reads zero") 0L (Kmem.read m ~addr ~size:8))
    [
      ("heap", Kmem.Layout.kernel_heap_base + 0x1230);
      ("module area", Kmem.Layout.module_base + 0x40);
      ("user", Kmem.Layout.user_base + 0x2000);
    ];
  let seam = Kmem.Layout.kernel_heap_base + (7 * Kmem.page_size) in
  Kmem.write m ~addr:(seam - 4) ~size:8 0x0102030405060708L;
  Alcotest.(check int64) "straddling write reads back" 0x0102030405060708L
    (Kmem.read m ~addr:(seam - 4) ~size:8);
  Alcotest.(check int) "high half on the second page" 0x04 (Kmem.read_u8 m seam);
  Alcotest.(check int64) "bytes around it still zero" 0L
    (Int64.logor
       (Kmem.read m ~addr:(seam - 12) ~size:8)
       (Kmem.read m ~addr:(seam + 4) ~size:8));
  (match Kmem.read m ~addr:0x10 ~size:8 with
  | exception Kmem.Fault { write = false; _ } -> ()
  | _ -> Alcotest.fail "read of the NULL page must fault");
  match Kmem.write m ~addr:0x10 ~size:8 1L with
  | exception Kmem.Fault { write = true; _ } -> ()
  | _ -> Alcotest.fail "write to the NULL page must fault"

let () =
  Alcotest.run "kmem"
    [
      ( "memory",
        [
          Alcotest.test_case "read/write widths" `Quick test_rw_widths;
          Alcotest.test_case "little endian" `Quick test_little_endian;
          Alcotest.test_case "page crossing" `Quick test_page_crossing;
          Alcotest.test_case "NULL guard faults" `Quick test_null_guard;
          Alcotest.test_case "zero fill" `Quick test_zero_fill;
          Alcotest.test_case "blit" `Quick test_blit;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "layout predicates" `Quick test_layout_predicates;
          Alcotest.test_case "demand-zero pages" `Quick test_demand_zero;
        ] );
    ]
