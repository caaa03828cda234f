(* Property-based tests (qcheck) over the core data structures and the
   invariants the paper's security argument rests on. *)

let seeded_count n = n

(* ------------------------------------------------------------------ *)
(* Captable WRITE ranges agree with a naive reference model.            *)
(* ------------------------------------------------------------------ *)

type wop = Add of int * int | Remove of int * int | Query of int * int

let gen_wop =
  QCheck.Gen.(
    let addr = map (fun a -> 0x1000 + (a * 8)) (int_bound 2048) in
    let size = map (fun s -> 8 + (s * 8)) (int_bound 64) in
    oneof
      [
        map2 (fun a s -> Add (a, s)) addr size;
        map2 (fun a s -> Remove (a, s)) addr size;
        map2 (fun a s -> Query (a, s)) addr size;
      ])

let show_wop = function
  | Add (a, s) -> Printf.sprintf "Add(0x%x,%d)" a s
  | Remove (a, s) -> Printf.sprintf "Remove(0x%x,%d)" a s
  | Query (a, s) -> Printf.sprintf "Query(0x%x,%d)" a s

let arb_wops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map show_wop l))
    QCheck.Gen.(list_size (seeded_count (int_bound 60)) gen_wop)

let prop_captable_matches_model =
  QCheck.Test.make ~count:300 ~name:"captable WRITE = naive interval model" arb_wops
    (fun ops ->
      let t = Lxfi.Captable.create () in
      let model = ref [] (* (base, size) list *) in
      let covered (b, s) addr size = b <= addr && addr + size <= b + s in
      let intersects (b, s) base size = b < base + size && base < b + s in
      List.for_all
        (fun op ->
          match op with
          | Add (base, size) ->
              Lxfi.Captable.add_write t ~base ~size;
              if not (List.mem (base, size) !model) then model := (base, size) :: !model;
              true
          | Remove (base, size) ->
              ignore (Lxfi.Captable.remove_write_intersecting t ~base ~size);
              model := List.filter (fun e -> not (intersects e base size)) !model;
              true
          | Query (addr, size) ->
              Lxfi.Captable.has_write t ~addr ~size
              = List.exists (fun e -> covered e addr size) !model)
        ops)

(* ------------------------------------------------------------------ *)
(* Writer set: no false negatives.                                     *)
(* ------------------------------------------------------------------ *)

let arb_ranges =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun (b, s) -> Printf.sprintf "(0x%x,%d)" b s) l))
    QCheck.Gen.(
      list_size (int_bound 30)
        (map2
           (fun b s -> (0x2_0000_0000 + (b * 16), 1 + s))
           (int_bound 4096) (int_bound 256)))

let prop_writer_set_no_false_negatives =
  QCheck.Test.make ~count:200 ~name:"writer set has no false negatives" arb_ranges
    (fun ranges ->
      let w = Lxfi.Writer_set.create () in
      List.iter (fun (base, size) -> Lxfi.Writer_set.mark_range w ~base ~size) ranges;
      List.for_all
        (fun (base, size) ->
          Lxfi.Writer_set.maybe_written w base
          && Lxfi.Writer_set.maybe_written w (base + size - 1))
        ranges)

(* Writer set against a set-of-lines model: interleaved marks, clears
   and queries over ranges that straddle the 2 KB chunk boundaries and
   reach 64 KB. *)

module Lines = Set.Make (Int)

type wsop = Mark of int * int | Clear of int * int | Lines_in of int * int

let ws_base = 0x2_0000_0000

let gen_wsop =
  QCheck.Gen.(
    (* bases cluster around chunk boundaries, 2 KB apart *)
    let base =
      map2 (fun c off -> ws_base + (c * 2048) + off - 128) (int_bound 64) (int_bound 256)
    in
    let size =
      frequency
        [
          (1, return 0);
          (4, int_range 1 256);
          (3, int_range 1 4096);
          (2, int_range 1 0x10000);
        ]
    in
    frequency
      [
        (4, map2 (fun b s -> Mark (b, s)) base size);
        (3, map2 (fun b s -> Clear (b, s)) base size);
        (3, map2 (fun b s -> Lines_in (b, s)) base size);
      ])

let show_wsop = function
  | Mark (b, s) -> Printf.sprintf "Mark(0x%x,%d)" b s
  | Clear (b, s) -> Printf.sprintf "Clear(0x%x,%d)" b s
  | Lines_in (b, s) -> Printf.sprintf "Lines_in(0x%x,%d)" b s

let prop_writer_set_matches_model =
  QCheck.Test.make ~count:200 ~name:"writer set = line-set model (mark/clear/lines_in)"
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show_wsop l))
       QCheck.Gen.(list_size (int_bound 40) gen_wsop))
    (fun ops ->
      let module W = Lxfi.Writer_set in
      let w = W.create () in
      let model = ref Lines.empty in
      let span ~base ~size =
        let sh = W.line_shift in
        if size <= 0 then Lines.empty
        else
          Seq.ints (base lsr sh)
          |> Seq.take_while (fun l -> l <= (base + size - 1) lsr sh)
          |> Lines.of_seq
      in
      (* every line of the range answers as the model says, at both its
         first and last byte, and the enumerator lists exactly the
         model's lines of the range, ascending *)
      let agrees ~base ~size =
        let lines = span ~base ~size in
        Lines.for_all
          (fun l ->
            let a = l lsl W.line_shift in
            let want = Lines.mem l !model in
            W.maybe_written w a = want
            && W.maybe_written w (a + (1 lsl W.line_shift) - 1) = want)
          lines
        && W.lines_in w ~base ~size = Lines.elements (Lines.inter lines !model)
      in
      List.for_all
        (fun op ->
          let base, size =
            match op with Mark (b, s) | Clear (b, s) | Lines_in (b, s) -> (b, s)
          in
          (match op with
          | Mark _ ->
              W.mark_range w ~base ~size;
              model := Lines.union !model (span ~base ~size)
          | Clear _ ->
              W.clear_range w ~base ~size;
              model := Lines.diff !model (span ~base ~size)
          | Lines_in _ -> ());
          agrees ~base ~size && W.marked_lines w = Lines.cardinal !model)
        ops
      && agrees ~base:(ws_base - 0x1000) ~size:0x32000)

(* ------------------------------------------------------------------ *)
(* Annotation language: print/parse fixpoint on generated ASTs.        *)
(* ------------------------------------------------------------------ *)

let gen_cexpr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              map (fun i -> Annot.Ast.Cint (Int64.of_int i)) (int_bound 4096);
              map
                (fun i -> Annot.Ast.Cneg (Annot.Ast.Cint (Int64.of_int i)))
                (int_bound 4096);
              oneofl
                [
                  Annot.Ast.Cparam "p";
                  Annot.Ast.Cparam "len";
                  Annot.Ast.Cparam "buf";
                  Annot.Ast.Cparam "skb";
                  Annot.Ast.Creturn;
                  Annot.Ast.Csizeof "sk_buff";
                  Annot.Ast.Csizeof "socket";
                  Annot.Ast.Csizeof "pci_dev";
                ];
            ]
        in
        if n <= 1 then leaf
        else
          frequency
            [
              (2, leaf);
              ( 3,
                map3
                  (fun op a b -> Annot.Ast.Cbin (op, a, b))
                  (oneofl
                     Annot.Ast.
                       [ Oeq; One; Olt; Ole; Ogt; Oge; Oadd; Osub; Omul; Oand; Oor ])
                  (self (n / 2)) (self (n / 2)) );
              (1, map (fun e -> Annot.Ast.Cneg e) (self (n / 2)));
            ]))

let gen_caplist =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun ct p s -> Annot.Ast.Inline (ct, p, s))
          (oneofl
             [
               Annot.Ast.Write;
               Annot.Ast.Call;
               Annot.Ast.Ref "pci_dev";
               Annot.Ast.Ref "io_port";
             ])
          gen_cexpr
          (option gen_cexpr);
        map (fun e -> Annot.Ast.Iter ("skb_caps", [ e ])) gen_cexpr;
        map2
          (fun a b -> Annot.Ast.Iter ("range_caps", [ a; b ]))
          gen_cexpr gen_cexpr;
      ])

let gen_action =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let base =
          oneof
            [
              map (fun c -> Annot.Ast.Copy c) gen_caplist;
              map (fun c -> Annot.Ast.Transfer c) gen_caplist;
              map (fun c -> Annot.Ast.Check c) gen_caplist;
            ]
        in
        if n <= 1 then base
        else
          frequency
            [
              (3, base);
              (1, map2 (fun c a -> Annot.Ast.Cif (c, a)) gen_cexpr (self (n / 2)));
            ]))

let gen_clause =
  QCheck.Gen.(
    oneof
      [
        map (fun a -> Annot.Ast.Pre a) gen_action;
        map (fun a -> Annot.Ast.Post a) gen_action;
        oneofl
          [
            Annot.Ast.Principal Annot.Ast.Pglobal;
            Annot.Ast.Principal Annot.Ast.Pshared;
            Annot.Ast.Principal (Annot.Ast.Pexpr (Annot.Ast.Cparam "p"));
          ];
      ])

let arb_annot =
  QCheck.make ~print:Annot.Ast.to_string QCheck.Gen.(list_size (int_bound 5) gen_clause)

let prop_annot_roundtrip =
  QCheck.Test.make ~count:500 ~name:"annotation print/parse fixpoint" arb_annot
    (fun t ->
      let s = Annot.Ast.to_string t in
      match Annot.Parser.parse s with
      | Ok t2 -> Annot.Ast.to_string t2 = s
      | Error _ -> false)

let prop_annot_hash_stable =
  QCheck.Test.make ~count:300 ~name:"hash invariant under reparse" arb_annot
    (fun t ->
      let params = [ "p"; "len" ] in
      let s = Annot.Ast.to_string t in
      match Annot.Parser.parse s with
      | Ok t2 ->
          Int64.equal
            (Annot.Hash.of_annot ~params t |> fun h ->
             ignore h;
             Annot.Hash.of_annot ~params t2)
            (Annot.Hash.of_annot ~params t)
      | Error _ -> false)

let prop_registry_define_consistent =
  (* the typed registry API accepts exactly what Ast.validate accepts,
     and on success exposes the canonical hash *)
  QCheck.Test.make ~count:300 ~name:"Registry.define agrees with validate" arb_annot
    (fun t ->
      let params = [ "p"; "len"; "buf"; "skb" ] in
      let r = Annot.Registry.create () in
      match
        (Annot.Registry.define r ~name:"gen.slot" ~params ~annot:t,
         Annot.Ast.validate ~params t)
      with
      | Ok slot, Ok () ->
          Int64.equal slot.Annot.Registry.sl_ahash (Annot.Hash.of_annot ~params t)
      | Error (Annot.Registry.Invalid _), Error _ -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Kmem agrees with a bytes reference model.                            *)
(* ------------------------------------------------------------------ *)

let arb_mem_ops =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 80)
        (triple (int_bound 500) (oneofl [ 1; 2; 4; 8 ])
           (map Int64.of_int (int_bound 1_000_000))))
  in
  QCheck.make gen

let prop_kmem_matches_bytes =
  QCheck.Test.make ~count:200 ~name:"kmem = byte-array model" arb_mem_ops (fun writes ->
      let m = Kernel_sim.Kmem.create () in
      let reference = Bytes.make 512 '\000' in
      let base = 0x2_0000_0000 in
      List.iter
        (fun (off, size, v) ->
          let off = min off (512 - 8) in
          Kernel_sim.Kmem.write m ~addr:(base + off) ~size v;
          for i = 0 to size - 1 do
            Bytes.set reference (off + i)
              (Char.chr
                 (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
          done)
        writes;
      (* compare every byte *)
      let ok = ref true in
      for i = 0 to 511 do
        if
          Kernel_sim.Kmem.read_u8 m (base + i) <> Char.code (Bytes.get reference i)
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Slab: live objects never overlap; freed slots are reused.            *)
(* ------------------------------------------------------------------ *)

let arb_slab_ops =
  QCheck.make
    QCheck.Gen.(list_size (int_bound 100) (pair bool (map (fun s -> 1 + s) (int_bound 300))))

let prop_slab_no_overlap =
  QCheck.Test.make ~count:100 ~name:"live slab objects never overlap" arb_slab_ops
    (fun ops ->
      let mem = Kernel_sim.Kmem.create () in
      let cycles = Kernel_sim.Kcycles.create () in
      let s = Kernel_sim.Slab.create mem cycles in
      let live = ref [] in
      List.iter
        (fun (free, size) ->
          if free && !live <> [] then begin
            let a = List.hd !live in
            live := List.tl !live;
            Kernel_sim.Slab.kfree s a
          end
          else begin
            let a = Kernel_sim.Slab.kmalloc s size in
            live := !live @ [ a ]
          end)
        ops;
      (* check pairwise disjointness of live objects *)
      let ranges =
        List.map (fun a -> (a, Kernel_sim.Slab.usable_size s a)) !live
      in
      let rec disjoint = function
        | [] -> true
        | (a, sa) :: rest ->
            List.for_all (fun (b, sb) -> a + sa <= b || b + sb <= a) rest
            && disjoint rest
      in
      disjoint ranges)

(* ------------------------------------------------------------------ *)
(* Transfer revokes everywhere: no principal retains an intersecting    *)
(* WRITE capability after revoke_from_all.                              *)
(* ------------------------------------------------------------------ *)

let prop_revoke_leaves_no_copies =
  QCheck.Test.make ~count:100 ~name:"revoke_from_all leaves no copies"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 20)
           (pair (int_bound 3) (pair (int_bound 512) (map (fun s -> 8 + (8 * s)) (int_bound 16))))))
    (fun grants ->
      let kst = Kernel_sim.Kstate.boot () in
      let rt = Lxfi.Runtime.create ~kst ~config:Lxfi.Config.lxfi in
      (* one module, several principals *)
      let prog =
        Mir.Builder.prog "m" ~imports:[] ~globals:[]
          ~funcs:[ Mir.Builder.func "module_init" [] [ Mir.Builder.ret0 ] ]
      in
      let mi, _ = Lxfi.Loader.load rt prog in
      let principals =
        [|
          mi.Lxfi.Runtime.mi_shared;
          Lxfi.Runtime.find_or_create_instance rt mi ~name_ptr:0x9000;
          Lxfi.Runtime.find_or_create_instance rt mi ~name_ptr:0xa000;
          mi.Lxfi.Runtime.mi_global;
        |]
      in
      List.iter
        (fun (p, (off, size)) ->
          Lxfi.Runtime.grant rt principals.(p)
            (Lxfi.Capability.Cwrite { base = 0x2_0000_0000 + (off * 16); size }))
        grants;
      (* revoke a range covering part of the arena *)
      let rbase = 0x2_0000_0000 + 1024 and rsize = 2048 in
      Lxfi.Runtime.revoke_from_all rt (Lxfi.Capability.Cwrite { base = rbase; size = rsize });
      (* no principal may hold WRITE on any byte of the revoked range
         that came from an intersecting grant *)
      Array.for_all
        (fun p ->
          let leaked = ref false in
          Lxfi.Captable.fold_writes p.Lxfi.Principal.caps
            (fun () ~base ~size ->
              if base < rbase + rsize && rbase < base + size then leaked := true)
            ();
          not !leaked)
        principals)

(* ------------------------------------------------------------------ *)
(* Interpreter arithmetic matches Int64 reference semantics.            *)
(* ------------------------------------------------------------------ *)

let arb_binop_case =
  QCheck.make
    ~print:(fun (op, a, b) ->
      Printf.sprintf "%s %Ld %Ld" (Mir.Printer.binop_symbol op) a b)
    QCheck.Gen.(
      triple
        (oneofl
           Mir.Ast.
             [ Add; Sub; Mul; Band; Bor; Bxor; Shl; Lshr; Eq; Ne; Lt; Le; Gt; Ge; Ult ])
        (map Int64.of_int int) (map Int64.of_int int))

let reference_binop op a b =
  let bool_ x = if x then 1L else 0L in
  match op with
  | Mir.Ast.Add -> Int64.add a b
  | Mir.Ast.Sub -> Int64.sub a b
  | Mir.Ast.Mul -> Int64.mul a b
  | Mir.Ast.Band -> Int64.logand a b
  | Mir.Ast.Bor -> Int64.logor a b
  | Mir.Ast.Bxor -> Int64.logxor a b
  | Mir.Ast.Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Mir.Ast.Lshr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Mir.Ast.Eq -> bool_ (a = b)
  | Mir.Ast.Ne -> bool_ (a <> b)
  | Mir.Ast.Lt -> bool_ (Int64.compare a b < 0)
  | Mir.Ast.Le -> bool_ (Int64.compare a b <= 0)
  | Mir.Ast.Gt -> bool_ (Int64.compare a b > 0)
  | Mir.Ast.Ge -> bool_ (Int64.compare a b >= 0)
  | Mir.Ast.Ult -> bool_ (Int64.unsigned_compare a b < 0)
  | Mir.Ast.Udiv -> Int64.unsigned_div a b
  | Mir.Ast.Urem -> Int64.unsigned_rem a b

let prop_interp_arithmetic =
  QCheck.Test.make ~count:500 ~name:"interpreter binop = Int64 reference"
    arb_binop_case (fun (op, a, b) ->
      Int64.equal
        (Mir.Interp.eval_binop op Mir.Ast.W64 a b)
        (reference_binop op a b))

(* Every (op, width) pair runs through [Interp.run] and must agree
   with the width rules written out here: operands are full 64-bit
   values; results truncate to the width; shift amounts wrap at it and
   [Lshr] shifts the truncated operand; signed compares sign-extend
   from it; [Eq], [Ne] and [Ult] compare all 64 bits; [Udiv]/[Urem] by
   zero are a divide-error oops. *)
let reference_binop_at op w a b =
  let bits = 8 * Mir.Ast.bytes_of_width w in
  let cut v = if bits = 64 then v else Int64.logand v (Int64.pred (Int64.shift_left 1L bits)) in
  let sext v = Int64.shift_right (Int64.shift_left v (64 - bits)) (64 - bits) in
  let amount = Int64.to_int b land (bits - 1) in
  match op with
  | Mir.Ast.(Udiv | Urem) when b = 0L -> raise (Kernel_sim.Kstate.Oops "divide error")
  | Mir.Ast.Shl -> cut (Int64.shift_left a amount)
  | Mir.Ast.Lshr -> Int64.shift_right_logical (cut a) amount
  | Mir.Ast.(Lt | Le | Gt | Ge) -> reference_binop op (sext a) (sext b)
  | Mir.Ast.(Eq | Ne | Ult) -> reference_binop op a b
  | _ -> cut (reference_binop op a b)

let all_binops =
  Mir.Ast.[ Add; Sub; Mul; Udiv; Urem; Band; Bor; Bxor; Shl; Lshr; Eq; Ne; Lt; Le; Gt; Ge; Ult ]

let all_widths = Mir.Ast.[ W8; W16; W32; W64 ]

let binop_fname op w =
  Printf.sprintf "%s%d" (Mir.Printer.binop_symbol op) (Mir.Ast.bytes_of_width w)

let binop_ctx =
  lazy
    (let funcs =
       List.concat_map
         (fun op ->
           List.map
             (fun w ->
               Mir.Builder.func (binop_fname op w) [ "a"; "b" ]
                 [ Mir.Builder.ret (Mir.Builder.bin op w (Mir.Builder.v "a") (Mir.Builder.v "b")) ])
             all_widths)
         all_binops
     in
     let prog = Mir.Builder.prog "binops" ~imports:[] ~globals:[] ~funcs in
     let kst = Kernel_sim.Kstate.boot () in
     let stack_base = Kernel_sim.Kstate.alloc_module_area kst 4096 in
     Mir.Interp.create ~kst ~prog ~global_addr:(fun _ -> raise Not_found)
       ~func_addr:(fun _ -> raise Not_found) ~ext_addr:(fun _ -> raise Not_found)
       ~call_ext:(fun _ _ -> 0L) ~guard_write:(fun ~addr:_ ~size:_ -> ())
       ~guard_indcall:(fun ~target:_ -> ()) ~on_entry:ignore ~on_exit:ignore
       ~hooks_enabled:false ~stack_base ~stack_len:4096)

let gen_operand =
  QCheck.Gen.(
    oneof
      [
        map Int64.of_int (int_bound 70) (* shift amounts, at and past every width *);
        oneofl
          [ 0L; 1L; 0x7fL; 0x80L; 0xffL; 0x7fffL; 0x8000L; 0xffffL; 0x8000_0000L;
            0xffff_ffffL; Int64.max_int; Int64.min_int; -1L ];
        map Int64.of_int int;
      ])

let arb_width_case =
  QCheck.make
    ~print:(fun (op, w, a, b) -> Printf.sprintf "%s %Ld %Ld" (binop_fname op w) a b)
    QCheck.Gen.(quad (oneofl all_binops) (oneofl all_widths) gen_operand gen_operand)

let prop_compiled_binops =
  QCheck.Test.make ~count:3000 ~name:"engine binop = width reference at every width"
    arb_width_case (fun (op, w, a, b) ->
      let outcome f = match f () with v -> Ok v | exception Kernel_sim.Kstate.Oops m -> Error m in
      outcome (fun () -> Mir.Interp.run (Lazy.force binop_ctx) (binop_fname op w) [ a; b ])
      = outcome (fun () -> reference_binop_at op w a b))

let prop_truncation =
  QCheck.Test.make ~count:300 ~name:"width truncation masks correctly"
    (QCheck.make QCheck.Gen.(map Int64.of_int int))
    (fun v ->
      Int64.equal (Mir.Interp.truncate Mir.Ast.W32 v) (Int64.logand v 0xffff_ffffL)
      && Int64.equal (Mir.Interp.truncate Mir.Ast.W16 v) (Int64.logand v 0xffffL)
      && Int64.equal (Mir.Interp.truncate Mir.Ast.W8 v) (Int64.logand v 0xffL)
      && Int64.equal (Mir.Interp.truncate Mir.Ast.W64 v) v)

(* ------------------------------------------------------------------ *)
(* Fault injection: any seed / fault class / workload / injection       *)
(* point leaves the containment invariants intact (shadow stack,        *)
(* kernel principal, revoked capabilities, surviving bystander).        *)
(* ------------------------------------------------------------------ *)

let prop_faultsim_invariants =
  QCheck.Test.make ~count:24
    ~name:"fault injection preserves containment invariants"
    (QCheck.make
       ~print:(fun (seed, c, w, k) ->
         Printf.sprintf "seed=%d class=%s workload=%s nth=%d" seed
           (Workloads.Faultsim.class_name (List.nth Workloads.Faultsim.classes c))
           (List.nth Workloads.Faultsim.workload_names w)
           k)
       QCheck.Gen.(
         quad (int_bound 100_000)
           (int_bound (List.length Workloads.Faultsim.classes - 1))
           (int_bound (List.length Workloads.Faultsim.workload_names - 1))
           (map (fun k -> 1 + k) (int_bound 9))))
    (fun (seed, c, w, k) ->
      let fclass = List.nth Workloads.Faultsim.classes c in
      let workload = List.nth Workloads.Faultsim.workload_names w in
      let _row, breaches =
        Workloads.Faultsim.run_cell ~seed fclass ~workload
          ~plan:(Kernel_sim.Finject.Nth k)
      in
      breaches = [])

let prop_faultsim_deterministic =
  QCheck.Test.make ~count:3 ~name:"faultsim report is a pure function of the seed"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000))
    (fun seed -> Workloads.Faultsim.run ~seed () = Workloads.Faultsim.run ~seed ())

let () =
  Kernel_sim.Klog.quiet ();
  Alcotest.run "properties"
    [
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_captable_matches_model;
            prop_writer_set_no_false_negatives;
            prop_writer_set_matches_model;
            prop_annot_roundtrip;
            prop_annot_hash_stable;
            prop_registry_define_consistent;
            prop_kmem_matches_bytes;
            prop_slab_no_overlap;
            prop_revoke_leaves_no_copies;
            prop_interp_arithmetic;
            prop_compiled_binops;
            prop_truncation;
            prop_faultsim_invariants;
            prop_faultsim_deterministic;
          ] );
    ]
