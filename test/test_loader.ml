(* Tests of the module loader: section layout, initial capabilities,
   annotation propagation, and load-time rejection of bad modules. *)

open Kernel_sim
open Lxfi
open Mir.Builder

let boot ?(config = Config.lxfi) () =
  let kst = Kstate.boot () in
  let rt = Runtime.create ~kst ~config in
  ignore
    (Annot.Registry.define_exn rt.Runtime.registry ~name:"cb.fn" ~params:[ "x" ] ~annot_src:"");
  ignore
    (Runtime.register_kexport_exn rt ~name:"nop" ~params:[] ~annot_src:"" (fun _ -> 0L));
  Runtime.install rt;
  (kst, rt)

let sections mi name =
  List.find_opt (fun (n, _, _) -> n = name) mi.Runtime.mi_sections

let basic_prog =
  prog "m" ~imports:[ "nop" ]
    ~globals:
      [
        global "rw" 32 ~init:[ init_int 0 7 ];
        global "ro" 32 ~section:Mir.Ast.Rodata ~init:[ init_int 0 9 ];
        global "zeroed" 32 ~section:Mir.Ast.Bss;
      ]
    ~funcs:
      [
        func "cb" [ "x" ] [ ret (v "x") ] ~export:"cb.fn";
        func "helper" [ "x" ] [ ret (v "x" +: ii 1) ];
      ]

let test_sections_and_initializers () =
  let kst, rt = boot () in
  let mi, _ = Loader.load rt basic_prog in
  let rw = Hashtbl.find mi.Runtime.mi_globals "rw" in
  let ro = Hashtbl.find mi.Runtime.mi_globals "ro" in
  Alcotest.(check int64) "data initialised" 7L (Kmem.read_u64 kst.Kstate.mem rw);
  Alcotest.(check int64) "rodata initialised" 9L (Kmem.read_u64 kst.Kstate.mem ro);
  Alcotest.(check bool) "three sections" true
    (sections mi "data" <> None && sections mi "rodata" <> None
    && sections mi "bss" <> None);
  (* nothing maps module memory ahead of use: bss and the module stack
     read zero from their first touch *)
  let reads_zero base len =
    let rec go off =
      off >= len || (Kmem.read_u64 kst.Kstate.mem (base + off) = 0L && go (off + 8))
    in
    go 0
  in
  (match sections mi "bss" with
  | Some (_, base, len) -> Alcotest.(check bool) "bss reads zero" true (reads_zero base len)
  | None -> Alcotest.fail "no bss section");
  Alcotest.(check bool) "stack reads zero" true
    (reads_zero mi.Runtime.mi_stack_base mi.Runtime.mi_stack_len)

let test_initial_capabilities () =
  let _, rt = boot () in
  let mi, _ = Loader.load rt basic_prog in
  let shared = mi.Runtime.mi_shared in
  let has c = Runtime.principal_has rt shared c in
  let sec name =
    match sections mi name with Some (_, b, l) -> (b, l) | None -> assert false
  in
  let data, dlen = sec "data" in
  let ro, _ = sec "rodata" in
  Alcotest.(check bool) "WRITE on data" true
    (has (Capability.Cwrite { base = data; size = dlen }));
  Alcotest.(check bool) "no WRITE on rodata" false
    (has (Capability.Cwrite { base = ro; size = 8 }));
  Alcotest.(check bool) "WRITE on module stack" true
    (has (Capability.Cwrite { base = mi.Runtime.mi_stack_base; size = 64 }));
  Alcotest.(check bool) "CALL on own function" true
    (has (Capability.Ccall { target = Hashtbl.find mi.Runtime.mi_func_addr "helper" }));
  let ke = Runtime.find_kexport rt "nop" in
  Alcotest.(check bool) "CALL on import wrapper" true
    (has (Capability.Ccall { target = ke.Runtime.ke_addr }));
  Alcotest.(check bool) "no WRITE on shadow stack region" false
    (has
       (Capability.Cwrite
          {
            base = rt.Runtime.kernel_stack_base + rt.Runtime.kernel_stack_len;
            size = 16;
          }))

let test_annotation_propagation_from_export () =
  let _, rt = boot () in
  let mi, _ = Loader.load rt basic_prog in
  let annotated f = Option.is_some (Runtime.entry mi f).Runtime.en_crossing in
  Alcotest.(check bool) "cb carries slot type" true (annotated "cb");
  Alcotest.(check bool) "helper carries none" false (annotated "helper");
  let addr = Hashtbl.find mi.Runtime.mi_func_addr "cb" in
  Alcotest.(check bool) "ahash registered" true
    (Inttbl.mem rt.Runtime.func_ahash_by_addr addr)

let test_propagation_from_struct_initializer () =
  let kst, rt = boot () in
  ignore
    (Ktypes.define kst.Kstate.types "cb_table" [ ("fn", 8, Ktypes.Funcptr "cb.fn") ]);
  let p =
    prog "m2" ~imports:[]
      ~globals:
        [ global "table" 8 ~struct_:"cb_table" ~init:[ init_func 0 "impl" ] ]
      ~funcs:[ func "impl" [ "x" ] [ ret (v "x") ] ]
  in
  let mi, _ = Loader.load rt p in
  Alcotest.(check bool) "annotation propagated through struct init" true
    (Option.is_some (Runtime.entry mi "impl").Runtime.en_crossing)

let test_conflicting_annotations_rejected () =
  let kst, rt = boot () in
  ignore
    (Annot.Registry.define_exn rt.Runtime.registry ~name:"cb.other" ~params:[ "x" ]
       ~annot_src:"principal(global)");
  ignore
    (Ktypes.define kst.Kstate.types "two_slots"
       [ ("a", 8, Ktypes.Funcptr "cb.fn"); ("b", 8, Ktypes.Funcptr "cb.other") ]);
  let p =
    prog "m3" ~imports:[]
      ~globals:
        [
          global "table" 16 ~struct_:"two_slots"
            ~init:[ init_func 0 "impl"; init_func 8 "impl" ];
        ]
      ~funcs:[ func "impl" [ "x" ] [ ret (v "x") ] ]
  in
  match Loader.load rt p with
  | exception Loader.Load_error _ -> ()
  | _ -> Alcotest.fail "conflicting propagation must be a load error"

let test_unknown_import_rejected () =
  let _, rt = boot () in
  let p = prog "m4" ~imports:[ "no_such_symbol" ] ~globals:[] ~funcs:[] in
  match Loader.load rt p with
  | exception Loader.Load_error _ -> ()
  | _ -> Alcotest.fail "unknown import must be a load error"

let test_unknown_slot_type_rejected () =
  let _, rt = boot () in
  let p =
    prog "m5" ~imports:[] ~globals:[]
      ~funcs:[ func "f" [] [ ret0 ] ~export:"no.such.slot" ]
  in
  match Loader.load rt p with
  | exception Loader.Load_error _ -> ()
  | _ -> Alcotest.fail "unknown slot type must be a load error"

let test_duplicate_module_rejected () =
  let _, rt = boot () in
  ignore (Loader.load rt basic_prog);
  match Loader.load rt basic_prog with
  | exception Loader.Load_error _ -> ()
  | _ -> Alcotest.fail "duplicate module must be a load error"

let test_fptr_into_undeclared_slot_rejected () =
  let kst, rt = boot () in
  ignore
    (Ktypes.define kst.Kstate.types "half_table"
       [ ("data", 8, Ktypes.Pointer); ("fn", 8, Ktypes.Funcptr "cb.fn") ]);
  let p =
    prog "m6" ~imports:[]
      ~globals:
        [ global "table" 16 ~struct_:"half_table" ~init:[ init_func 0 "impl" ] ]
      ~funcs:[ func "impl" [ "x" ] [ ret (v "x") ] ]
  in
  (* the function pointer is stored at the DATA field's offset *)
  match Loader.load rt p with
  | exception Loader.Load_error _ -> ()
  | _ -> Alcotest.fail "fptr into non-slot field must be a load error"

let test_stock_mode_loads_without_caps () =
  let _, rt = boot ~config:Config.stock () in
  let mi, _ = Loader.load rt basic_prog in
  Alcotest.(check int) "no capabilities granted" 0
    (Captable.write_count mi.Runtime.mi_shared.Principal.caps
    + Captable.call_count mi.Runtime.mi_shared.Principal.caps)

let test_iext_initialiser_and_indirect_call () =
  (* a module storing an import's address in a global and calling the
     kernel through it: the Iext initialiser resolves to the wrapper,
     the rewriter guards the indirect call, and the CALL capability
     granted at load approves it *)
  let _, rt = boot () in
  let hits = ref 0 in
  ignore
    (Runtime.register_kexport_exn rt ~name:"poke" ~params:[] ~annot_src:"" (fun _ ->
         incr hits;
         42L));
  let p =
    prog "iext_mod" ~imports:[ "poke" ]
      ~globals:[ global "vtable" 8 ~init:[ init_ext 0 "poke" ] ]
      ~funcs:
        [
          func "go" []
            [ let_ "fp" (load64 (glob "vtable")); ret (call_ind (v "fp") []) ];
        ]
  in
  let mi, report = Loader.load rt p in
  Alcotest.(check bool) "indirect call was guarded" true
    (report.Rewriter.r_indcall_guards >= 1);
  Alcotest.(check int64) "dispatched through the wrapper" 42L
    (Loader.init_call rt mi "go" []);
  Alcotest.(check int) "kernel impl ran" 1 !hits;
  (* corrupting the stored pointer is caught by the module-side guard *)
  let vt = Hashtbl.find mi.Runtime.mi_globals "vtable" in
  Kmem.write_ptr rt.Runtime.kst.Kstate.mem vt 0xdead0;
  match Loader.init_call rt mi "go" [] with
  | exception Violation.Violation v ->
      Alcotest.(check string) "call-denied" "call-denied"
        (Violation.kind_name v.Violation.v_kind)
  | _ -> Alcotest.fail "corrupted vtable call must be refused"

let test_init_call_runs_as_shared () =
  let _, rt = boot () in
  let p =
    prog "m7" ~imports:[] ~globals:[ global "flag" 8 ]
      ~funcs:[ func "module_init" [] [ store64 (glob "flag") (ii 1); ret0 ] ]
  in
  let mi, _ = Loader.load rt p in
  Alcotest.(check int64) "init ran" 0L (Loader.init_call rt mi "module_init" []);
  Alcotest.(check bool) "kernel context restored" true (rt.Runtime.current = None)

(* ------------------------------------------------------------------ *)
(* Images: link once, load many                                        *)
(* ------------------------------------------------------------------ *)

module K = Kmodules

(* A booted system with the catalog's devices plugged in, so drivers
   probe on init. *)
let fresh config =
  let sys = K.Ksys.boot config in
  ignore (K.Ksys.add_nic sys ~vendor:K.E1000.vendor ~device:K.E1000.device);
  List.iter
    (fun (vendor, device) -> ignore (Pci.add_device sys.K.Ksys.pci ~vendor ~device ~bar_len:4096))
    [ (K.Snd_intel8x0.vendor, K.Snd_intel8x0.device); (K.Snd_ens1370.vendor, K.Snd_ens1370.device) ];
  sys

(* What a load leaves behind: the runtime's view, the module's security
   state, the guard counters and the simulated clock. *)
let observe (sys : K.Ksys.t) mi =
  let rt = sys.K.Ksys.rt in
  [
    Inspect.to_string rt;
    Snapshot.render (Snapshot.capture rt mi);
    Fmt.str "%a" Stats.pp rt.Runtime.stats;
    string_of_int (Kcycles.total sys.K.Ksys.kst.Kstate.cycles);
  ]

(* One image loaded into two fresh systems, and two fresh loads: each
   side's rewriter report, [drive]'s results and everything observed.
   [prepare] declares what the module needs on each fresh system. *)
let via_image_and_load ?(prepare = ignore) ~config ~make ~drive () =
  let fresh () =
    let sys = fresh config in
    prepare sys;
    sys
  in
  let linked_in = fresh () in
  let image = Loader.link (Loader.check_env linked_in.K.Ksys.rt) config (make linked_in) in
  let from_image () =
    let sys = fresh () in
    let mi = Loader.load_image sys.K.Ksys.rt image in
    (image.Loader.im_report, drive sys mi @ observe sys mi)
  in
  let from_load () =
    let sys = fresh () in
    let mi, report = Loader.load sys.K.Ksys.rt (make sys) in
    (report, drive sys mi @ observe sys mi)
  in
  ([ from_image (); from_image () ], [ from_load (); from_load () ])

let check_same what (images, loads) =
  List.iter2
    (fun (ri, oi) (rl, ol) ->
      Alcotest.(check bool) (what ^ ": rewriter report") true (ri = rl);
      Alcotest.(check (list string)) what ol oi)
    images loads

let configs = [ Config.stock; Config.xfi; Config.lxfi ]

let test_image_catalog () =
  List.iter
    (fun config ->
      List.iter
        (fun (spec : K.Mod_common.spec) ->
          let drive sys mi =
            spec.K.Mod_common.init sys mi;
            []
          in
          check_same
            (spec.K.Mod_common.name ^ " under " ^ Config.mode_name config.Config.mode)
            (via_image_and_load ~config ~make:spec.K.Mod_common.make ~drive ()))
        K.Catalog.all)
    configs

let test_image_lcmod () =
  let config = Config.lxfi_quarantine in
  let drive sys (mi : Runtime.module_info) =
    let rt = sys.K.Ksys.rt in
    let buf = Slab.kmalloc sys.K.Ksys.kst.Kstate.slab 64 in
    List.map Int64.to_string
      [
        Loader.init_call rt mi "module_init" [];
        Quarantine.dispatch rt mi "serve" [ Int64.of_int buf; 3L ];
        Quarantine.dispatch rt mi "serve" [ Int64.of_int buf; 12L ];
      ]
  in
  List.iter
    (fun version ->
      List.iter
        (fun buggy ->
          let make _ = Workloads.Lifecycle.make_prog ~version ~buggy in
          check_same
            (Printf.sprintf "lcmod v%d%s" version (if buggy then " buggy" else ""))
            (via_image_and_load ~prepare:Workloads.Lifecycle.define_slots ~config ~make
               ~drive ()))
        [ true; false ])
    [ 1; 2; 3; 4; 5; 6 ]

let test_spec_make_is_a_value () =
  List.iter
    (fun (spec : K.Mod_common.spec) ->
      Alcotest.(check bool)
        (spec.K.Mod_common.name ^ ": same program from two boots")
        true
        (spec.K.Mod_common.make (K.Ksys.boot Config.stock)
        = spec.K.Mod_common.make (K.Ksys.boot Config.lxfi)))
    K.Catalog.all

let test_checker_bindings_are_loaded () =
  let sys = fresh Config.lxfi in
  let rt = sys.K.Ksys.rt in
  List.iter
    (fun (spec : K.Mod_common.spec) ->
      let prog = spec.K.Mod_common.make sys in
      let bindings, refusals = Check.Capflow.propagate (Loader.check_env rt) prog in
      let mi, _ = Loader.load rt prog in
      let name = spec.K.Mod_common.name in
      Alcotest.(check int) (name ^ ": no refusals") 0 (List.length refusals);
      Alcotest.(check (list (pair string string)))
        (name ^ ": bound entries = compiled entries")
        (List.sort_uniq compare
           (List.map (fun (f, s, _) -> (f, s.Annot.Registry.sl_name)) bindings))
        (List.sort compare
           (Hashtbl.fold
              (fun f (en : Runtime.entry) acc ->
                match en.en_crossing with
                | Some cr -> (f, (Runtime.crossing_decl cr).Annot.Registry.sl_name) :: acc
                | None -> acc)
              mi.Runtime.mi_entries [])))
    K.Catalog.all

(* The runtime as far as a refused load could have touched it. *)
let footprint (rt : Runtime.t) =
  let kst = rt.Runtime.kst in
  ( Inspect.to_string rt,
    Hashtbl.length rt.Runtime.modules,
    List.length (Runtime.all_principals rt),
    Inttbl.length kst.Kstate.calltab,
    kst.Kstate.module_cursor )

let table_prog =
  prog "tbl" ~imports:[ "nop" ]
    ~globals:[ global "ops" 8 ~struct_:"cb_table" ~init:[ init_func 0 "impl" ] ]
    ~funcs:
      [
        func "impl" [ "x" ] [ ret (v "x") ];
        func "go" [] [ expr (call_ext "nop" []); ret0 ] ~export:"cb.fn";
      ]

let with_table (kst, rt) =
  ignore (Ktypes.define kst.Kstate.types "cb_table" [ ("fn", 8, Ktypes.Funcptr "cb.fn") ]);
  (kst, rt)

let expect_stale what ~fact (_, rt) image =
  let before = footprint rt in
  (match Loader.load_image rt image with
  | exception Loader.Stale_image { module_; fact = f } ->
      Alcotest.(check string) (what ^ ": names the module") "tbl" module_;
      Alcotest.(check bool) (what ^ ": names the stale fact") true (fact f)
  | _ -> Alcotest.failf "%s: a stale image loaded" what);
  Alcotest.(check bool) (what ^ ": runtime untouched") true (footprint rt = before)

let test_stale_images_refused () =
  let linked_in = with_table (boot ()) in
  let image = Loader.link (Loader.check_env (snd linked_in)) Config.lxfi table_prog in
  (* the image loads into a system like the one it was linked in *)
  ignore (Loader.load_image (snd (with_table (boot ()))) image);
  let bound = function Loader.Bound { func; _ } -> func = "go" | _ -> false in
  let kst, rt = boot () in
  Hashtbl.remove rt.Runtime.registry.Annot.Registry.slots "cb.fn";
  expect_stale "slot type missing" ~fact:bound (with_table (kst, rt)) image;
  let kst, rt = boot () in
  Hashtbl.replace rt.Runtime.registry.Annot.Registry.slots "cb.fn"
    (Annot.Registry.ok_exn
       (Annot.Registry.make_src ~name:"cb.fn" ~params:[ "x" ] ~annot_src:"principal(global)"));
  expect_stale "slot type redeclared" ~fact:bound (with_table (kst, rt)) image;
  let kst, rt = boot () in
  ignore (Ktypes.define kst.Kstate.types "cb_table" [ ("pad", 8, Ktypes.Scalar); ("fn", 8, Ktypes.Funcptr "cb.fn") ]);
  expect_stale "ops field moved"
    ~fact:(function Loader.Bound { func; _ } -> func = "impl" | _ -> false)
    (kst, rt) image;
  let kst = Kstate.boot () in
  let rt = Runtime.create ~kst ~config:Config.lxfi in
  ignore (Annot.Registry.define_exn rt.Runtime.registry ~name:"cb.fn" ~params:[ "x" ] ~annot_src:"");
  expect_stale "import no longer exported"
    ~fact:(function Loader.Kexport ("nop", Some _) -> true | _ -> false)
    (with_table (kst, rt)) image;
  expect_stale "mode differs"
    ~fact:(function Loader.Config _ -> true | _ -> false)
    (with_table (boot ~config:Config.stock ()))
    image

(* A flow graph depends on the program and the kernel exports, not on
   the optimisation fields: the linker extracts it once and the
   de-optimised image reuses it, recording the kernel-export facts it
   was extracted under.  A runtime whose exports differ gets its own. *)
let test_flow_graph_shared () =
  let image = Loader.linker basic_prog in
  let lxfi = image (snd (boot ())) in
  let deopt = image (snd (boot ~config:Config.lxfi_noopt ())) in
  let graph (im : Loader.image) = Option.get im.Loader.im_flow in
  Alcotest.(check bool) "two images" true (lxfi != deopt);
  Alcotest.(check bool) "one graph" true (graph lxfi == graph deopt);
  let kexports (im : Loader.image) =
    List.filter (function Loader.Kexport _ -> true | _ -> false) im.Loader.im_facts
  in
  (* each boot declares its own [nop]: the same declaration, made twice *)
  let same_fact a b =
    match (a, b) with
    | Loader.Kexport (n, d), Loader.Kexport (n', d') ->
        String.equal n n' && Option.equal Annot.Registry.equal d d'
    | _ -> false
  in
  Alcotest.(check bool) "the graph's kernel-export facts recorded" true
    (List.for_all (fun f -> List.exists (same_fact f) (kexports deopt)) (kexports lxfi));
  let kst = Kstate.boot () in
  let rt =
    Runtime.create ~kst ~config:Config.lxfi_noopt
  in
  ignore
    (Annot.Registry.define_exn rt.Runtime.registry ~name:"cb.fn" ~params:[ "x" ] ~annot_src:"");
  ignore (Runtime.register_kexport_exn rt ~name:"nop" ~params:[ "x" ] ~annot_src:"" (fun _ -> 0L));
  Runtime.install rt;
  Alcotest.(check bool) "other exports, own graph" true (graph (image rt) != graph lxfi)

let () =
  Klog.quiet ();
  Alcotest.run "loader"
    [
      ( "layout",
        [
          Alcotest.test_case "sections + initialisers" `Quick test_sections_and_initializers;
          Alcotest.test_case "initial capabilities" `Quick test_initial_capabilities;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "export declaration" `Quick
            test_annotation_propagation_from_export;
          Alcotest.test_case "struct initialiser" `Quick
            test_propagation_from_struct_initializer;
          Alcotest.test_case "conflicts rejected" `Quick test_conflicting_annotations_rejected;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "unknown import" `Quick test_unknown_import_rejected;
          Alcotest.test_case "unknown slot type" `Quick test_unknown_slot_type_rejected;
          Alcotest.test_case "duplicate module" `Quick test_duplicate_module_rejected;
          Alcotest.test_case "fptr into non-slot" `Quick test_fptr_into_undeclared_slot_rejected;
        ] );
      ( "images",
        [
          Alcotest.test_case "catalog image = fresh load" `Quick test_image_catalog;
          Alcotest.test_case "lcmod image = fresh load" `Quick test_image_lcmod;
          Alcotest.test_case "spec programs are values" `Quick test_spec_make_is_a_value;
          Alcotest.test_case "checker bindings = compiled entries" `Quick
            test_checker_bindings_are_loaded;
          Alcotest.test_case "stale images refused" `Quick test_stale_images_refused;
          Alcotest.test_case "flow graph shared across configs" `Quick test_flow_graph_shared;
        ] );
      ( "modes",
        [
          Alcotest.test_case "stock loads bare" `Quick test_stock_mode_loads_without_caps;
          Alcotest.test_case "init_call context" `Quick test_init_call_runs_as_shared;
          Alcotest.test_case "Iext vtable + indirect call" `Quick
            test_iext_initialiser_and_indirect_call;
        ] );
    ]
