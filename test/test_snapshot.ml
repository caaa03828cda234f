(* Snapshot determinism properties over fuzzer-generated modules.

   The lifecycle machinery (hot upgrade, quarantine repair) leans on
   three Snapshot facts, checked here as qcheck properties instead of
   hand-picked examples:

   - capture -> restore -> capture round-trips byte-identically, for
     any generated module in any reachable post-traffic state;
   - restore really is an exact restore: scrub the capability tables,
     globals and quarantine flags and the snapshot puts every byte
     back;
   - [diff a b = []] exactly when [equal a b], so the reconciliation
     oracles can report differences without a second comparison
     path. *)

let boot_case (case : Fuzz.Gen.case) =
  let sys = Kmodules.Ksys.boot Lxfi.Config.lxfi in
  let rt = sys.Kmodules.Ksys.rt in
  List.iter
    (fun (name, params, annot_src) ->
      ignore
        (Annot.Registry.define_exn rt.Lxfi.Runtime.registry ~name ~params ~annot_src
          : Annot.Registry.slot))
    Fuzz.Gen.slot_defs;
  let kbuf = Kernel_sim.Slab.kmalloc sys.Kmodules.Ksys.kst.Kernel_sim.Kstate.slab
      Fuzz.Gen.kbuf_size
  in
  let mi, _report = Kmodules.Ksys.load sys case.Fuzz.Gen.c_prog in
  ignore (Lxfi.Loader.init_call rt mi "module_init" [] : int64);
  (* drive real traffic so the captured state includes dynamic grants,
     instance principals and mutated globals, not just the load-time
     baseline *)
  List.iter
    (fun n ->
      ignore (Lxfi.Runtime.invoke_module_function rt mi "entry" [ n ] : int64);
      ignore
        (Lxfi.Runtime.invoke_module_function rt mi "touch" [ Int64.of_int kbuf; n ]
          : int64);
      ignore (Lxfi.Runtime.invoke_module_function rt mi "peer" [ 0x7001L; n ] : int64))
    case.Fuzz.Gen.c_inputs;
  (sys, mi)

let case_of_seed seed =
  let rng = Fuzz.Rng.create ~seed in
  Fuzz.Gen.case_of_rand (Fuzz.Rng.rand rng)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

let prop_capture_restore_capture =
  QCheck.Test.make ~count:40 ~name:"capture -> restore -> capture is byte-identical"
    arb_seed (fun seed ->
      let sys, mi = boot_case (case_of_seed seed) in
      let rt = sys.Kmodules.Ksys.rt in
      let s1 = Lxfi.Snapshot.capture rt mi in
      Lxfi.Snapshot.restore rt mi s1;
      let s2 = Lxfi.Snapshot.capture rt mi in
      String.equal (Lxfi.Snapshot.render s1) (Lxfi.Snapshot.render s2))

(* Scrub everything restore is specified to put back — capability
   tables, quarantine flags, global bytes — using raw table/memory
   operations (stats-silent, so the stats line cannot mask a miss). *)
let prop_restore_is_exact =
  QCheck.Test.make ~count:30 ~name:"restore undoes capability+global+quarantine scrub"
    arb_seed (fun seed ->
      let sys, mi = boot_case (case_of_seed seed) in
      let rt = sys.Kmodules.Ksys.rt in
      let s1 = Lxfi.Snapshot.capture rt mi in
      List.iter
        (fun (p : Lxfi.Principal.t) ->
          Lxfi.Captable.clear p.Lxfi.Principal.caps;
          p.Lxfi.Principal.quarantined <- Some "scrubbed")
        mi.Lxfi.Runtime.mi_principals;
      let arena = Kmodules.Mod_common.gaddr mi "arena" in
      let mem = sys.Kmodules.Ksys.kst.Kernel_sim.Kstate.mem in
      for i = 0 to Fuzz.Gen.arena_size - 1 do
        Kernel_sim.Kmem.write_u8 mem (arena + i) 0xee
      done;
      let scrubbed = Lxfi.Snapshot.capture rt mi in
      Lxfi.Snapshot.restore rt mi s1;
      let s2 = Lxfi.Snapshot.capture rt mi in
      (not (Lxfi.Snapshot.equal s1 scrubbed))
      && String.equal (Lxfi.Snapshot.render s1) (Lxfi.Snapshot.render s2))

let prop_diff_empty_iff_equal =
  QCheck.Test.make ~count:30 ~name:"diff is empty exactly when snapshots are equal"
    (QCheck.pair arb_seed arb_seed) (fun (seed_a, seed_b) ->
      let sys_a, mi_a = boot_case (case_of_seed seed_a) in
      let sys_b, mi_b = boot_case (case_of_seed seed_b) in
      let a = Lxfi.Snapshot.capture sys_a.Kmodules.Ksys.rt mi_a in
      let b = Lxfi.Snapshot.capture sys_b.Kmodules.Ksys.rt mi_b in
      let coherent x y =
        Lxfi.Snapshot.diff x y = [] = Lxfi.Snapshot.equal x y
      in
      Lxfi.Snapshot.diff a a = []
      && Lxfi.Snapshot.diff b b = []
      && coherent a b && coherent b a)

(* Each diff line carries the side marker the reconciliation reports
   print verbatim. *)
let test_diff_markers () =
  let sys, mi = boot_case (case_of_seed 11) in
  let rt = sys.Kmodules.Ksys.rt in
  let s1 = Lxfi.Snapshot.capture rt mi in
  mi.Lxfi.Runtime.mi_shared.Lxfi.Principal.quarantined <- Some "marker-test";
  let s2 = Lxfi.Snapshot.capture rt mi in
  let d = Lxfi.Snapshot.diff s1 s2 in
  Alcotest.(check bool) "scrub shows up" true (d <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "line %S has a side marker" l)
        true
        (String.length l > 2
        && (String.sub l 0 2 = "- " || String.sub l 0 2 = "+ ")))
    d

(* Hot upgrade re-validates the restored flow-automaton position
   against the new version's (possibly narrower) flow graph: a
   position naming a kexport the new graph no longer contains is stale
   and must drop to the automaton start — mirroring the grant-shrinking
   rule for restored WRITE capabilities. *)
let flow_slot = "flow.entry"

let flow_prog ~with_kfree =
  let open Mir.Builder in
  let tail =
    if with_kfree then [ expr (call_ext "kfree" [ v "p" ]); ret0 ] else [ ret0 ]
  in
  prog "flowmod" ~imports:[ "kmalloc"; "kfree" ] ~globals:[]
    ~funcs:
      [
        func "module_init" [] [ ret0 ];
        func "entry" [ "n" ]
          ([ let_ "p" (call_ext "kmalloc" [ ii 32 ]); when_ (v "p" ==: ii 0) [ ret0 ] ]
          @ tail)
          ~export:flow_slot;
      ]

let test_upgrade_revalidates_flow_position () =
  let position mi = Lxfi.Runtime.flow_position mi mi.Lxfi.Runtime.mi_shared in
  let sys = Kmodules.Ksys.boot Lxfi.Config.lxfi in
  let rt = sys.Kmodules.Ksys.rt in
  ignore
    (Annot.Registry.define_exn rt.Lxfi.Runtime.registry ~name:flow_slot
       ~params:[ "n" ] ~annot_src:""
      : Annot.Registry.slot);
  let drive mi =
    ignore (Lxfi.Runtime.invoke_module_function rt mi "entry" [ 1L ] : int64)
  in
  (* v1 ends every entry at kfree: the at-rest automaton position *)
  let mi, _ = Kmodules.Ksys.load sys (flow_prog ~with_kfree:true) in
  ignore (Lxfi.Loader.init_call rt mi "module_init" [] : int64);
  drive mi;
  Alcotest.(check (option string))
    "at-rest position is kfree" (Some "kfree")
    (position mi);
  (* same-shape upgrade: the new graph still has the node, so the
     captured mid-sequence position survives the restore *)
  let link prog = Lxfi.Loader.link (Lxfi.Loader.check_env rt) rt.Lxfi.Runtime.config prog in
  let mi2, _ = Lxfi.Loader.upgrade rt mi (link (flow_prog ~with_kfree:true)) in
  Alcotest.(check (option string))
    "compatible upgrade keeps the position" (Some "kfree")
    (position mi2);
  (* narrower upgrade: kfree is gone from the new version's graph, so
     the restored position is stale and must drop *)
  let mi3, _ = Lxfi.Loader.upgrade rt mi2 (link (flow_prog ~with_kfree:false)) in
  Alcotest.(check (option string))
    "narrower upgrade drops the stale position" None
    (position mi3);
  (* and the automaton restarts cleanly from the start set *)
  drive mi3;
  Alcotest.(check (option string))
    "post-upgrade traffic re-advances from start" (Some "kmalloc")
    (position mi3)

(* An upgrade restores a REF only if the new version's annotations
   could grant it.  v1's entry receives REF(foo) through its slot's
   [pre(copy)]; v2's only entry has a slot [post(transfer)] of the same
   REF, by which the module gives it back to the kernel and never
   receives it, so the REF v1 held must not survive the swap. *)
let test_upgrade_drops_ref_only_given_back () =
  let sys = Kmodules.Ksys.boot Lxfi.Config.lxfi in
  let rt = sys.Kmodules.Ksys.rt in
  let version fname annot_src =
    let slot = "up." ^ fname in
    ignore
      (Annot.Registry.define_exn rt.Lxfi.Runtime.registry ~name:slot ~params:[ "p" ]
         ~annot_src
        : Annot.Registry.slot);
    let open Mir.Builder in
    prog "upmod" ~imports:[] ~globals:[] ~funcs:[ func fname [ "p" ] [ ret0 ] ~export:slot ]
  in
  let foo = Lxfi.Capability.Cref { rtype = "foo"; addr = 0x4000 } in
  let mi, _ = Kmodules.Ksys.load sys (version "take" "pre(copy(ref(struct foo), p))") in
  ignore (Lxfi.Runtime.invoke_module_function rt mi "take" [ 0x4000L ] : int64);
  Alcotest.(check bool) "v1 received the REF" true
    (Lxfi.Runtime.principal_has rt mi.Lxfi.Runtime.mi_shared foo);
  let v2 = version "give" "post(transfer(ref(struct foo), p))" in
  let mi2, report =
    Lxfi.Loader.upgrade rt mi
      (Lxfi.Loader.link (Lxfi.Loader.check_env rt) rt.Lxfi.Runtime.config v2)
  in
  Alcotest.(check bool) "v2 does not hold the REF" false
    (Lxfi.Runtime.principal_has rt mi2.Lxfi.Runtime.mi_shared foo);
  Alcotest.(check (pair int int)) "restored, dropped" (2, 3)
    (report.Lxfi.Loader.up_restored, report.Lxfi.Loader.up_dropped)

(* [wset_lines] lists the writer-set lines over the captured module's
   own memory and nothing else: not a second module's stack, and not a slab
   object the module holds a WRITE capability on, though both are
   marked. *)
let test_wset_is_module_owned () =
  let sys = Kmodules.Ksys.boot Lxfi.Config.lxfi in
  let rt = sys.Kmodules.Ksys.rt in
  let wset_prog name =
    let open Mir.Builder in
    prog name ~imports:[] ~globals:[ global "counter" 8 ]
      ~funcs:[ func "module_init" [] [ ret0 ] ]
  in
  let mi_a, _ = Kmodules.Ksys.load sys (wset_prog "wseta") in
  let mi_b, _ = Kmodules.Ksys.load sys (wset_prog "wsetb") in
  let obj_size = 256 in
  let obj =
    Kernel_sim.Slab.kmalloc sys.Kmodules.Ksys.kst.Kernel_sim.Kstate.slab obj_size
  in
  Lxfi.Runtime.grant rt mi_a.Lxfi.Runtime.mi_shared
    (Lxfi.Capability.Cwrite { base = obj; size = obj_size });
  let lines base len =
    let sh = Lxfi.Writer_set.line_shift in
    List.init (((base + len - 1) lsr sh) - (base lsr sh) + 1) (fun i -> (base lsr sh) + i)
  in
  let stack (mi : Lxfi.Runtime.module_info) =
    lines mi.Lxfi.Runtime.mi_stack_base mi.Lxfi.Runtime.mi_stack_len
  in
  let marked l =
    Lxfi.Writer_set.maybe_written rt.Lxfi.Runtime.wset (l lsl Lxfi.Writer_set.line_shift)
  in
  Alcotest.(check bool)
    "B's stack and the object are marked" true
    (List.for_all marked (stack mi_b) && List.for_all marked (lines obj obj_size));
  let wset = Lxfi.Snapshot.wset_lines (Lxfi.Snapshot.capture rt mi_a) in
  Alcotest.(check (list int)) "ascending and unique" (List.sort_uniq Int.compare wset) wset;
  Alcotest.(check bool)
    "every line of A's stack" true
    (List.for_all (fun l -> List.mem l wset) (stack mi_a));
  Alcotest.(check bool)
    "no line of B's stack" true
    (List.for_all (fun l -> not (List.mem l wset)) (stack mi_b));
  Alcotest.(check bool)
    "no line of the slab object" true
    (List.for_all (fun l -> not (List.mem l wset)) (lines obj obj_size));
  Alcotest.(check bool)
    "every line lies in A's owned ranges" true
    (List.for_all
       (fun l ->
         List.exists
           (fun (base, len) -> List.mem l (lines base len))
           (Lxfi.Snapshot.owned_ranges mi_a))
       wset)

(* A capture's writer-set line against a per-line reference, which asks
   the writer set about every line of every owned range one line at a
   time.  The marks and the owned ranges are random and crowd a few
   2 KB chunks of an otherwise unused stretch of the module area:
   ranges start near chunk seams, overlap each other, and several can
   share a chunk. *)
let wset_window = Kernel_sim.Kmem.Layout.module_base + 0x4000_0000

let gen_range =
  QCheck.Gen.(
    map2
      (fun (chunk, off) len -> (wset_window + (chunk * 2048) + off, len))
      (pair (int_bound 5) (int_range 0 2047))
      (frequency [ (1, return 0); (4, int_range 1 192); (3, int_range 1 5000) ]))

let show_ranges l = String.concat " " (List.map (fun (b, n) -> Printf.sprintf "0x%x+%d" b n) l)

let reference_wset_line rt ranges =
  let sh = Lxfi.Writer_set.line_shift in
  let lines =
    List.concat_map
      (fun (base, len) ->
        if len <= 0 then []
        else List.init (((base + len - 1) lsr sh) - (base lsr sh) + 1) (fun i -> (base lsr sh) + i))
      ranges
    |> List.filter (fun l -> Lxfi.Writer_set.maybe_written rt.Lxfi.Runtime.wset (l lsl sh))
    |> List.sort_uniq Int.compare
  in
  (lines, "wset " ^ String.concat " " (List.map (Printf.sprintf "0x%x") lines))

let wset_system =
  lazy
    (let sys = Kmodules.Ksys.boot Lxfi.Config.lxfi in
     let open Mir.Builder in
     let mi, _ =
       Kmodules.Ksys.load sys
         (prog "wsetref" ~imports:[] ~globals:[ global "counter" 8 ]
            ~funcs:[ func "module_init" [] [ ret0 ] ])
     in
     (sys.Kmodules.Ksys.rt, mi))

let prop_capture_wset_matches_reference =
  QCheck.Test.make ~count:300 ~name:"capture's writer set = per-line reference"
    (QCheck.make
       ~print:(fun (marks, owned) ->
         Printf.sprintf "marks %s; owned %s" (show_ranges marks) (show_ranges owned))
       QCheck.Gen.(
         pair (list_size (int_bound 12) gen_range) (list_size (int_range 1 5) gen_range)))
    (fun (marks, owned) ->
      let rt, mi = Lazy.force wset_system in
      let wset = rt.Lxfi.Runtime.wset in
      Lxfi.Writer_set.clear_range wset ~base:wset_window ~size:(16 * 2048);
      List.iter (fun (base, size) -> Lxfi.Writer_set.mark_range wset ~base ~size) marks;
      (* the first owned range is the stack, the others are sections *)
      let stack_base, stack_len = List.hd owned in
      let mi =
        {
          mi with
          Lxfi.Runtime.mi_stack_base = stack_base;
          mi_stack_len = stack_len;
          mi_sections = List.map (fun (base, len) -> ("s", base, len)) (List.tl owned);
        }
      in
      let snap = Lxfi.Snapshot.capture rt mi in
      let lines, line = reference_wset_line rt owned in
      Lxfi.Snapshot.wset_lines snap = lines
      && List.mem line (String.split_on_char '\n' (Lxfi.Snapshot.render snap)))

let () =
  Kernel_sim.Klog.quiet ();
  Alcotest.run "snapshot"
    [
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_capture_restore_capture;
            prop_restore_is_exact;
            prop_diff_empty_iff_equal;
            prop_capture_wset_matches_reference;
          ] );
      ("diff", [ Alcotest.test_case "side markers" `Quick test_diff_markers ]);
      ( "wset",
        [
          Alcotest.test_case "only module-owned lines" `Quick test_wset_is_module_owned;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "upgrade re-validates flow position" `Quick
            test_upgrade_revalidates_flow_position;
          Alcotest.test_case "upgrade drops a REF the new version only gives back" `Quick
            test_upgrade_drops_ref_only_given_back;
        ] );
    ]
