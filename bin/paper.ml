(* The paper's evaluation (§8): every table of Figures 7-13, the
   ablations and the per-module extension, and the enforcement-neutrality
   reference.  `lxfi_sim paper [SECTION...]` prints the tables and
   `lxfi_sim reference` the reference.  Paper values are printed
   alongside; EXPERIMENTS.md records the comparison run by run.

   Every section is a deterministic function of the simulation except
   two: `guards` and `captable` time primitives on this host with
   bechamel. *)

open Kmodules
open Workloads
module R = Report

(* ------------------------------------------------------------------ *)
(* Figure 7: components and lines of code.                             *)
(* ------------------------------------------------------------------ *)

(* fig7 run outside the source root must refuse, not print zero lines. *)
exception Outside_source_root of string

(* Lines of the .ml and .mli files under [path]. *)
let count_loc path =
  let rec files p =
    if Sys.is_directory p then
      Sys.readdir p |> Array.to_list
      |> List.concat_map (fun f -> files (Filename.concat p f))
    else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
    else []
  in
  match files path with
  | exception Sys_error e -> raise (Outside_source_root e)
  | files ->
      List.fold_left
        (fun acc f -> acc + List.length (In_channel.with_open_text f In_channel.input_lines))
        0 files

let fig7 () =
  let components =
    [
      ("Kernel substrate (lib/kernel)", "lib/kernel", "(Linux itself)");
      ("Module IR + interpreter (lib/mir)", "lib/mir", "(clang IR)");
      ("Annotation language (lib/annot)", "lib/annot", "(clang attrs)");
      ("Module rewriting plugin (rewriter.ml)", "lib/lxfi/rewriter.ml", "1,452");
      ("Runtime checker (lib/lxfi sans rewriter)", "lib/lxfi", "4,704");
      ("Annotated module corpus (lib/kmodules)", "lib/kmodules", "(10 modules)");
      ("Exploit reproductions (lib/exploits)", "lib/exploits", "(3 exploits)");
      ("Workloads + models (lib/workloads)", "lib/workloads", "(netperf &c)");
    ]
  in
  let rows =
    List.map
      (fun (name, path, paper) ->
        let loc =
          if path = "lib/lxfi" then count_loc path - count_loc "lib/lxfi/rewriter.ml"
          else count_loc path
        in
        [ name; R.int_ loc; paper ])
      components
  in
  R.table ~title:"Figure 7: components of LXFI (this reproduction's lines of code)"
    ~header:[ "Component"; "LoC"; "paper" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 8: exploit prevention.                                       *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  let outcome (o : Exploits.Exploit.outcome) =
    match o with
    | Exploits.Exploit.Escalated d -> "ESCALATED (" ^ d ^ ")"
    | Exploits.Exploit.Prevented v ->
        Printf.sprintf "prevented [%s]" (Lxfi.Violation.kind_name v.Lxfi.Violation.v_kind)
    | Exploits.Exploit.Not_exploitable d -> "no exploit (" ^ d ^ ")"
  in
  let rows =
    List.map
      (fun (e : Exploits.Exploit.t) ->
        [
          e.Exploits.Exploit.name;
          e.Exploits.Exploit.cve;
          outcome (e.Exploits.Exploit.run Lxfi.Config.stock);
          outcome (e.Exploits.Exploit.run Lxfi.Config.xfi);
          outcome (e.Exploits.Exploit.run Lxfi.Config.lxfi);
        ])
      Exploits.Pid_rootkit.all
  in
  R.table
    ~title:
      "Figure 8: privilege-escalation exploits vs. enforcement mode (paper: LXFI \
       prevents all)"
    ~header:[ "Exploit"; "CVE"; "stock"; "xfi-style"; "LXFI" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 9: annotation effort.                                        *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  let sys = Ksys.boot Lxfi.Config.lxfi in
  let rows, total_fn, total_fp = Catalog.annotation_effort sys in
  let body =
    List.map
      (fun (r : Catalog.effort_row) ->
        [
          r.Catalog.e_category;
          r.Catalog.e_module;
          R.int_ r.Catalog.e_functions_all;
          R.int_ r.Catalog.e_functions_unique;
          R.int_ r.Catalog.e_fptrs_all;
          R.int_ r.Catalog.e_fptrs_unique;
        ])
      rows
    @ [ [ ""; "Total (distinct)"; R.int_ total_fn; ""; R.int_ total_fp; "" ] ]
  in
  R.table
    ~title:
      "Figure 9: annotated functions and function pointers per module (paper \
       totals: 334 functions, 155 fptrs over a much larger API surface)"
    ~header:[ "Category"; "Module"; "#fn all"; "uniq"; "#fptr all"; "uniq" ]
    body

(* ------------------------------------------------------------------ *)
(* Figure 10: kernel API churn.                                        *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  let rows =
    List.map
      (fun (r : Api_evolution.row) ->
        [
          r.Api_evolution.version;
          r.Api_evolution.released;
          R.int_ r.Api_evolution.exported_total;
          R.int_ r.Api_evolution.exported_changed;
          R.int_ r.Api_evolution.fptr_total;
          R.int_ r.Api_evolution.fptr_changed;
        ])
      (Api_evolution.table ())
  in
  R.table
    ~title:
      "Figure 10: exported functions / struct function pointers per kernel \
       release (generative model; anchored at 2.6.21 = 5583/272 and 3725/183)"
    ~header:[ "version"; "rel."; "#exported"; "changed"; "#fptrs"; "changed" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 11: SFI microbenchmarks.                                     *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  let paper =
    [ ("hotlist", [ "1.14x"; "0%" ]); ("lld", [ "1.12x"; "11%" ]); ("MD5", [ "1.15x"; "2%" ]) ]
  in
  let rows =
    List.map
      (fun (r : Microbench.result) ->
        [
          r.Microbench.b_name;
          Printf.sprintf "%.2fx" r.Microbench.b_code_ratio;
          R.pct1 r.Microbench.b_slowdown;
        ]
        @ Option.value ~default:[ "-"; "-" ] (List.assoc_opt r.Microbench.b_name paper))
      (Microbench.all ())
  in
  R.table
    ~title:"Figure 11: SFI microbenchmarks — code size and slowdown under LXFI"
    ~header:[ "Benchmark"; "dCode"; "slowdown"; "paper dCode"; "paper slowdown" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 12: netperf.                                                 *)
(* ------------------------------------------------------------------ *)

let paper_fig12 =
  [
    ("TCP_STREAM TX", "836 Mbit/s", "828 Mbit/s", "13%", "48%");
    ("TCP_STREAM RX", "770 Mbit/s", "770 Mbit/s", "29%", "64%");
    ("UDP_STREAM TX", "3.1M pkt/s", "2.0M pkt/s", "54%", "100%");
    ("UDP_STREAM RX", "2.3M pkt/s", "2.3M pkt/s", "46%", "100%");
    ("TCP_RR", "9.4K Tx/s", "9.4K Tx/s", "18%", "46%");
    ("UDP_RR", "10K Tx/s", "8.6K Tx/s", "18%", "40%");
    ("TCP_RR (1-switch)", "16K Tx/s", "9.8K Tx/s", "24%", "43%");
    ("UDP_RR (1-switch)", "20K Tx/s", "10K Tx/s", "23%", "47%");
  ]

let fmt_rate unit_ v =
  if unit_ = "Mbit/s" then Printf.sprintf "%.0f %s" v unit_
  else if v >= 1e6 then Printf.sprintf "%.2fM %s" (v /. 1e6) unit_
  else Printf.sprintf "%.1fK %s" (v /. 1e3) unit_

let fig12 () =
  let data = Netperf_sim.figure12 () in
  let rows =
    List.map
      (fun (r : Netperf_sim.row) ->
        let ps, pl, pcs, pcl =
          match
            List.find_opt (fun (t, _, _, _, _) -> t = r.Netperf_sim.r_test) paper_fig12
          with
          | Some (_, a, b, c, d) -> (a, b, c, d)
          | None -> ("-", "-", "-", "-")
        in
        [
          r.Netperf_sim.r_test;
          fmt_rate r.Netperf_sim.r_unit r.Netperf_sim.r_stock;
          fmt_rate r.Netperf_sim.r_unit r.Netperf_sim.r_lxfi;
          R.pct r.Netperf_sim.r_stock_cpu;
          R.pct r.Netperf_sim.r_lxfi_cpu;
          Printf.sprintf "[paper: %s / %s; cpu %s / %s]" ps pl pcs pcl;
        ])
      data
  in
  R.table ~title:"Figure 12: netperf with stock and LXFI-isolated e1000"
    ~header:[ "Test"; "stock"; "LXFI"; "cpu"; "cpu(LXFI)"; "paper" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 13 + guard primitive timing (bechamel).                      *)
(* ------------------------------------------------------------------ *)

open Bechamel

let measure_ns ~name f =
  let test = Test.make ~name (Staged.stage f) in
  let elt = List.hd (Test.elements test) in
  let cfg = Benchmark.cfg ~limit:1500 ~quota:(Time.second 0.4) () in
  let raw = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
  match Analyze.OLS.estimates est with
  | Some (x :: _) -> x
  | _ -> Float.nan

(* Host-measured cost of the actual runtime guard implementations,
   playing the role of the paper's "time per guard" column. *)
let guard_primitive_timings () =
  let net = Netperf_sim.attach (Ksys.boot Lxfi.Config.lxfi) in
  let sys = net.Netperf_sim.sys in
  let rt = sys.Ksys.rt in
  let mi = net.Netperf_sim.e1000.Mod_common.mi in
  let kst = sys.Ksys.kst in
  rt.Lxfi.Runtime.current <- Some mi.Lxfi.Runtime.mi_shared;
  (* a module-owned word to aim checks at: inside the module stack,
     which the shared principal holds WRITE for *)
  let lock = mi.Lxfi.Runtime.mi_stack_base + 128 in
  let ops = Mod_common.gaddr mi "e1000_ops" in
  let xmit_slot =
    ops + Kernel_sim.Ktypes.offset kst.Kernel_sim.Kstate.types "net_device_ops" "ndo_start_xmit"
  in
  let dev = net.Netperf_sim.dev in
  let qdisc =
    Kernel_sim.Kmem.read_ptr kst.Kernel_sim.Kstate.mem
      (dev + Kernel_sim.Ktypes.offset kst.Kernel_sim.Kstate.types "net_device" "qdisc")
  in
  let qdisc_slot = qdisc in
  let spin_init = Lxfi.Runtime.find_kexport rt "spin_lock_init" in
  (* Use the open/stop pair so the target invocation is cheap. *)
  let open_slot =
    ops + Kernel_sim.Ktypes.offset kst.Kernel_sim.Kstate.types "net_device_ops" "ndo_open"
  in
  [
    ( "Mem-write check (guard_write)",
      measure_ns ~name:"guard_write" (fun () ->
          Lxfi.Runtime.guard_write rt mi ~addr:lock ~size:4) );
    ( "Annotation action (check via wrapper)",
      measure_ns ~name:"annotated-kexport" (fun () ->
          ignore (Lxfi.Runtime.call_kexport rt spin_init [ Int64.of_int lock ])) );
    ( "Function entry guard",
      measure_ns ~name:"entry" (fun () -> Lxfi.Runtime.entry_guard rt) );
    ( "Function exit guard",
      measure_ns ~name:"exit" (fun () -> Lxfi.Runtime.exit_guard rt) );
    ( "Kernel ind-call, checked (module slot)",
      measure_ns ~name:"indcall-checked" (fun () ->
          ignore
            (Lxfi.Runtime.kernel_indirect_call rt ~slot:open_slot
               ~ftype:"net_device_ops.ndo_open" [ Int64.of_int dev ])) );
    ( "Kernel ind-call, elided (kernel slot)",
      measure_ns ~name:"indcall-elided" (fun () ->
          ignore
            (Lxfi.Runtime.kernel_indirect_call rt ~slot:qdisc_slot
               ~ftype:"qdisc_ops.enqueue"
               [ Int64.of_int qdisc; Int64.of_int 0 ])) );
    ( "Writer-set lookup",
      measure_ns ~name:"wset" (fun () ->
          ignore (Lxfi.Writer_set.maybe_written rt.Lxfi.Runtime.wset xmit_slot)) );
    ( "Capability table has_write",
      measure_ns ~name:"has_write" (fun () ->
          ignore
            (Lxfi.Captable.has_write mi.Lxfi.Runtime.mi_shared.Lxfi.Principal.caps
               ~addr:lock ~size:4)) );
  ]

let fig13 () =
  let guards, m = Netperf_sim.figure13 () in
  let rows =
    List.map
      (fun (g : Netperf_sim.guard_row) ->
        [
          g.Netperf_sim.g_type;
          Printf.sprintf "%.1f" g.Netperf_sim.g_per_packet;
          (if Float.is_nan g.Netperf_sim.g_paper_per_packet then "-"
           else Printf.sprintf "%.1f" g.Netperf_sim.g_paper_per_packet);
        ])
      guards
  in
  R.table
    ~title:
      (Printf.sprintf
         "Figure 13: guards per packet on UDP_STREAM TX (simulated: %.0f \
          cycles/pkt, of which %.0f guard cycles)"
         m.Netperf_sim.m_cycles_per_unit m.Netperf_sim.m_guard_cycles_per_unit)
    ~header:[ "Guard type"; "per packet"; "paper" ]
    rows

let guards_section () =
  let timings = guard_primitive_timings () in
  let rows = List.map (fun (name, ns) -> [ name; Printf.sprintf "%.0f ns" ns ]) timings in
  R.table
    ~title:
      "Guard primitives measured on this host with bechamel (the paper's \
       'time per guard' column measured 14-124 ns on an i3-550)"
    ~header:[ "Primitive"; "ns/op" ]
    rows

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)
(* ------------------------------------------------------------------ *)

let ablation () =
  let ws = Netperf_sim.writer_set_ablation () in
  R.table
    ~title:
      "Ablation E8: writer-set tracking (paper: fast path elides ~2/3 of \
       kernel indirect-call checks)"
    ~header:[ "Metric"; "value" ]
    [
      [ "elided fraction (tracking on)"; R.pct ws.Netperf_sim.ws_on_elided_fraction ];
      [ "checked ind-calls/pkt (on)"; R.f1 ws.Netperf_sim.ws_on_checked ];
      [ "checked ind-calls/pkt (off)"; R.f1 ws.Netperf_sim.ws_off_checked ];
    ];
  let with_ = Microbench.all () in
  let without = Microbench.all ~config_lxfi:Lxfi.Config.lxfi_noopt () in
  let rows =
    List.map2
      (fun (a : Microbench.result) (b : Microbench.result) ->
        [
          a.Microbench.b_name;
          R.pct1 a.Microbench.b_slowdown;
          R.pct1 b.Microbench.b_slowdown;
          Printf.sprintf "%.2fx" a.Microbench.b_code_ratio;
          Printf.sprintf "%.2fx" b.Microbench.b_code_ratio;
        ])
      with_ without
  in
  R.table
    ~title:
      "Ablation E9: rewriter optimizations off (binary-rewriting-XFI regime: \
       paper reports lld 93%, MD5 27% for XFI)"
    ~header:[ "Benchmark"; "slowdown (opt)"; "slowdown (no-opt)"; "dCode"; "no-opt" ]
    rows

(* Rewriter statistics over the whole module corpus: the per-module
   code-size ratios and guard populations (the XFI paper reports the
   same table for its benchmarks; Figure 11 covers only the three
   microbenchmarks). *)
let rewrite_table () =
  let sys = Ksys.boot Lxfi.Config.lxfi in
  let rows =
    List.map
      (fun (spec : Kmodules.Mod_common.spec) ->
        let prog = spec.Kmodules.Mod_common.make sys in
        let _, r = Lxfi.Rewriter.instrument Lxfi.Config.lxfi prog in
        [
          spec.Kmodules.Mod_common.name;
          R.int_ r.Lxfi.Rewriter.r_orig_size;
          R.int_ r.Lxfi.Rewriter.r_inst_size;
          Printf.sprintf "%.2fx"
            (float_of_int r.Lxfi.Rewriter.r_inst_size
            /. float_of_int (max 1 r.Lxfi.Rewriter.r_orig_size));
          R.int_ r.Lxfi.Rewriter.r_write_guards;
          R.int_ r.Lxfi.Rewriter.r_write_elided;
          R.int_ r.Lxfi.Rewriter.r_indcall_guards;
          R.int_ r.Lxfi.Rewriter.r_inlined_calls;
        ])
      Catalog.all
  in
  R.table ~title:"Rewriter statistics over the ten-module corpus"
    ~header:[ "Module"; "IR"; "IR'"; "dCode"; "wguards"; "elided"; "iguards"; "inlined" ]
    rows

(* Ablation E10: the WRITE-capability data structure.  The paper chose
   a page-masked hash table over a balanced tree because the covering-
   range lookup is the hottest runtime operation (§5).  We compare the
   hashed table against a naive linear interval list at a realistic
   population, measured with bechamel on this host. *)
let captable_ablation () =
  let n = 512 in
  let ranges = List.init n (fun i -> (0x2_0000_0000 + (i * 4096) + ((i * 7) mod 256), 64 + (i mod 192))) in
  let hashed = Lxfi.Captable.create () in
  List.iter (fun (base, size) -> Lxfi.Captable.add_write hashed ~base ~size) ranges;
  let linear : (int * int) list = ranges in
  let probe = List.init 64 (fun i -> 0x2_0000_0000 + (i * 13 * 4096 mod (n * 4096)) + 32) in
  let hashed_ns =
    measure_ns ~name:"hashed" (fun () ->
        List.iter (fun a -> ignore (Lxfi.Captable.has_write hashed ~addr:a ~size:8)) probe)
  in
  let linear_ns =
    measure_ns ~name:"linear" (fun () ->
        List.iter
          (fun a ->
            ignore
              (List.exists (fun (b, s) -> b <= a && a + 8 <= b + s) linear))
          probe)
  in
  R.table
    ~title:
      (Printf.sprintf
         "Ablation E10: WRITE-capability lookup, %d live ranges, 64 probes/op \
          (the paper's constant-time hash vs. a linear interval list)"
         n)
    ~header:[ "Structure"; "ns per 64 probes"; "per probe" ]
    [
      [ "page-masked hash table"; Printf.sprintf "%.0f" hashed_ns; Printf.sprintf "%.1f ns" (hashed_ns /. 64.) ];
      [ "linear interval list"; Printf.sprintf "%.0f" linear_ns; Printf.sprintf "%.1f ns" (linear_ns /. 64.) ];
      [ "speedup"; Printf.sprintf "%.1fx" (linear_ns /. Float.max 1. hashed_ns); "" ];
    ]

(* Extension: per-module isolation overhead — the paper benchmarks
   only e1000; this table gives one representative workload per module
   family. *)
let module_overheads () =
  let data = Module_bench.table () in
  let rows =
    List.map
      (fun (r : Module_bench.row) ->
        [
          r.Module_bench.mb_module;
          r.Module_bench.mb_op;
          Printf.sprintf "%.0f" r.Module_bench.mb_stock_cycles;
          Printf.sprintf "%.0f" r.Module_bench.mb_lxfi_cycles;
          R.pct1 r.Module_bench.mb_overhead;
        ])
      data
  in
  R.table
    ~title:
      "Extension: per-module isolation overhead (simulated cycles per        operation; the paper measures only e1000)"
    ~header:[ "Module"; "Operation"; "stock"; "LXFI"; "overhead" ]
    rows

(* ------------------------------------------------------------------ *)
(* Enforcement-neutrality reference.                                    *)
(* ------------------------------------------------------------------ *)

(* Everything in here is a deterministic function of the simulation
   (guard counters, simulated cycles, faultsim outcomes — no host
   timing), so the serialized form must be byte-identical run to run
   and commit to commit unless enforcement semantics actually change.
   `dune runtest` diffs it against test/reference/guard_reference.json. *)
let reference () =
  let guards, m = Netperf_sim.figure13 () in
  let rows, breaches = Faultsim.run ~seed:42 () in
  Bench_json.to_string
    (Bench_json.Obj
    [
      ( "fig13",
        Bench_json.Obj
          [
            ( "guards_per_packet",
              Bench_json.List
                (List.map
                   (fun (g : Netperf_sim.guard_row) ->
                     Bench_json.Obj
                       [
                         ("type", Bench_json.Str g.Netperf_sim.g_type);
                         ("per_packet", Bench_json.Float g.Netperf_sim.g_per_packet);
                       ])
                   guards) );
            ("measure", Bench_json.of_measure m);
          ] );
      ("faultsim", Faultsim.to_json rows breaches);
    ])
  ^ "\n"

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("guards", guards_section);
    ("ablation", ablation);
    ("captable", captable_ablation);
    ("rewrite", rewrite_table);
    ("overheads", module_overheads);
  ]

(* Prints the named sections in the order of [sections]; all of them
   when [names] is empty. *)
let print names =
  match
    List.iter (fun (name, f) -> if names = [] || List.mem name names then f ()) sections
  with
  | () ->
      print_newline ();
      Ok ()
  | exception Outside_source_root e ->
      Error (e ^ " (fig7 counts this source tree: run it from the source root)")

