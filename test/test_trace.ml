(* Trace ring-buffer semantics and fixed-seed determinism.

   - wraparound: the ring keeps the NEWEST events, oldest first on read,
     with [dropped]/[total] accounting exact, as it adds blocks up to
     its capacity and after it wraps;
   - dying young: a dropped ring leaves nothing for the next minor
     collection to promote, and reading one forces no collection;
   - values, not text: a capability event carries the capability value
     and the running principal's one description string, and renders
     only when printed;
   - determinism: driving the same traced workload twice at the same
     seed yields byte-identical reports and Chrome JSON, and the
     per-principal profile reconciles with the cycle clock. *)

let fresh_cycles () = { Trace.kernel = 0; module_ = 0; guard = 0 }

(* Synthetic counters and principal so ring tests need no simulator:
   [emit] advances the kernel counter before each event, and the
   principal follows the counter. *)
let with_counter_clock f =
  let c = fresh_cycles () in
  let buf = Trace.make ~capacity:4 () in
  Trace.attach buf ~cycles:c ~principal:(fun () -> "p" ^ string_of_int (c.Trace.kernel mod 3));
  let emit kind =
    c.Trace.kernel <- c.Trace.kernel + 1;
    Trace.emit kind
  in
  Fun.protect ~finally:Trace.detach (fun () -> f buf emit)

let kinds_of buf =
  Array.to_list (Array.map (fun e -> e.Trace.ev_kind) (Trace.events buf))

let test_ring_keeps_newest () =
  with_counter_clock (fun buf emit ->
      for i = 1 to 10 do
        emit (Trace.Mod_call (string_of_int i))
      done;
      Alcotest.(check int) "total" 10 (Trace.total buf);
      Alcotest.(check int) "dropped" 6 (Trace.dropped buf);
      Alcotest.(check int) "capacity" 4 (Trace.capacity buf);
      Alcotest.(check (list string))
        "newest four, oldest first"
        [ "7"; "8"; "9"; "10" ]
        (List.map
           (function Trace.Mod_call s -> s | _ -> "?")
           (kinds_of buf));
      (* stamps are monotone across the retained window *)
      let evs = Trace.events buf in
      Array.iteri
        (fun i e ->
          if i > 0 then
            Alcotest.(check bool)
              "clock monotone" true
              (Trace.ev_total e >= Trace.ev_total evs.(i - 1)))
        evs)

let test_ring_under_capacity () =
  with_counter_clock (fun buf emit ->
      emit (Trace.Guard Trace.Gentry);
      emit (Trace.Guard Trace.Gexit);
      Alcotest.(check int) "total" 2 (Trace.total buf);
      Alcotest.(check int) "dropped" 0 (Trace.dropped buf);
      Alcotest.(check int) "retained" 2 (Array.length (Trace.events buf));
      Trace.clear buf;
      Alcotest.(check int) "cleared" 0 (Array.length (Trace.events buf));
      Alcotest.(check int) "total after clear" 0 (Trace.total buf))

let test_detach_disables () =
  with_counter_clock (fun buf emit ->
      emit (Trace.Mod_call "before");
      Alcotest.(check int) "emitted while attached" 1 (Trace.total buf));
  Alcotest.(check bool) "off after detach" false !Trace.on

(* Exact wraparound boundary: total = capacity keeps everything. *)
let test_ring_exact_fit () =
  with_counter_clock (fun buf emit ->
      for i = 1 to 4 do
        emit (Trace.Mod_call (string_of_int i))
      done;
      Alcotest.(check int) "dropped" 0 (Trace.dropped buf);
      Alcotest.(check (list string))
        "all four retained"
        [ "1"; "2"; "3"; "4" ]
        (List.map
           (function Trace.Mod_call s -> s | _ -> "?")
           (kinds_of buf)))

(* Model runs stamp event [i] with values that differ from event to
   event and between columns, and run it as its own principal, so a
   ring that mixed up a stamp or label column, or indexed one off by
   an entry, would return other events. *)
let model_event i =
  {
    Trace.ev_kernel = i;
    ev_module = (3 * i) + 1;
    ev_guard = (7 * i) + 2;
    ev_principal = "p" ^ string_of_int i;
    ev_kind = Trace.Slab_free i;
  }

let with_model_ring capacity f =
  let c = fresh_cycles () in
  let label = ref "" in
  let buf = Trace.make ~capacity () in
  Trace.attach buf ~cycles:c ~principal:(fun () -> !label);
  let emit i =
    let e = model_event i in
    c.Trace.kernel <- e.Trace.ev_kernel;
    c.Trace.module_ <- e.Trace.ev_module;
    c.Trace.guard <- e.Trace.ev_guard;
    label := e.Trace.ev_principal;
    Trace.emit e.Trace.ev_kind
  in
  Fun.protect ~finally:Trace.detach (fun () -> f buf emit)

(* The ring against a list model, at capacities that span several
   blocks with a partial last one, before and after wrapping, with an
   optional [clear] part-way through. *)
let prop_ring_model =
  QCheck.Test.make ~count:200 ~name:"ring = newest-events list model"
    QCheck.(triple (int_range 1 1000) (int_range 0 3000) (option (int_range 0 3000)))
    (fun (capacity, emits, clear_at) ->
      with_model_ring capacity (fun buf emit ->
          (* every event emitted since the last clear, newest first *)
          let model = ref [] in
          for i = 0 to emits - 1 do
            if clear_at = Some i then begin
              Trace.clear buf;
              model := []
            end;
            emit i;
            model := model_event i :: !model
          done;
          let total = List.length !model in
          let kept = List.rev (List.filteri (fun j _ -> j < capacity) !model) in
          Array.to_list (Trace.events buf) = kept
          && Trace.total buf = total
          && Trace.dropped buf = total - List.length kept
          && Trace.capacity buf = capacity))

(* [fold] passes exactly the fields of the events [events] returns, in
   the same order, wrapped or not, across block seams. *)
let prop_fold_model =
  QCheck.Test.make ~count:200 ~name:"fold = events"
    QCheck.(pair (int_range 1 1000) (int_range 0 3000))
    (fun (capacity, emits) ->
      with_model_ring capacity (fun buf emit ->
          for i = 0 to emits - 1 do
            emit i
          done;
          let folded =
            Trace.fold buf [] (fun acc ~kernel ~module_ ~guard ~principal kind ->
                {
                  Trace.ev_kernel = kernel;
                  ev_module = module_;
                  ev_guard = guard;
                  ev_principal = principal;
                  ev_kind = kind;
                }
                :: acc)
          in
          List.rev folded = Array.to_list (Trace.events buf)))

(* The window query against copy-then-scan: copy every retained event,
   find the newest match by a forward scan, and keep the suffix from
   it (all of it when nothing matches).  Rings are wrapped and
   unwrapped, across block seams; the predicate matches only the
   newest retained event, only the oldest, nothing, or every [k]th
   payload. *)
type target = Newest | Oldest | Absent | Every of int * int

let prop_since_last_model =
  QCheck.Test.make ~count:300 ~name:"since_last = copy-then-scan"
    QCheck.(
      triple (int_range 1 1000) (int_range 0 3000)
        (make
           ~print:(function
             | Newest -> "newest"
             | Oldest -> "oldest"
             | Absent -> "absent"
             | Every (k, r) -> Printf.sprintf "every %d (+%d)" k r)
           Gen.(
             oneof
               [
                 return Newest;
                 return Oldest;
                 return Absent;
                 map2 (fun k r -> Every (k, r mod k)) (int_range 1 20) nat;
               ])))
    (fun (capacity, emits, target) ->
      with_model_ring capacity (fun buf emit ->
          for i = 0 to emits - 1 do
            emit i
          done;
          let hit i =
            match target with
            | Newest -> i = emits - 1
            | Oldest -> i = max 0 (emits - capacity)
            | Absent -> false
            | Every (k, r) -> i mod k = r
          in
          let p e = match e.Trace.ev_kind with Trace.Slab_free i -> hit i | _ -> false in
          let evs = Trace.events buf in
          let start = ref 0 in
          Array.iteri (fun i e -> if p e then start := i) evs;
          Trace.since_last buf p = Array.sub evs !start (Array.length evs - !start)))

(* A ring that dies with its run must die in the minor heap: filling
   a fresh ring of lifecycle's capacity and dropping it promotes
   (almost) nothing at the next minor collection.  Reading a full ring
   back must not force a minor collection either, as an array longer
   than 256 entries seeded with a young value would. *)
let test_ring_dies_young () =
  let capacity = 8192 in
  let c = fresh_cycles () in
  let fill () =
    let buf = Trace.make ~capacity () in
    Trace.attach buf ~cycles:c ~principal:(fun () -> "p");
    for i = 1 to capacity do
      c.Trace.kernel <- i;
      Trace.emit (Trace.Guard Trace.Gwrite)
    done;
    Trace.detach ();
    buf
  in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  ignore (Sys.opaque_identity (fill ()));
  Gc.minor ();
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
  Alcotest.(check bool)
    (Printf.sprintf "dropped ring promoted %.0f words (< 64)" promoted)
    true (promoted < 64.);
  let buf = fill () in
  let minors = (Gc.quick_stat ()).Gc.minor_collections in
  let evs = Trace.events buf in
  Alcotest.(check int) "minor collections during events" 0
    ((Gc.quick_stat ()).Gc.minor_collections - minors);
  Alcotest.(check int) "every event read" capacity (Array.length evs);
  Alcotest.(check int) "newest stamp" capacity evs.(capacity - 1).Trace.ev_kernel

(* [Runtime.grant] and [Runtime.revoke_from_all] on each capability
   type, with a module principal running. *)
let test_cap_events_carry_values () =
  let open Lxfi in
  let kst = Kernel_sim.Kstate.boot () in
  let rt = Runtime.create ~kst ~config:Config.lxfi in
  Runtime.install rt;
  let prog = Mir.Builder.(prog "m" ~imports:[] ~globals:[] ~funcs:[ func "f" [] [ ret0 ] ]) in
  let mi = fst (Loader.load rt prog) in
  let p = mi.Runtime.mi_shared in
  let buf = Trace.make () in
  Runtime.attach_trace rt buf;
  rt.Runtime.current <- Some p;
  let caps =
    [
      (Capability.Cwrite { base = 0x1000; size = 64 }, "WRITE(0x1000,+64)");
      (Capability.Cref { rtype = "net_device"; addr = 0x2000 }, "REF(net_device,0x2000)");
      (Capability.Ccall { target = 0x3000 }, "CALL(0x3000)");
    ]
  in
  Fun.protect
    ~finally:(fun () ->
      rt.Runtime.current <- None;
      Trace.detach ())
    (fun () ->
      List.iter
        (fun (c, _) ->
          Runtime.grant ~ctx:"copy(pre)" rt p c;
          Runtime.revoke_from_all ~ctx:"transfer(pre)" rt c)
        caps);
  let expected =
    List.concat_map
      (fun (c, text) ->
        [
          (Trace.Cap (Trace.Grant, c, "copy(pre)"), "cap-grant " ^ text ^ " [copy(pre)]");
          (Trace.Cap (Trace.Revoke, c, "transfer(pre)"), "cap-revoke " ^ text ^ " [transfer(pre)]");
        ])
      caps
  in
  let evs = Trace.events buf in
  Alcotest.(check int) "one event per operation" (List.length expected) (Array.length evs);
  List.iteri
    (fun i (kind, text) ->
      let e = evs.(i) in
      Alcotest.(check bool) (text ^ ": payload") true (e.Trace.ev_kind = kind);
      Alcotest.(check bool)
        (text ^ ": the principal's description") true
        (e.Trace.ev_principal == Principal.describe p);
      Alcotest.(check string) "pp_event"
        (Printf.sprintf "[%10d] %-28s %s" (Trace.ev_total e) "m/shared" text)
        (Fmt.str "%a" Trace.pp_event e))
    expected

(* Drive the real traced netperf workload twice at the same seed; the
   report (cycle totals, per-principal tables) and the Chrome JSON
   export must be byte-identical, and cycles must reconcile (exit 0). *)
let traced_run seed =
  (* fixed name: the report header echoes the output path, and a random
     temp name would defeat the byte-identical comparison *)
  let out = Filename.concat (Filename.get_temp_dir_name ()) "lxfi_trace_test.json" in
  let buf = Buffer.create 4096 in
  let ppf = Fmt.with_buffer buf in
  let rc = Workloads.Trace_run.run ~seed ~limit:8192 ~out ~workload:"netperf" ppf in
  Fmt.flush ppf ();
  let ic = open_in_bin out in
  let json = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (rc, Buffer.contents buf, json)

let test_trace_determinism () =
  let rc1, rep1, json1 = traced_run 7 in
  let rc2, rep2, json2 = traced_run 7 in
  Alcotest.(check int) "cycles reconcile (run 1)" 0 rc1;
  Alcotest.(check int) "cycles reconcile (run 2)" 0 rc2;
  Alcotest.(check bool) "reports byte-identical" true (String.equal rep1 rep2);
  Alcotest.(check bool) "chrome JSON byte-identical" true (String.equal json1 json2);
  (* different seed must actually change the trace, or the determinism
     check above is vacuous *)
  let _, rep3, _ = traced_run 8 in
  Alcotest.(check bool) "seed changes the trace" false (String.equal rep1 rep3)

let test_profile_reconciles_synthetic () =
  with_counter_clock (fun buf emit ->
      for _ = 1 to 6 do
        emit (Trace.Guard Trace.Gwrite)
      done;
      let final =
        (* clock advanced once per emit; pretend 5 more kernel cycles ran *)
        { Trace.kernel = Trace.total buf + 5; module_ = 0; guard = 0 }
      in
      let p = Trace_profile.aggregate ~final buf in
      Alcotest.(check int) "attributed = total" p.Trace_profile.pr_total_cycles
        (Trace_profile.attributed_cycles p);
      Alcotest.(check int) "dropped threads through" 2 p.Trace_profile.pr_dropped)

let () =
  Kernel_sim.Klog.quiet ();
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound keeps newest" `Quick test_ring_keeps_newest;
          Alcotest.test_case "under capacity" `Quick test_ring_under_capacity;
          Alcotest.test_case "exact fit" `Quick test_ring_exact_fit;
          Alcotest.test_case "detach disables" `Quick test_detach_disables;
          Alcotest.test_case "ring dies young" `Quick test_ring_dies_young;
          QCheck_alcotest.to_alcotest prop_ring_model;
          QCheck_alcotest.to_alcotest prop_fold_model;
          QCheck_alcotest.to_alcotest prop_since_last_model;
        ] );
      ( "events",
        [
          Alcotest.test_case "cap events carry values" `Quick
            test_cap_events_carry_values;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fixed-seed netperf trace is byte-identical" `Slow
            test_trace_determinism;
          Alcotest.test_case "synthetic profile reconciles" `Quick
            test_profile_reconciles_synthetic;
        ] );
    ]
