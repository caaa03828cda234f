(** The `lxfi_sim trace` workload driver.

    Boots a fresh LXFI system, attaches a {!Trace} ring buffer to the
    runtime, drives a seed-determined operation mix through one of the
    standard workloads (the netperf packet paths, or can / rds socket
    traffic), then prints the per-principal / per-entry-point profile
    and optionally writes a Chrome trace-event JSON.

    Everything the trace records is simulated (cycle stamps, capability
    values, principal descriptions) and the op mix derives from the
    seed through the {!Kernel_sim.Finject} splitmix stream, so the
    output — report and JSON alike — is byte-identical across runs for
    a fixed seed.  CI diffs two runs to pin exactly that.  The run
    formats no text while it traces: the profile and the JSON are
    rendered from the retained events afterwards. *)

open Kernel_sim
open Kmodules

(** Operations per run: enough boundary crossings for a meaningful
    profile, small enough that a trace run stays well under a second. *)
let ops = 1200

(* Each set-up returns the step that drives operation [i]. *)
let workloads =
  [
    ( "netperf",
      fun sys ->
        let env = Netperf_sim.attach sys in
        fun rng i ->
          (match Finject.pick rng 4 with
          | 0 | 1 -> Netperf_sim.udp_send env ~len:(32 + Finject.pick rng 96)
          | 2 -> Netperf_sim.tcp_send env ~msg_len:(512 + Finject.pick rng 2048)
          | _ ->
              ignore (Netperf_sim.rx_burst env ~count:(1 + Finject.pick rng 8) ~frame_len:64));
          if i mod 16 = 0 then Netperf_sim.drain env );
    ( "can",
      fun sys ->
        let send = Cell.can sys in
        fun _rng _i -> ignore (send ()) );
    ( "rds",
      fun sys ->
        let _, send = Cell.rds sys in
        fun rng _i -> ignore (send ~len:(16 + (8 * Finject.pick rng 3))) );
  ]

let workload_names = List.map fst workloads

(** [run ~workload ppf] — trace a workload run and print the profile to
    [ppf].  [limit] caps retained events (ring capacity); [out] writes
    the Chrome trace-event JSON.  Returns 0 when the per-principal
    cycle totals reconcile with the {!Kcycles} clock, 1 otherwise. *)
let run ?(seed = 1) ?(limit = Trace.default_capacity) ?out ~workload ppf =
  let setup =
    match List.assoc_opt workload workloads with
    | Some setup -> setup
    | None ->
        invalid_arg
          (Printf.sprintf "trace: unknown workload %s (expected %s)" workload
             (String.concat "|" workload_names))
  in
  let sys = Ksys.boot Lxfi.Config.lxfi in
  let step = setup sys in
  let rt = sys.Ksys.rt in
  let buf = Trace.make ~capacity:limit () in
  let rng = Finject.create ~seed in
  (* Attach after boot: the profile covers the steady-state drive, not
     module loading. *)
  Lxfi.Runtime.attach_trace rt buf;
  for i = 1 to ops do
    step rng i
  done;
  Trace.detach ();
  let profile = Trace_profile.aggregate ~final:sys.Ksys.kst.Kstate.cycles buf in
  Fmt.pf ppf "trace: workload %s, seed %d, %d ops, ring capacity %d@." workload seed ops
    limit;
  Trace_profile.report ppf profile;
  (match out with
  | None -> ()
  | Some path ->
      Trace_profile.write_chrome_json path buf;
      Fmt.pf ppf "chrome trace-event JSON written to %s@." path);
  if Trace_profile.attributed_cycles profile = profile.Trace_profile.pr_total_cycles then 0
  else 1
