(** Kernel log — a thin wrapper around [Logs] with a dedicated source.

    The simulated kernel and the LXFI runtime report noteworthy events
    (module loads, capability violations, oopses) through this module so
    that tests and benchmarks can silence or capture them uniformly. *)

let src = Logs.Src.create "kernel_sim" ~doc:"Simulated Linux kernel substrate"

module Log = (val Logs.src_log src : Logs.LOG)

(* A message is formatted only when its level is on for the source, so
   a quiet run (every benchmark and campaign) formats nothing. *)
let logf level fmt =
  match Logs.Src.level src with
  | Some on when compare level on <= 0 ->
      Format.kasprintf (fun s -> Log.msg level (fun m -> m "%s" s)) fmt
  | _ -> Format.ikfprintf ignore Format.str_formatter fmt

let debug fmt = logf Logs.Debug fmt
let info fmt = logf Logs.Info fmt
let warn fmt = logf Logs.Warning fmt
let err fmt = logf Logs.Error fmt

(** [diag d] routes a structured {!Diag.t} to the kernel log at the
    [Logs] level matching its severity — the single funnel through
    which the checker, the runtime, and the containment machinery
    report. *)
let diag (d : Diag.t) =
  let level =
    match d.Diag.d_severity with
    | Diag.Error -> Logs.Error
    | Diag.Warning -> Logs.Warning
    | Diag.Info -> Logs.Info
    | Diag.Debug -> Logs.Debug
  in
  logf level "%t" (fun ppf -> Format.pp_print_string ppf (Diag.to_string d))

(** [quiet ()] disables all kernel log output (used by benchmarks).
    Idempotent; inverse of {!verbose}. *)
let quiet () = Logs.Src.set_level src None

(** [verbose ()] enables debug-level output on the kernel source.
    Installs the default format reporter only when no reporter is set,
    so a reporter the CLI or a test harness installed is never
    clobbered.  Idempotent; inverse of {!quiet}. *)
let verbose () =
  if Logs.reporter () == Logs.nop_reporter then
    Logs.set_reporter (Logs.format_reporter ());
  Logs.Src.set_level src (Some Logs.Debug)
