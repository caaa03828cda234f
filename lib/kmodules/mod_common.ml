(** Shared infrastructure for the ten-module corpus.

    Each module is a [spec]: a constructor that builds its MIR program
    against the booted system's struct layouts, plus an [init] that
    performs what [insmod] would trigger (running the module's init
    entry point and any out-of-band registration the simulation keeps
    on the OCaml side).  [install] runs the whole load path:
    rewrite → load → grant initial capabilities → module_init. *)

type handle = {
  spec_name : string;
  mi : Lxfi.Runtime.module_info;
  report : Lxfi.Rewriter.report;
}

type spec = {
  name : string;
  category : string;  (** Figure 9 grouping *)
  make : Ksys.t -> Mir.Ast.prog;
  init : Ksys.t -> Lxfi.Runtime.module_info -> unit;
      (** post-load initialisation; most modules just run their
          [module_init] MIR function here *)
  slot_types : string list;
      (** function-pointer slot types this module implements or has
          implemented against it (Figure 9's "# Function Pointers") *)
}

(** Default init: run the module's [module_init] function. *)
let run_module_init sys (mi : Lxfi.Runtime.module_info) =
  let r = Lxfi.Loader.init_call sys.Ksys.rt mi "module_init" [] in
  if r <> 0L then
    invalid_arg (Printf.sprintf "%s: module_init failed (%Ld)" mi.Lxfi.Runtime.mi_name r)

let install sys (spec : spec) : handle =
  let prog = spec.make sys in
  let mi, report = Ksys.load sys prog in
  spec.init sys mi;
  { spec_name = spec.name; mi; report }

(** Address of a module global after load. *)
let gaddr (mi : Lxfi.Runtime.module_info) name =
  match Hashtbl.find_opt mi.Lxfi.Runtime.mi_globals name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "module %s: no global %s" mi.Lxfi.Runtime.mi_name name)
