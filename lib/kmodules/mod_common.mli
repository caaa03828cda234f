(** Shared infrastructure for the ten-module corpus: each module is a
    [spec] (program constructor + insmod-time initialisation + the slot
    types it implements, for the Figure 9 accounting); [install] runs
    the full load path. *)

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
  slot_types : string list;
      (** function-pointer slot types this module implements *)
}

val run_module_init : Ksys.t -> Lxfi.Runtime.module_info -> unit
(** Default [init]: run the module's [module_init] function. *)

val install : Ksys.t -> spec -> handle
(** make → link → load → init.  The first install of a spec under a
    config makes and links its program; later ones load that image
    ({!Lxfi.Loader.linker}).  A spec's [make] must therefore build the
    same program in every boot. *)

val gaddr : Lxfi.Runtime.module_info -> string -> int
(** Address of a module global after load. *)
