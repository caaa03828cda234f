(** Checker input environment.

    The static checker runs {e before} load, over exactly the
    information the loader itself consults: the slot-type registry, the
    kernel struct layouts, which capability iterators exist, and the
    annotated kernel exports.  It is deliberately decoupled from the
    LXFI runtime (no [Runtime.t] here) so the check layer sits below
    [lxfi] in the library stack; [Loader.check_env] builds one of these
    over a live runtime's own tables. *)

type kexport_decl = {
  kx_name : string;
  kx_params : string list;
  kx_annot : Annot.Ast.t;
}
(** What the checker needs to know about one annotated kernel export. *)

type t = {
  registry : Annot.Registry.t;  (** function-pointer slot types *)
  types : Kernel_sim.Ktypes.t;  (** kernel struct layouts *)
  iterator_exists : string -> bool;
      (** is this capability iterator registered? *)
  kexport : string -> kexport_decl option;
      (** the annotated kernel export of this name, if there is one *)
  kexports : unit -> kexport_decl list;  (** every annotated kernel export *)
}
