(** Checker input environment.

    The static checker runs {e before} load, over exactly the
    information the loader itself consults: the slot-type registry, the
    kernel struct layouts, which capability iterators exist, and the
    annotated kernel exports.  It is deliberately decoupled from the
    LXFI runtime (no [Runtime.t] here) so the check layer sits below
    [lxfi] in the library stack; [Loader.check_env] builds one of these
    over a live runtime's own tables. *)

type t = {
  registry : Annot.Registry.t;  (** function-pointer slot types *)
  types : Kernel_sim.Ktypes.t;  (** kernel struct layouts *)
  iterator_exists : string -> bool;
      (** is this capability iterator registered? *)
  kexport : string -> Annot.Registry.slot option;
      (** the declaration of the kernel export of this name, if there is one *)
  kexports : unit -> Annot.Registry.slot list;
      (** the declaration of every kernel export *)
}
