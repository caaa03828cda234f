(** Module principals (paper §3.1).

    Every module has a {e shared} principal (initial capabilities,
    implicitly available to all the module's principals) and a
    {e global} principal (implicit access to all the module's
    capabilities, for cross-instance state).  Instance principals are
    created on demand and named by pointers — the address of the
    socket / net_device / dm_target the instance stands for — and one
    logical principal may carry several names (aliases).  The access
    rules are implemented by [Runtime.principal_has]. *)

type kind = Shared | Global | Instance

type t = {
  id : int;  (** unique within the runtime *)
  kind : kind;
  owner : string;  (** module name *)
  home : int;
      (** [owner]'s number, given in the order this process first sees
          each module name; [Runtime.module_of] indexes by it *)
  primary_name : int;  (** 0 for shared/global; first name pointer otherwise *)
  label : string;  (** {!describe}'s text, rendered once by {!make} *)
  caps : Captable.t;
  mutable quarantined : string option;
      (** quarantine reason; a quarantined principal holds no
          capabilities and cannot be selected for entry *)
  mutable flow_pos : int;
      (** flow-automaton position: the node id of the last kexport this
          principal called, or {!Check.Apiflow.start} *)
  mutable flow_depth : int;
      (** nesting depth of kernel-entered activations running as this
          principal; maintained by [Runtime.enter] *)
}

val make : kind:kind -> owner:string -> primary_name:int -> t
(** Allocate a principal with an empty capability table. *)

val describe : t -> string
(** ["mod/shared"], ["mod/global"] or ["mod/instance(0x...)"]: the
    [label] field, so every call returns the same string. *)
