(** Module principals (§3.1).

    Every module has a {e shared} principal (initial capabilities —
    imports, writable sections — implicitly available to every other
    principal of the module) and a {e global} principal (implicit
    access to the capabilities of {e all} the module's principals,
    used for cross-instance state such as econet's global socket
    list).  Instance principals are created on demand and {e named by
    pointers} — the address of the socket / net_device / block device
    the instance represents — and one logical principal may carry
    several names ([lxfi_princ_alias]: the pci_dev and the net_device
    of one NIC name the same principal). *)

type kind = Shared | Global | Instance

type t = {
  id : int;  (** unique within the runtime *)
  kind : kind;
  owner : string;  (** module name *)
  home : int;  (** [owner]'s number, by which {!Runtime.module_of} finds the module *)
  primary_name : int;  (** 0 for shared/global; the first name pointer otherwise *)
  label : string;  (** {!describe}'s text, from the three fields above *)
  caps : Captable.t;
  mutable quarantined : string option;
      (** quarantine reason; a quarantined principal holds no
          capabilities and cannot be selected for entry *)
  mutable flow_pos : int;
      (** flow-automaton position: the node id of the last kexport this
          principal called, or {!Check.Apiflow.start} *)
  mutable flow_depth : int;
      (** nesting depth of kernel-entered activations running as this
          principal (used to save/restore [flow_pos] around nested
          entries) *)
}

let counter = ref 0

(* Module names, numbered in the order this process first sees them. *)
let homes : (string, int) Hashtbl.t = Hashtbl.create 16

let home_of owner =
  match Hashtbl.find_opt homes owner with
  | Some h -> h
  | None ->
      let h = Hashtbl.length homes in
      Hashtbl.add homes owner h;
      h

let make ~kind ~owner ~primary_name =
  incr counter;
  let label =
    match kind with
    | Shared -> owner ^ "/shared"
    | Global -> owner ^ "/global"
    | Instance -> Printf.sprintf "%s/instance(0x%x)" owner primary_name
  in
  { id = !counter; kind; owner; home = home_of owner; primary_name; label; caps = Captable.create ();
    quarantined = None; flow_pos = Check.Apiflow.start; flow_depth = 0 }

let describe t = t.label
