(** PCI subsystem: enumeration, driver registration, probe dispatch
    through the module's [pci_driver.probe] slot (the Figure 4
    handshake), MMIO BARs, and legacy I/O ports (the special-REF
    resource of Guideline 3). *)

val layouts : Ktypes.strct list
(** Every layout of this subsystem, in registration order. *)

val define_layout : Ktypes.t -> unit
(** Add {!layouts} to a booted system's registry. *)

type t = {
  kst : Kstate.t;
  mutable devices : int list;
  io_space : (int, int) Hashtbl.t;
}

val create : Kstate.t -> t

val add_device : t -> vendor:int -> device:int -> bar_len:int -> int
(** Hot-plug a device: allocates the [pci_dev], maps an MMIO BAR,
    assigns an IRQ line and an I/O port base.  Returns the pci_dev
    address. *)

val bar0 : t -> int -> int
val bar0_len : t -> int -> int
val is_enabled : t -> int -> bool
val ioport : t -> int -> int
val irq : t -> int -> int

val register_driver : t -> int -> int
(** For every matching unclaimed device, call the driver's probe
    through the module-memory slot; returns how many bound. *)

val pci_enable_device : t -> int -> int64
val pci_disable_device : t -> int -> int64
val pci_set_drvdata : t -> int -> int -> unit
val pci_get_drvdata : t -> int -> int

val outb : t -> port:int -> value:int -> unit
val inb : t -> port:int -> int
