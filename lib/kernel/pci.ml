(** PCI subsystem: device enumeration, driver registration, probe
    dispatch, and MMIO BARs.

    The probe handshake is the paper's Figure 1/Figure 4 example: the
    bus invokes the module's [probe] through a function-pointer slot in
    the module's [pci_driver] struct, and the [principal(pcidev)] /
    [pre(copy(ref(struct pci_dev), pcidev))] annotations on that slot
    type define which REF capability the module principal receives. *)

let dev_layout =
  Ktypes.layout "pci_dev"
    [
      ("vendor", 4, Ktypes.Scalar);
      ("device", 4, Ktypes.Scalar);
      ("irq", 4, Ktypes.Scalar);
      ("enabled", 4, Ktypes.Scalar);
      ("bar0", 8, Ktypes.Pointer);
      ("bar0_len", 4, Ktypes.Scalar);
      ("ioport", 4, Ktypes.Scalar);
      ("claimed", 4, Ktypes.Scalar);
      ("drvdata", 8, Ktypes.Pointer);
    ]

let drv_layout =
  Ktypes.layout "pci_driver"
    [
      ("vendor", 4, Ktypes.Scalar);
      ("device", 4, Ktypes.Scalar);
      ("probe", 8, Ktypes.Funcptr "pci_driver.probe");
      ("remove", 8, Ktypes.Funcptr "pci_driver.remove");
    ]

let layouts = [ dev_layout; drv_layout ]
let define_layout types = List.iter (Ktypes.add types) layouts

let d_vendor = Ktypes.offset_of dev_layout "vendor"
let d_device = Ktypes.offset_of dev_layout "device"
let d_irq = Ktypes.offset_of dev_layout "irq"
let d_enabled = Ktypes.offset_of dev_layout "enabled"
let d_bar0 = Ktypes.offset_of dev_layout "bar0"
let d_bar0_len = Ktypes.offset_of dev_layout "bar0_len"
let d_ioport = Ktypes.offset_of dev_layout "ioport"
let d_claimed = Ktypes.offset_of dev_layout "claimed"
let d_drvdata = Ktypes.offset_of dev_layout "drvdata"
let drv_vendor = Ktypes.offset_of drv_layout "vendor"
let drv_device = Ktypes.offset_of drv_layout "device"
let drv_probe = Ktypes.offset_of drv_layout "probe"

type t = {
  kst : Kstate.t;
  mutable devices : int list;
  io_space : (int, int) Hashtbl.t;  (** legacy I/O port space *)
}

let create kst = { kst; devices = []; io_space = Hashtbl.create 32 }

(** [add_device t ~vendor ~device ~bar_len] models hot-plugging hardware:
    allocates the [pci_dev] and maps an MMIO BAR of [bar_len] bytes.
    Returns the pci_dev address. *)
let add_device t ~vendor ~device ~bar_len =
  let kst = t.kst in
  let dev = Slab.kmalloc kst.slab dev_layout.Ktypes.s_size in
  let bar = Kstate.alloc_module_area kst bar_len in
  Kmem.write_u32 kst.mem (dev + d_vendor) vendor;
  Kmem.write_u32 kst.mem (dev + d_device) device;
  Kmem.write_u32 kst.mem (dev + d_irq) (40 + List.length t.devices);
  Kmem.write_ptr kst.mem (dev + d_bar0) bar;
  Kmem.write_u32 kst.mem (dev + d_bar0_len) bar_len;
  Kmem.write_u32 kst.mem (dev + d_ioport) (0xc000 + (0x40 * List.length t.devices));
  t.devices <- dev :: t.devices;
  dev

let bar0 t dev = Kmem.read_ptr t.kst.mem (dev + d_bar0)
let bar0_len t dev = Kmem.read_u32 t.kst.mem (dev + d_bar0_len)
let is_enabled t dev = Kmem.read_u32 t.kst.mem (dev + d_enabled) = 1

(** [register_driver t drv] — for every matching unclaimed device, the
    bus calls the driver's [probe] through the module-memory slot.
    Returns the number of devices successfully probed. *)
let register_driver t drv =
  let kst = t.kst in
  Kcycles.charge kst.cycles Kcycles.Kernel 100;
  let want_v = Kmem.read_u32 kst.mem (drv + drv_vendor) in
  let want_d = Kmem.read_u32 kst.mem (drv + drv_device) in
  let bound = ref 0 in
  List.iter
    (fun dev ->
      let v = Kmem.read_u32 kst.mem (dev + d_vendor) in
      let d = Kmem.read_u32 kst.mem (dev + d_device) in
      let claimed = Kmem.read_u32 kst.mem (dev + d_claimed) in
      if v = want_v && d = want_d && claimed = 0 then begin
        let slot = drv + drv_probe in
        let ret =
          Kstate.call_ptr kst ~slot ~ftype:"pci_driver.probe" [ Int64.of_int dev ]
        in
        if ret = 0L then begin
          Kmem.write_u32 kst.mem (dev + d_claimed) 1;
          incr bound
        end
      end)
    (List.rev t.devices);
  !bound

(** Exported kernel functions (raw semantics; LXFI annotations gate who
    may call them and with which arguments). *)

let pci_enable_device t dev =
  Kcycles.charge t.kst.cycles Kcycles.Kernel 200;
  Kmem.write_u32 t.kst.mem (dev + d_enabled) 1;
  0L

let pci_disable_device t dev =
  Kmem.write_u32 t.kst.mem (dev + d_enabled) 0;
  0L

let pci_set_drvdata t dev data = Kmem.write_ptr t.kst.mem (dev + d_drvdata) data
let pci_get_drvdata t dev = Kmem.read_ptr t.kst.mem (dev + d_drvdata)
let ioport t dev = Kmem.read_u32 t.kst.mem (dev + d_ioport)
let irq t dev = Kmem.read_u32 t.kst.mem (dev + d_irq)

(** Legacy port I/O (Guideline 3 of the paper: modules need a REF of the
    special [io_port] type for the port argument). *)
let outb t ~port ~value =
  Kcycles.charge t.kst.cycles Kcycles.Kernel 12;
  Hashtbl.replace t.io_space port (value land 0xff)

let inb t ~port =
  Kcycles.charge t.kst.cycles Kcycles.Kernel 12;
  Option.value ~default:0 (Hashtbl.find_opt t.io_space port)
