(** System assembly: boot the simulated kernel, create every subsystem,
    start the LXFI runtime, and register the annotated kernel API —
    the OCaml analogue of the paper's annotation corpus (slot types,
    kernel exports, capability iterators, all in the Figure 2
    language). *)

open Kernel_sim

type t = {
  kst : Kstate.t;
  rt : Lxfi.Runtime.t;
  net : Netdev.t;
  pci : Pci.t;
  sock : Sockets.t;
  blk : Blockdev.t;
  snd : Sound.t;
  shm : Shm.t;
  irq : Irqchip.t;
  mutable nics : (int * Nic.t) list;  (** pci_dev address -> NIC model *)
}

val types : t -> Ktypes.t
val mem : t -> Kmem.t
val off : t -> string -> string -> int
(** [off t struct field] — field offset shortcut for module builders. *)

val sizeof : t -> string -> int

val declare : string -> string list -> string -> Annot.Registry.slot
(** {!Annot.Registry.make_src}, raising [Invalid_argument] on a bad
    built-in annotation.  Build declarations once per process and
    {!add_slots} them to each booted system. *)

val add_slots : t -> Annot.Registry.slot list -> unit
(** Add slot types to this system's registry; raises
    [Invalid_argument] on a name already defined. *)

val slot_types : Annot.Registry.slot list
(** The corpus's function-pointer slot types, declared (parsed,
    validated and hashed) once per process. *)

val kexports : (Annot.Registry.slot * (t -> int64 list -> int64)) list
(** The annotated kernel exports, declared once per process, each with
    its implementation over the booted system it runs in. *)

val boot : Lxfi.Config.t -> t
(** Boot everything: kernel state, struct layouts, subsystems, the LXFI
    runtime with {!slot_types}, the capability iterators and
    {!kexports} registered (in that order, so every export keeps its
    kernel-text address) and the kernel indirect-call checker
    installed. *)

val add_nic : t -> vendor:int -> device:int -> int * Nic.t
(** Plug in a NIC; returns its pci_dev address and hardware model. *)

val load : t -> Mir.Ast.prog -> Lxfi.Runtime.module_info * Lxfi.Rewriter.report
(** Rewrite + load a module under the booted runtime. *)

val as_user : t -> ?comm:string -> (Kernel_sim.Task.t -> 'a) -> 'a * bool
(** Run an attack program as a fresh unprivileged task; returns its
    result and whether it ended up root (the exploit-success
    criterion). *)
