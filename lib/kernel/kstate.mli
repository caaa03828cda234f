(** Composite simulated-kernel state: memory, allocator, symbols,
    tasks, the indirect-call dispatcher, uaccess and the oops/exit path.

    The LXFI-relevant hook is [indcall]: every core-kernel invocation of
    a possibly-module-supplied function pointer goes through it, with
    the slot address and slot-type name — modelling the paper's kernel
    rewriting plugin inserting [lxfi_check_indcall] (§4.1).  The default
    dispatcher is raw (a stock kernel); [Lxfi.Runtime.install] replaces
    it. *)

type target_kind =
  | Kernel_fn  (** exported core-kernel function *)
  | Module_fn of string  (** function of the named module *)
  | User_fn  (** attacker-controlled user-space code *)

type target = {
  t_addr : int;
  t_name : string;
  t_kind : target_kind;
  t_run : int64 list -> int64;
}

exception Oops of string
(** Kernel crash (NULL deref, jump to garbage, BUG()); caught at the
    syscall boundary, where do_exit runs. *)

exception Kill_task of string

type t = {
  mem : Kmem.t;
  slab : Slab.t;
  cycles : Kcycles.t;
  types : Ktypes.t;
  sym : Ksym.t;
  calltab : target Inttbl.t;
  mutable indcall : slot:int -> ftype:string -> int64 list -> int64;
  mutable current : Task.t;
  run_queue : (int, Task.t) Hashtbl.t;  (** scheduled tasks, by pid *)
  pid_hash : (int, Task.t) Hashtbl.t;  (** the "ps" view *)
  mutable next_pid : int;
  mutable cve_2010_4258_fixed : bool;
      (** apply the upstream do_exit fix (default false, as evaluated) *)
  mutable user_cursor : int;
  mutable stack_cursor : int;
  mutable module_cursor : int;
  mutable oops_count : int;
  mutable finject : Finject.t option;
      (** armed fault-injection engine, if any (mirrored into
          [slab.finject]) *)
}

val boot : unit -> t
(** Fresh kernel with the task_struct layout defined and an init task
    (pid 1, root) running. *)

(** {1 Callable targets and indirect dispatch} *)

val register_target :
  t ->
  name:string ->
  addr:int ->
  kind:target_kind ->
  (int64 list -> int64) ->
  unit
(** Make [addr] callable (module functions, user payloads). *)

val register_kernel_fn : t -> string -> (int64 list -> int64) -> int
(** Intern a kernel function in fake kernel text; returns its address. *)

val target_of : t -> int -> target option

val call_ptr : t -> slot:int -> ftype:string -> int64 list -> int64
(** The core kernel invoking a function pointer stored at [slot];
    [ftype] names the slot type for annotation-hash matching. *)

(** {1 Tasks and the pid hash} *)

val spawn_task : t -> uid:int -> comm:string -> Task.t
val switch_to : t -> Task.t -> unit
val current_uid : t -> int

val ps : t -> int list
(** Pids visible through the pid hash (what [ps] would show). *)

val scheduled : t -> int list
(** Pids the scheduler still runs — a rootkit-hidden task appears here
    but not in {!ps}. *)

val detach_pid : t -> Task.t -> unit
(** The exported function the §8.1 rootkit abuses: unlink from the pid
    hash only. *)

(** {1 uaccess} *)

exception Efault of int

val put_user : t -> addr:int -> size:int -> int64 -> unit
(** Write through a user-supplied pointer; requires a user address
    unless the task's address limit is KERNEL_DS. *)

val get_user : t -> addr:int -> size:int -> int64
val set_fs : t -> int -> unit

(** {1 User memory for attack programs} *)

val user_alloc : t -> int -> int

(** {1 Oops / exit path} *)

val do_exit : t -> unit
(** Task exit, including the CVE-2010-4258 behaviour: a 4-byte zero is
    written through [clear_child_tid], honouring a stale KERNEL_DS
    address limit unless [cve_2010_4258_fixed]. *)

val with_syscall : t -> (unit -> 'a) -> ('a, string) result
(** Run a system call: faults and oopses are caught, the oops path
    (do_exit) runs, and an error is returned.  An injected
    [Slab.Out_of_memory] is a clean ENOMEM error (no do_exit). *)

(** {1 Fault injection} *)

val arm_finject : t -> Finject.t -> unit
(** Make an engine the active fault injector, here and in the slab
    allocator. *)

val disarm_finject : t -> unit

(** {1 Address-space carving} *)

val alloc_module_area : t -> int -> int
val alloc_stack : t -> int -> int
