(** Composite simulated-kernel state: memory, allocator, symbol table,
    tasks, the indirect-call dispatcher, and the oops/exit path.

    The one LXFI-relevant hook here is [indcall]: every place the core
    kernel invokes a function pointer that a module may have supplied
    (socket ops, netdev ops, PCI probe, NAPI poll, dm-target ops, pcm
    ops) goes through this single dispatcher, passing the {e slot
    address} the pointer was loaded from and the {e slot-type name}.
    This models the paper's kernel rewriting plugin (§4.1), which
    inserts [lxfi_check_indcall(pptr, ahash)] before every indirect call
    in the core kernel.  Stock and XFI-like configurations leave the
    default dispatcher (no check) in place; the LXFI runtime replaces it
    with the checking version. *)

type target_kind =
  | Kernel_fn  (** exported core-kernel function *)
  | Module_fn of string  (** function belonging to the named module *)
  | User_fn  (** attacker-controlled user-space code *)

type target = {
  t_addr : int;
  t_name : string;
  t_kind : target_kind;
  t_run : int64 list -> int64;
}

exception Oops of string
(** A kernel crash: NULL dereference, jump to garbage, BUG().  Caught at
    the syscall boundary, where the do_exit path runs. *)

exception Kill_task of string
(** Controlled termination of the current task (LXFI panics the kernel in
    the paper; tests prefer killing the offending task context). *)

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
  pid_hash : (int, Task.t) Hashtbl.t;  (** pid lookup table ("ps" view) *)
  mutable next_pid : int;
  mutable cve_2010_4258_fixed : bool;
      (** when true, do_exit resets the address limit before writing
          [clear_child_tid] (the upstream fix); default false, matching
          the kernel the paper evaluated *)
  mutable user_cursor : int;
  mutable stack_cursor : int;
  mutable module_cursor : int;
  mutable oops_count : int;
  mutable finject : Finject.t option;
      (** armed fault-injection engine, if any (also mirrored into
          [slab.finject] so the allocator can consult it) *)
}

let boot () =
  let mem = Kmem.create () in
  let cycles = Kcycles.create () in
  let slab = Slab.create mem cycles in
  let types = Ktypes.create () in
  Task.define_layout types;
  let sym = Ksym.create () in
  let t =
    {
      mem;
      slab;
      cycles;
      types;
      sym;
      calltab = Inttbl.create 64;
      indcall = (fun ~slot:_ ~ftype:_ _ -> 0L);
      current = { Task.addr = 0; pid = 0 };
      run_queue = Hashtbl.create 16;
      pid_hash = Hashtbl.create 16;
      next_pid = 1;
      cve_2010_4258_fixed = false;
      user_cursor = Kmem.Layout.user_base + 0x10000;
      stack_cursor = Kmem.Layout.kernel_stack_base;
      module_cursor = Kmem.Layout.module_base;
      oops_count = 0;
      finject = None;
    }
  in
  (* init task (pid 1, root). *)
  let init = Task.create mem slab ~pid:1 ~uid:0 ~comm:"init" in
  t.next_pid <- 2;
  Hashtbl.replace t.run_queue 1 init;
  Hashtbl.replace t.pid_hash 1 init;
  t.current <- init;
  (* Default dispatcher: raw, unchecked — a stock kernel. *)
  t.indcall <-
    (fun ~slot ~ftype:_ args ->
      let target = Kmem.read_ptr mem slot in
      match Inttbl.find_opt t.calltab target with
      | Some tg -> tg.t_run args
      | None -> raise (Oops (Printf.sprintf "indirect call to bad address 0x%x" target)));
  t

(** {1 Targets and dispatch} *)

(** [register_target t ~name ~addr ~kind run] makes [addr] callable. *)
let register_target t ~name ~addr ~kind run =
  Ksym.register_at t.sym name addr;
  Inttbl.replace t.calltab addr { t_addr = addr; t_name = name; t_kind = kind; t_run = run }

(** [register_kernel_fn t name run] interns [name] in kernel text and
    makes it callable; returns its address. *)
let register_kernel_fn t name run =
  let addr = Ksym.intern t.sym name in
  Inttbl.replace t.calltab addr
    { t_addr = addr; t_name = name; t_kind = Kernel_fn; t_run = run };
  addr

let target_of t addr = Inttbl.find_opt t.calltab addr

(** [call_ptr t ~slot ~ftype args] is the core kernel invoking a function
    pointer stored at address [slot]; [ftype] names the pointer's slot
    type (e.g. ["proto_ops.ioctl"]) for annotation-hash matching. *)
let call_ptr t ~slot ~ftype args =
  Kcycles.charge t.cycles Kcycles.Kernel 6;
  t.indcall ~slot ~ftype args

(** {1 Tasks, scheduling and the pid hash} *)

let spawn_task t ~uid ~comm =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let task = Task.create t.mem t.slab ~pid ~uid ~comm in
  Hashtbl.replace t.run_queue pid task;
  Hashtbl.replace t.pid_hash pid task;
  task

(** Switch the current task (our "scheduler"). *)
let switch_to t task = t.current <- task

let current_uid t = Task.uid t.mem t.current

(** [ps t] is what the [ps] command would show: tasks reachable through
    the pid hash.  A rootkit that detaches a task from the pid hash hides
    it from this listing while [scheduled t] still runs it. *)
let ps t = Hashtbl.fold (fun pid _ acc -> pid :: acc) t.pid_hash [] |> List.sort compare

let scheduled t =
  Hashtbl.fold (fun pid _ acc -> pid :: acc) t.run_queue [] |> List.sort compare

(** [detach_pid t task] — exported kernel function abused by the rootkit
    variant in §8.1: unlinks [task] from the pid hash only. *)
let detach_pid t (task : Task.t) = Hashtbl.remove t.pid_hash task.pid

(** {1 uaccess} *)

exception Efault of int

(** [put_user t ~addr ~size v] writes to a user-supplied pointer with the
    usual access check: the target must be a user address unless the
    current task's address limit is KERNEL_DS. *)
let put_user t ~addr ~size v =
  let limit = Task.addr_limit t.mem t.current in
  if Kmem.Layout.is_user addr || limit = Task.kernel_ds then
    Kmem.write t.mem ~addr ~size v
  else raise (Efault addr)

let get_user t ~addr ~size =
  let limit = Task.addr_limit t.mem t.current in
  if Kmem.Layout.is_user addr || limit = Task.kernel_ds then
    Kmem.read t.mem ~addr ~size
  else raise (Efault addr)

let set_fs t limit = Task.set_addr_limit t.mem t.current limit

(** {1 User memory for attack programs} *)

(** [user_alloc t len] hands the attack program a fresh user-space
    buffer. *)
let user_alloc t len =
  let a = t.user_cursor in
  t.user_cursor <- (t.user_cursor + len + 0xfff) land lnot 0xfff;
  a

(** {1 Oops / do_exit path} *)

(** The do_exit behaviour at the heart of CVE-2010-4258: when a task dies
    (including from an oops), the kernel writes a 4-byte zero to the
    task's [clear_child_tid] user pointer.  On the vulnerable kernel this
    write honours a stale KERNEL_DS address limit left by the faulting
    path, so it can hit kernel memory. *)
let do_exit t =
  let task = t.current in
  let tid = Task.clear_child_tid t.mem task in
  (if tid <> 0 then begin
     if t.cve_2010_4258_fixed then set_fs t Task.user_ds;
     try put_user t ~addr:tid ~size:4 0L with Efault _ -> ()
   end);
  Hashtbl.remove t.run_queue task.pid;
  Hashtbl.remove t.pid_hash task.pid

(** [with_syscall t f] runs [f ()] as a system call issued by the current
    task: kernel faults and oopses are caught, the oops path (do_exit)
    runs, and an error code is returned — the attack programs rely on
    surviving their own induced oopses in other tasks. *)
let with_syscall t f =
  try Ok (f ()) with
  | Kmem.Fault { addr; write } ->
      t.oops_count <- t.oops_count + 1;
      Klog.warn "kernel oops: bad %s at 0x%x" (if write then "write" else "read") addr;
      do_exit t;
      Error (Printf.sprintf "oops: fault at 0x%x" addr)
  | Oops msg ->
      t.oops_count <- t.oops_count + 1;
      Klog.warn "kernel oops: %s" msg;
      do_exit t;
      Error ("oops: " ^ msg)
  | Kill_task msg ->
      Klog.warn "task killed: %s" msg;
      Error ("killed: " ^ msg)
  | Slab.Out_of_memory ->
      (* ENOMEM is a clean failure, not an oops: the task survives. *)
      Klog.warn "allocation failed (injected or genuine OOM)";
      Error "ENOMEM"

(** {1 Fault injection} *)

(** [arm_finject t fi] makes [fi] the active fault-injection engine —
    both here and in the slab allocator. *)
let arm_finject t fi =
  t.finject <- Some fi;
  t.slab.Slab.finject <- Some fi

let disarm_finject t =
  t.finject <- None;
  t.slab.Slab.finject <- None

(** {1 Section carving for module loading} *)

(** [alloc_module_area t len] reserves page-aligned space in the module
    region (text/rodata/data/bss/stack sections of loaded modules). *)
let alloc_module_area t len =
  let a = t.module_cursor in
  t.module_cursor <- (t.module_cursor + len + 0xfff) land lnot 0xfff;
  a

(** [alloc_stack t len] reserves a kernel thread stack (the LXFI shadow
    stack is carved adjacent to it by the runtime). *)
let alloc_stack t len =
  let a = t.stack_cursor in
  t.stack_cursor <- (t.stack_cursor + len + 0xfff) land lnot 0xfff;
  a
