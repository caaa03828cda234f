(** The LXFI runtime (paper §5): the reference monitor interposed on
    every control transfer between the core kernel and modules.

    It tracks principals and their capability tables, executes the
    grant/check/transfer actions that interface annotations prescribe
    (inside {e wrappers} around each boundary crossing, with shadow-
    stack protection and principal switching), guards module stores and
    indirect calls, and checks core-kernel indirect calls through
    module-writable slots with the writer-set fast path. *)

open Kernel_sim

(** Simulated cycle cost of the guards (charged to the
    [Kcycles.Guard] category).  Model constants, calibrated so the
    netperf reproduction exhibits the paper's Figure 12 shapes; see
    EXPERIMENTS.md. *)
module Cost : sig
  val annotation_action : int
  (** per capability processed by a copy/transfer/check action *)
end

type crossing
(** An annotated declaration compiled for one direction of crossing
    (see {!crossing_of}). *)

type module_info = {
  mi_name : string;
  mi_prog : Mir.Ast.prog;  (** the instrumented program *)
  mi_shared : Principal.t;
  mi_global : Principal.t;
  mutable mi_principals : Principal.t list;  (** all, incl. shared+global *)
  mi_aliases : Principal.t Inttbl.t;  (** name pointer -> principal *)
  mi_globals : (string, int) Hashtbl.t;  (** module global -> address *)
  mi_func_addr : (string, int) Hashtbl.t;  (** function -> text address *)
  mi_entries : (string, entry) Hashtbl.t;
      (** every function as the loader bound it for kernel entry *)
  mutable mi_ctx : Mir.Interp.ctx option;  (** set by the loader *)
  mi_sections : (string * int * int) list;  (** (section, base, len) *)
  mi_stack_base : int;
  mi_stack_len : int;
  mutable mi_dead : string option;  (** set when the whole module was retired *)
  mutable mi_recent_violations : int list;
      (** cycle stamps of recent violations, for escalation windowing *)
  mutable mi_recent_kinds : Violation.kind list;
      (** violation classes of the current escalation episode, newest
          first, bounded by the escalation threshold — the oldest entry
          is the episode's root cause *)
  mutable mi_last_entry : (string * int64 list) option;
      (** innermost kernel→module entry (function, args), recorded by
          the quarantine dispatcher for replay after repair *)
  mutable mi_flow : Check.Apiflow.graph option;
      (** enforced kernel-API flow graph (set by the loader in Lxfi
          mode: a registered policy graph if one exists, else the one
          the image self-extracted from the pristine MIR) *)
  mi_flow_node : int array;
      (** each kernel export's node id in [mi_flow] ([-1]: none), by [ke_idx] *)
}
(** Everything the runtime knows about one loaded module. *)

and entry = {
  en_fname : string;
  en_wrapper : string;  (** {!wrapper_name} of the module and function *)
  en_crossing : crossing option;
      (** the compiled K2M crossing of the function's propagated slot
          type; [None]: unannotated *)
}
(** A module function as the loader binds it into the kernel's
    dispatch table. *)

type kexport = {
  ke_decl : Annot.Registry.slot;  (** name, parameters, annotation and hash *)
  ke_addr : int;  (** fake kernel-text address (= the wrapper's address) *)
  ke_idx : int;  (** registration order: the export's index in [mi_flow_node] *)
  ke_impl : int64 list -> int64;
  ke_crossing : crossing;  (** [ke_decl] compiled for M2K crossings *)
}
(** An annotated kernel export. *)

type t = {
  kst : Kstate.t;
  config : Config.t;
  registry : Annot.Registry.t;  (** function-pointer slot types *)
  stats : Stats.t;
  wset : Writer_set.t;
  modules : (string, module_info) Hashtbl.t;
  mutable homes : module_info option array;
      (** the loaded modules again, by [Principal.home] *)
  kexports : (string, kexport) Hashtbl.t;
  kexport_by_addr : kexport Inttbl.t;
  flow_graphs : (string, Check.Apiflow.graph) Hashtbl.t;
      (** registered flow policies by module name; a module with no
          entry enforces its image's self-extracted graph *)
  mutable iterators : (Annot.Ast.captype list * (int64 list -> Capability.t list)) option array;
      (** by iterator number (names are numbered once per process): the
          capability kinds it can yield, and the iterator *)
  func_ahash_by_addr : int64 Inttbl.t;
      (** annotation hash of every annotated callable address *)
  mutable current : Principal.t option;  (** None = kernel context *)
  sstack : Shadow_stack.t;
  raw_dispatch : slot:int -> ftype:string -> int64 list -> int64;
      (** the kernel's original unchecked dispatcher *)
  kernel_stack_base : int;
  kernel_stack_len : int;
  retired : string Inttbl.t;
      (** retired callable address -> owning module (dangling-pointer
          attribution after unload/escalation) *)
  mutable quarantine_log : Diag.t list;
      (** structured quarantine/escalation diagnostics, newest first *)
  mutable last_callee : Principal.t option;
      (** callee principal of the innermost kernel→module entry, for
          attributing faults that carry no principal *)
  mutable last_violation : Violation.info option;
      (** most recent violation the quarantine policy handled *)
  mutable on_escalate : (module_info -> reason:string -> unit) list;
      (** observers called at the start of escalation, before any
          principal is quarantined (the repair subsystem's capture
          hook) *)
}

val create : kst:Kstate.t -> config:Config.t -> t
(** Set up the runtime (capability stores, shadow stack adjacent to a
    fresh kernel stack).  Call {!install} to activate the kernel
    indirect-call checker. *)

val install : t -> unit
(** Point [Kstate.indcall] at {!kernel_indirect_call}. *)

val attach_trace : t -> Trace.t -> unit
(** Make [buf] the live {!Trace} sink, with events stamped from this
    runtime's cycle clock and current principal.  Undo with
    [Trace.detach ()]. *)

val current_module : t -> module_info option
(** Exported for the test of who runs in kernel context. *)

val module_named : t -> string -> module_info option

val module_of : t -> Principal.t -> module_info option
(** The loaded module a principal belongs to: the one loaded under its
    owner's name, found by the name's number ([Principal.home]). *)

val add_module : t -> module_info -> unit
(** Make [mi] the loaded module of its name (the loader's last step). *)

val wrapper_name : string -> string -> string
(** [wrapper_name mname fname] names the wrapper frame around
    kernel→module entries into [fname] of module [mname]; it is also
    the function's name in the kernel's dispatch table. *)

val enters_module : string -> string -> bool
(** [enters_module mname w]: is [w] a name {!wrapper_name} built for
    module [mname]? *)

val retire_module : t -> module_info -> unit
(** Pull every kernel-callable address the module registered out of the
    dispatch tables (recording each in [retired]) and empty every
    principal's capability table — WRITE, CALL and REF capabilities of
    every registered rtype — shared by [Loader.unload] and quarantine
    escalation. *)

(** {1 Kernel API surface} *)

val register_kexport :
  t -> Annot.Registry.slot -> (int64 list -> int64) -> (kexport, Annot.Registry.error) result
(** Register an annotated kernel export from its declaration (built
    once by {!Annot.Registry.make_src}; nothing is parsed, validated
    or hashed here).  [Error (Duplicate name)] if an export of that
    name is already registered. *)

val register_kexport_exn :
  t ->
  name:string ->
  params:string list ->
  annot_src:string ->
  (int64 list -> int64) ->
  kexport
(** Declare and register in one step, raising [Invalid_argument] on
    any error — for tests that add an export to a booted system. *)

val register_flow_graph : t -> module_:string -> Check.Apiflow.graph -> unit
(** Pin the flow policy the next load of [module_] enforces, instead of
    the graph its image self-extracted — how an audited benign
    graph is held against a possibly-tampered binary (the SFIP threat
    model; the fuzz harness's flow-class mutants use exactly this). *)

val flow_position : module_info -> Principal.t -> string option
(** A principal's flow-automaton position by export name ([None]: start). *)

val register_iterator :
  t -> name:string -> shapes:Annot.Ast.captype list -> (int64 list -> Capability.t list) -> unit
(** Register a programmer-supplied capability iterator ([skb_caps],
    [kmalloc_caps], ...; §3.3).  [shapes] declares the capability kinds
    the iterator can yield ([Ref t] for REFs of type [t]), consumed by
    the upgrade compatibility check. *)

val iterator_can_yield : t -> name:string -> Annot.Ast.captype -> bool
(** Can iterator [name] yield a capability of this kind?  Unknown
    iterators conservatively yield everything. *)

val find_iterator : t -> string -> (int64 list -> Capability.t list) option
(** The iterator registered under this name, if any. *)

val find_kexport : t -> string -> kexport

(** {1 Capabilities and principals} *)

val all_principals : t -> Principal.t list
(** Every principal of every loaded module, module by module, each
    module's in its [mi_principals] order.  This order decides which
    writer a denied kernel indirect call names. *)

val principal_has : t -> Principal.t -> Capability.t -> bool
(** Ownership with the implicit-access rules of §3.1: instances see the
    shared principal's capabilities; the global principal sees
    everything the module holds. *)

val grant : ?ctx:string -> t -> Principal.t -> Capability.t -> unit
(** Insert a capability (marking the writer set for non-user WRITE
    ranges).  [ctx] names the annotation action performing the grant
    (e.g. ["copy(post)"]) for trace attribution. *)

val revoke_from_all : ?ctx:string -> t -> Capability.t -> unit
(** Remove the capability — for WRITE, anything intersecting its
    range — from {e every} principal in the system (§3.3 transfer
    semantics).  [ctx] as in {!grant}.  Exported for the tests that
    transfer a capability directly. *)

val find_or_create_instance : t -> module_info -> name_ptr:int -> Principal.t
(** The principal named by [name_ptr], following aliases; created on
    first use. *)

val writers_of : t -> addr:int -> Principal.t list
(** Principals holding a WRITE capability covering [addr] (the writer
    set, computed by walking the global principal list as in the
    paper).  Exported for the writer-set test. *)

(** {1 Compiled crossings}

    Each annotated declaration is compiled once per process for each
    direction it is crossed in, and kept on the declaration
    ({!Annot.Registry.derive}): parameter positions, the pre and post
    actions as arrays with their §3.3 effects fixed, one closure per
    caplist and guard, and the principal clause as a selector.
    Compiled code takes the runtime as an argument and keeps none.  A
    name that does not resolve raises where and as evaluation always
    has: [Invalid_argument] for an unknown parameter, [return] in a pre
    or principal clause, or an unregistered iterator, and
    [Ktypes.Unknown_struct] for [sizeof] of an unknown struct. *)

val crossing_of : dir:Annot.Ast.direction -> Annot.Registry.slot -> crossing
(** The declaration compiled for crossings in direction [dir]: the
    first call in the process compiles, later calls return the same
    value. *)

val crossing_decl : crossing -> Annot.Registry.slot

val run_phase :
  t -> module_info -> Principal.t -> crossing -> Annot.Ast.phase -> int64 list -> ret:int64 -> unit
(** Run a crossing's pre or post actions against module-side principal
    [mp], as its wrapper does ([ret] is read by post clauses only):
    each action whose guards hold counts [annotation_actions] and
    charges {!Cost.annotation_action} per capability its caplist names,
    then applies its effect ({!run_action_effect}); under XFI a check
    is skipped whole. *)

val select_principal : t -> module_info -> crossing -> int64 list -> Principal.t
(** The callee principal of a K2M crossing with these arguments. *)

val run_action_effect :
  t -> module_info -> Principal.t -> Capability.t list -> Annot.Ast.cap_effect -> ctx:string -> unit
(** Count and charge one action over [caps], then apply its effect to
    each ({!Annot.Ast.cap_effect}); [ctx] names the action in
    violations and traced [Cap] events. *)

(** {1 Wrappers and guards} *)

val entry_guard : t -> unit
val exit_guard : t -> unit

val call_kexport : t -> kexport -> int64 list -> int64
(** Module→kernel crossing: pre actions against the calling principal,
    the implementation in kernel context, post actions granting back to
    the caller.  From kernel context the implementation runs bare. *)

val run_mir : t -> module_info -> string -> int64 list -> int64
(** Run a module function in its interpreter context, no wrapper. *)

val enter : t -> module_info -> entry -> int64 list -> int64
(** Kernel→module crossing into a bound function, through its compiled
    slot type: principal selection, pre/post actions, shadow stack.
    Under LXFI an unannotated function is not kernel-callable (the safe
    default). *)

val entry : module_info -> string -> entry
(** The entry the loader bound for a function name; a name the module
    does not define enters as an unannotated function. *)

val invoke_module_function : t -> module_info -> string -> int64 list -> int64
(** {!enter} the function of this name: the harnesses' entry, looked up
    by name where the kernel's dispatch table holds the bound entry. *)

val guard_write : t -> module_info -> addr:int -> size:int -> unit
(** The rewriter-inserted store guard: the current principal must hold
    a covering WRITE capability. *)

val guard_indcall : t -> module_info -> target:int -> unit
(** The rewriter-inserted indirect-call guard: the current principal
    must hold CALL for [target]. *)

val kernel_indirect_call :
  t -> slot:int -> ftype:string -> int64 list -> int64
(** [lxfi_check_indcall(pptr, ahash)] (§4.1): writer-set fast path;
    otherwise every writer of [slot] must hold CALL for the stored
    target and the target's annotation hash must match [ftype]'s. *)

(** {1 Privileged runtime calls (module-importable as [lxfi_*])} *)

val lxfi_check : t -> rtype:string -> addr:int -> unit
(** Explicit REF check inserted by module code (Figure 4, line 72). *)

val lxfi_princ_alias : t -> existing:int -> fresh:int -> unit
(** Create name [fresh] for the principal named [existing] (Figure 4,
    line 73). *)

val lxfi_switch_global : t -> unit
(** Switch to the module's global principal for cross-instance state;
    undone when the enclosing wrapper returns (§3.1). *)

(** {1 Interrupts} *)

val irq_enter : t -> int
(** Save the interrupted principal on the shadow stack and enter kernel
    context; returns the token for {!irq_exit}. *)

val irq_exit : t -> int -> unit
