(** Module loader: [insmod] plus LXFI's generated module-initialisation
    function (paper §4.2), in two steps.  {!link} is what the paper's
    rewriter does when a module is built: annotation propagation, the
    flow graph and the rewrite.  It touches no runtime state, charges
    no cycle, fires no injected fault, and records each declaration it
    read.  {!load_image} is the kernel's part: it re-checks those
    records, lays out text/rodata/data/bss/stack, applies initialisers,
    resolves imports, grants the initial capabilities to the shared
    principal (CALL for imports and own functions; WRITE for the
    writable sections, module stack, kernel stack and the user-space
    window — {e nothing} for [.rodata]), registers every function
    behind its wrapper, and builds the interpreter context. *)

exception Load_error of string

val is_builtin : string -> bool
(** Imports named [lxfi_princ_alias], [lxfi_switch_global] or
    [lxfi_check:<type>] resolve to privileged runtime builtins rather
    than kernel exports. *)

val check_env : Runtime.t -> Check.Env.t
(** The static checker's view of this runtime: slot registry, struct
    layouts, registered iterators, annotated kernel exports. *)

(** {1 Images} *)

(** What a link read from its environment. *)
type fact =
  | Config of Config.t  (** [mode], both [opt_*] fields and [strict_check] *)
  | Bound of { func : string; slot : Annot.Registry.slot; field : (string * int) option }
      (** propagation bound [func] to [slot], the registry's declaration,
          from an export declaration or the ops-table [field] (struct,
          offset) whose slot type [slot] is *)
  | Kexport of string * Annot.Registry.slot option
      (** a name's kernel-export declaration, or [None] *)

type image = {
  im_prog : Mir.Ast.prog;  (** the instrumented program *)
  im_report : Rewriter.report;
  im_flow : Check.Apiflow.graph option;  (** self-extracted (Lxfi mode) *)
  im_facts : fact list;
}

exception Stale_image of { module_ : string; fact : fact }
(** The first of an image's facts that does not hold in a runtime. *)

val link : Check.Env.t -> Config.t -> Mir.Ast.prog -> image
(** Raises {!Load_error} on an unknown import, an initialiser naming an
    undefined function or unimported symbol, a propagation refusal
    ({!Check.Capflow.propagate}) or, under [Config.strict_check], a
    static-checker error on the pristine MIR; {!Rewriter.Rewrite_error}
    on unanalysable code. *)

val load_image : Runtime.t -> image -> Runtime.module_info
(** A flow graph registered for the module ({!Runtime.register_flow_graph})
    wins over the image's.  Raises {!Load_error} on a module of that
    name already loaded and {!Stale_image} on a stale fact, both before
    touching the runtime. *)

val load : Runtime.t -> Mir.Ast.prog -> Runtime.module_info * Rewriter.report
(** {!link} against the runtime, then {!load_image}. *)

val linker : Mir.Ast.prog -> Runtime.t -> image
(** [linker prog rt] is [prog]'s image for [rt]'s configuration, linked
    against [rt] on first use and relinked when stale in [rt].  A new
    Lxfi-mode image takes its flow graph from an image the linker
    already holds when that image's kernel-export facts hold in [rt]
    (the graph reads nothing else), and records those facts too, so
    the graph is extracted once per program, not once per config. *)

val unload : Runtime.t -> Runtime.module_info -> unit
(** rmmod: run [module_exit] (if defined) as the shared principal, then
    retire the module's principals, capabilities, callable addresses
    and annotation hashes.  Retirement empties every principal's whole
    capability table — WRITE ranges, CALL targets and REF capabilities
    of {e every} registered rtype ([test_unload.ml] pins the
    multi-rtype case).  Pointers the exit function failed to
    unregister dangle, and a later kernel indirect call through one
    oopses — as on real hardware.  Raises {!Load_error} if the module
    is not loaded. *)

val init_call : Runtime.t -> Runtime.module_info -> string -> int64 list -> int64
(** Run a module initialisation entry point.  Annotated functions go
    through their wrapper; plain init functions run as the shared
    principal (the paper loads modules without isolation before they
    see untrusted input). *)

(** {1 Hot upgrade} *)

type upgrade_report = {
  up_swap_cycles : int;
      (** simulated cycles from drain to resume (module_exit,
          module_init, and one annotation action per capability the
          compatibility check processed) *)
  up_restored : int;  (** capabilities re-granted into the new instance *)
  up_dropped : int;  (** capabilities the compatibility check refused *)
  up_violations_during : int;
      (** violations raised while the swap ran — the violation-free
          oracle requires 0 *)
  up_write_surface_ok : bool;
      (** the old version's write-granting annotation sources are a
          subset of the new version's; when false, {e every} dynamic
          WRITE capability was dropped *)
  up_instances_kept : bool;
      (** every principal-selecting slot of the old version exists,
          annotation-identical, in the new one, so instance principals
          (and their capabilities) survived *)
}

val upgrade :
  Runtime.t -> Runtime.module_info -> image -> Runtime.module_info * upgrade_report
(** [upgrade rt old_mi image] hot-swaps a running module for a new
    version of itself, linked as [image]: drain in-flight entries (synchronous entries are
    watchdog-fuel-bounded, so at kernel top level the module is always
    drained; calling from inside one of the module's own activations is
    a {!Load_error}), snapshot the security state, retire the old
    instance through {!unload} (revoking every dangling grant), load
    the new version ({!load_image}), run its [module_init], then restore the snapshot
    through the compatibility filter: dynamic WRITE capabilities only
    if the old write surface is contained in the new one, CALL only
    toward the new version's imports, REF only for rtypes the new
    annotations can still yield, instance principals only under
    entry-interface preservation, and nothing held by a quarantined
    principal.  A downgraded annotation therefore {e shrinks} the
    restored grant set — never grows it.  Non-pointer global state is
    carried over by name where size and shape match. *)
