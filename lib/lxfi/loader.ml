(** Module loader: the analogue of [insmod] plus LXFI's generated
    module-initialisation function (§4.2).

    Loading a module is two steps.  {!link} does what depends only on
    values — the program, the configuration and the declarations it
    reads: it runs the rewriter over the module's MIR (per the
    configured mode), propagates annotations and extracts the flow
    graph, and records each declaration it read.  {!load_image} checks
    those records against the runtime, then:

    + lays out text / rodata / data / bss / stack sections in the
      module area of the simulated address space and applies global
      initialisers (including function-pointer initialisers, which are
      how ops tables come into existence);
    + binds the propagated annotations: a function stored into a typed
      function-pointer slot of a known struct, or declared with an
      export slot type, receives that slot type's annotations
      ({!Check.Capflow.propagate}; two conflicting sources are a link
      error);
    + creates the shared and global principals and grants the initial
      capabilities: CALL for every imported wrapper and own function,
      WRITE for the writable sections, the module stack and the current
      kernel stack — and nothing for [.rodata], which is what defeats
      the unmodified RDS exploit;
    + registers every module function in the kernel's dispatch table so
      kernel indirect calls reach it {e through its wrapper};
    + builds the interpreter context whose guard hooks call into the
      runtime. *)

open Kernel_sim

exception Load_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Load_error s)) fmt

let stack_len = 64 * 1024

(** Imports beginning with [lxfi_] resolve to privileged runtime
    builtins rather than kernel exports.  [lxfi_check:<struct>] checks
    a REF capability of that type for its pointer argument. *)
let is_builtin name =
  name = "lxfi_princ_alias" || name = "lxfi_switch_global"
  || String.length name > 11 && String.sub name 0 11 = "lxfi_check:"

let builtin_impl rt name : int64 list -> int64 =
  if name = "lxfi_princ_alias" then (function
    | [ existing; fresh ] ->
        Runtime.lxfi_princ_alias rt ~existing:(Int64.to_int existing)
          ~fresh:(Int64.to_int fresh);
        0L
    | _ -> fail "lxfi_princ_alias expects 2 arguments")
  else if name = "lxfi_switch_global" then (function
    | [] ->
        Runtime.lxfi_switch_global rt;
        0L
    | _ -> fail "lxfi_switch_global expects no arguments")
  else
    let rtype = String.sub name 11 (String.length name - 11) in
    function
    | [ addr ] ->
        Runtime.lxfi_check rt ~rtype ~addr:(Int64.to_int addr);
        0L
    | _ -> fail "%s expects 1 argument" name

let section_name = function
  | Mir.Ast.Data -> "data"
  | Mir.Ast.Rodata -> "rodata"
  | Mir.Ast.Bss -> "bss"

(** [check_env rt] — the static checker's view of this runtime, read
    through the runtime's own tables. *)
let check_env (rt : Runtime.t) : Check.Env.t =
  let decl (ke : Runtime.kexport) =
    { Check.Env.kx_name = ke.Runtime.ke_name; kx_params = ke.ke_params; kx_annot = ke.ke_annot }
  in
  {
    Check.Env.registry = rt.Runtime.registry;
    types = rt.kst.Kstate.types;
    iterator_exists = Hashtbl.mem rt.iterators;
    kexport = (fun name -> Option.map decl (Hashtbl.find_opt rt.kexports name));
    kexports = (fun () -> Hashtbl.fold (fun _ ke acc -> decl ke :: acc) rt.kexports []);
  }

(** {1 Link: what loading needs that depends only on values} *)

type fact =
  | Config of Config.t
  | Bound of { func : string; slot : Annot.Registry.slot; field : (string * int) option }
  | Kexport of string * Check.Env.kexport_decl option

type image = {
  im_prog : Mir.Ast.prog;
  im_report : Rewriter.report;
  im_flow : Check.Apiflow.graph option;
  im_facts : fact list;
}

exception Stale_image of { module_ : string; fact : fact }

(* The configuration fields [link] reads. *)
let link_fields (c : Config.t) =
  (c.mode, c.opt_rewrite, c.strict_check)

(* [flow] is another image's flow graph of the same program with the
   [Kexport] facts it was linked under, which hold in [env]. *)
let link_with ?flow (env : Check.Env.t) (config : Config.t) (prog : Mir.Ast.prog) : image =
  let mname = prog.Mir.Ast.pname in
  (* Every kernel-export lookup below becomes one of the image's facts. *)
  let read = Hashtbl.create 16 in
  let env =
    let kexport name =
      let d = env.Check.Env.kexport name in
      Hashtbl.replace read name d;
      d
    in
    { env with kexport }
  in
  (* Strict mode: refuse a module the static checker finds errors in,
     on the pristine MIR. *)
  if config.strict_check then begin
    let findings = Check.Checker.check_module env prog in
    List.iter (fun f -> Klog.diag f.Check.Finding.f_diag) findings;
    match List.filter Check.Finding.is_error findings with
    | [] -> ()
    | first :: _ as errs ->
        fail "module %s: static check failed with %d error(s), first: %s" mname
          (List.length errs) (Check.Finding.to_string first)
  end;
  (* Syscall-flow policy, self-extracted from the pristine MIR before
     instrumentation adds guard statements: a faithfully executed
     module never leaves its own may-follow graph. *)
  let flow =
    if config.mode <> Lxfi then None
    else
      match flow with
      | Some (g, kexports) ->
          (* the graph reads only kernel exports: record what it was
             extracted under *)
          List.iter (function Kexport (name, d) -> Hashtbl.replace read name d | _ -> ()) kexports;
          Some g
      | None -> Some (Check.Apiflow.extract env prog)
  in
  let instrumented, report = Rewriter.instrument config prog in
  List.iter
    (fun name ->
      if (not (is_builtin name)) && env.kexport name = None then
        fail "module %s imports unknown symbol %s" mname name)
    prog.imports;
  List.iter
    (fun (g : Mir.Ast.glob) ->
      List.iter
        (function
          | Mir.Ast.Ifunc (_, f) when Mir.Ast.find_func prog f = None ->
              fail "global %s references unknown function %s" g.gname f
          | Iext (_, x) when not (List.mem x prog.imports) ->
              fail "global %s references unimported symbol %s" g.gname x
          | _ -> ())
        g.ginit)
    prog.globals;
  let bindings, refusals = Check.Capflow.propagate env prog in
  (match refusals with (where, msg) :: _ -> fail "%s: %s" where msg | [] -> ());
  {
    im_prog = instrumented;
    im_report = report;
    im_flow = flow;
    im_facts =
      (Config config :: List.map (fun (func, slot, field) -> Bound { func; slot; field }) bindings)
      @ Hashtbl.fold (fun name d facts -> Kexport (name, d) :: facts) read [];
  }

let link env config prog = link_with env config prog

let holds (rt : Runtime.t) = function
  | Config c -> link_fields c = link_fields rt.config
  | Bound { slot; field; _ } -> (
      (match Annot.Registry.find_opt rt.registry slot.sl_name with
      | Some d -> d == slot || d = slot
      | None -> false)
      &&
      match field with
      | None -> true
      | Some (s, off) ->
          Ktypes.mem rt.kst.types s && Ktypes.funcptr_slot rt.kst.types s off = Some slot.sl_name)
  | Kexport (name, decl) -> (
      match (Hashtbl.find_opt rt.kexports name, decl) with
      | None, None -> true
      | Some ke, Some d ->
          (ke.ke_annot == d.kx_annot || ke.ke_annot = d.kx_annot) && ke.ke_params = d.kx_params
      | _ -> false)

let stale rt im = List.find_opt (fun f -> not (holds rt f)) im.im_facts

(** {1 Load: lay out, resolve, grant} *)

(* An import's address: its builtin's symbol or its kernel export, which
   [link] checked it names and [load_image] checks it still does. *)
let resolve (rt : Runtime.t) name =
  if is_builtin name then Ksym.intern rt.kst.Kstate.sym ("lxfi_builtin:" ^ name)
  else (Hashtbl.find rt.kexports name).ke_addr

(* Each kernel export's node id in the enforced graph, by [ke_idx]:
   resolved once here, so no crossing looks a name up. *)
let flow_nodes (rt : Runtime.t) flow =
  let ids = Array.make (Hashtbl.length rt.kexports) (-1) in
  let resolve id name =
    match Hashtbl.find_opt rt.kexports name with Some ke -> ids.(ke.ke_idx) <- id | None -> ()
  in
  Option.iter (fun g -> Array.iteri resolve g.Check.Apiflow.g_names) flow;
  ids

let load_image (rt : Runtime.t) (im : image) : Runtime.module_info =
  let kst = rt.Runtime.kst in
  let prog = im.im_prog in
  let mname = prog.Mir.Ast.pname in
  if Hashtbl.mem rt.Runtime.modules mname then fail "module %s already loaded" mname;
  Option.iter (fun fact -> raise (Stale_image { module_ = mname; fact })) (stale rt im);
  (* A registered (audited) flow graph wins over the self-extracted one:
     that is how skew between audited code and loaded binary becomes
     detectable. *)
  let flow =
    Option.map
      (fun g -> Option.value (Hashtbl.find_opt rt.Runtime.flow_graphs mname) ~default:g)
      im.im_flow
  in

  (* --- text: one fake address per function --- *)
  let nfuncs = List.length prog.Mir.Ast.funcs in
  let text_base = Kstate.alloc_module_area kst (max 16 (16 * nfuncs)) in
  let func_addr_tbl = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Mir.Ast.func) ->
      Hashtbl.replace func_addr_tbl f.Mir.Ast.fname (text_base + (16 * i)))
    prog.Mir.Ast.funcs;

  (* --- data sections --- *)
  let globals_tbl = Hashtbl.create 16 in
  let align16 n = (n + 15) land lnot 15 in
  let layout_section sec =
    let globs =
      List.filter (fun g -> g.Mir.Ast.gsection = sec) prog.Mir.Ast.globals
    in
    if globs = [] then None
    else begin
      let total = List.fold_left (fun acc g -> acc + align16 g.Mir.Ast.gsize) 0 globs in
      let base = Kstate.alloc_module_area kst total in
      let _ =
        List.fold_left
          (fun off g ->
            Hashtbl.replace globals_tbl g.Mir.Ast.gname (base + off);
            off + align16 g.Mir.Ast.gsize)
          0 globs
      in
      Some (section_name sec, base, total)
    end
  in
  let sections =
    List.filter_map layout_section [ Mir.Ast.Rodata; Mir.Ast.Data; Mir.Ast.Bss ]
  in
  let stack_base = Kstate.alloc_module_area kst stack_len in

  (* --- resolve imports --- *)
  let builtin_addrs = Hashtbl.create 4 in
  let import_addr = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let addr = resolve rt name in
      if is_builtin name then Hashtbl.replace builtin_addrs addr (builtin_impl rt name);
      Hashtbl.replace import_addr name addr)
    prog.Mir.Ast.imports;

  (* --- apply global initialisers --- *)
  List.iter
    (fun (g : Mir.Ast.glob) ->
      let base = Hashtbl.find globals_tbl g.Mir.Ast.gname in
      List.iter
        (function
          | Mir.Ast.Iword (off, w, v) ->
              Kmem.write kst.Kstate.mem ~addr:(base + off)
                ~size:(Mir.Ast.bytes_of_width w) v
          | Mir.Ast.Ifunc (off, f) ->
              Kmem.write_ptr kst.Kstate.mem (base + off) (Hashtbl.find func_addr_tbl f)
          | Mir.Ast.Iext (off, imp) ->
              Kmem.write_ptr kst.Kstate.mem (base + off) (Hashtbl.find import_addr imp))
        g.Mir.Ast.ginit)
    prog.Mir.Ast.globals;

  (* --- principals and module record --- *)
  let shared = Principal.make ~kind:Principal.Shared ~owner:mname ~primary_name:0 in
  let global = Principal.make ~kind:Principal.Global ~owner:mname ~primary_name:0 in
  let mi : Runtime.module_info =
    {
      Runtime.mi_name = mname;
      mi_prog = prog;
      mi_shared = shared;
      mi_global = global;
      mi_principals = [ shared; global ];
      mi_aliases = Hashtbl.create 8;
      mi_globals = globals_tbl;
      mi_func_addr = func_addr_tbl;
      mi_func_slot = Hashtbl.create 8;
      mi_ctx = None;
      mi_sections = sections;
      mi_stack_base = stack_base;
      mi_stack_len = stack_len;
      mi_dead = None;
      mi_recent_violations = [];
      mi_recent_kinds = [];
      mi_last_entry = None;
      mi_flow = flow;
      mi_flow_node = flow_nodes rt flow;
    }
  in

  (* --- the annotations [link] propagated (§4.2) --- *)
  List.iter
    (function
      | Bound { func; slot; _ } ->
          Hashtbl.replace mi.Runtime.mi_func_slot func slot;
          Inttbl.replace rt.Runtime.func_ahash_by_addr (Hashtbl.find func_addr_tbl func)
            slot.Annot.Registry.sl_ahash
      | Config _ | Kexport _ -> ())
    im.im_facts;

  (* --- initial capabilities (granted to the shared principal) --- *)
  if rt.Runtime.config.Config.mode <> Config.Stock then begin
    Hashtbl.iter
      (fun _ addr -> Runtime.grant rt shared (Capability.Ccall { target = addr }))
      func_addr_tbl;
    Hashtbl.iter
      (fun _ addr -> Runtime.grant rt shared (Capability.Ccall { target = addr }))
      import_addr;
    List.iter
      (fun (name, base, len) ->
        if name <> "rodata" then
          Runtime.grant rt shared (Capability.Cwrite { base; size = len }))
      sections;
    Runtime.grant rt shared (Capability.Cwrite { base = stack_base; size = stack_len });
    Runtime.grant rt shared
      (Capability.Cwrite
         { base = rt.Runtime.kernel_stack_base; size = rt.Runtime.kernel_stack_len });
    (* Blanket user-space window: uaccess helpers (copy_to_user and
       friends) write to user memory on the module's behalf, and user
       memory carries no kernel integrity.  Kernel addresses are what
       the WRITE discipline protects. *)
    Runtime.grant rt shared
      (Capability.Cwrite
         {
           base = Kmem.Layout.user_base;
           size = Kmem.Layout.user_top - Kmem.Layout.user_base;
         })
  end;

  (* --- make module functions kernel-callable (through wrappers) --- *)
  List.iter
    (fun (f : Mir.Ast.func) ->
      let fname = f.Mir.Ast.fname in
      let addr = Hashtbl.find func_addr_tbl fname in
      Kstate.register_target kst
        ~name:(Runtime.wrapper_name mname fname)
        ~addr ~kind:(Kstate.Module_fn mname)
        (fun args -> Quarantine.dispatch rt mi fname args))
    prog.Mir.Ast.funcs;

  (* --- interpreter context --- *)
  let global_addr name =
    match Hashtbl.find_opt globals_tbl name with
    | Some a -> a
    | None -> raise (Kstate.Oops (Printf.sprintf "module %s: unknown global %s" mname name))
  in
  let func_addr name =
    match Hashtbl.find_opt func_addr_tbl name with
    | Some a -> a
    | None -> raise (Kstate.Oops (Printf.sprintf "module %s: unknown function %s" mname name))
  in
  let ext_addr name =
    match Hashtbl.find_opt import_addr name with
    | Some a -> a
    | None -> raise (Kstate.Oops (Printf.sprintf "module %s: %s not imported" mname name))
  in
  let call_ext addr args =
    match Inttbl.find_opt rt.Runtime.kexport_by_addr addr with
    | Some ke -> Runtime.call_kexport rt ke args
    | None -> (
        match Hashtbl.find_opt builtin_addrs addr with
        | Some impl -> impl args
        | None -> (
            (* A non-import target (kernel callback, another module's
               function, or — in stock mode — anything at all). *)
            match Kstate.target_of kst addr with
            | Some tg -> tg.Kstate.t_run args
            | None ->
                raise (Kstate.Oops (Printf.sprintf "call to bad address 0x%x" addr))))
  in
  let ctx =
    Mir.Interp.create ~kst ~prog ~global_addr ~func_addr ~ext_addr ~call_ext
      ~guard_write:(fun ~addr ~size -> Runtime.guard_write rt mi ~addr ~size)
      ~guard_indcall:(fun ~target -> Runtime.guard_indcall rt mi ~target)
      ~on_entry:(fun _ -> Runtime.entry_guard rt)
      ~on_exit:(fun _ -> Runtime.exit_guard rt)
      ~hooks_enabled:(rt.Runtime.config.Config.mode <> Config.Stock)
      ~stack_base ~stack_len
  in
  mi.Runtime.mi_ctx <- Some ctx;
  Hashtbl.replace rt.Runtime.modules mname mi;
  Klog.info "loaded module %s (%d functions, %d globals, mode %s)" mname nfuncs
    (List.length prog.Mir.Ast.globals)
    (Config.mode_name rt.Runtime.config.Config.mode);
  mi

(** [load rt prog] links [prog] against this runtime and loads it;
    returns the module handle and the rewriter's report. *)
let load rt prog =
  let im = link (check_env rt) rt.Runtime.config prog in
  (load_image rt im, im.im_report)

(* An image's flow graph with the kernel-export facts it was linked
   under, when they all hold in [rt]: the graph depends on nothing else
   but the program. *)
let reusable_flow rt im =
  let kexports = List.filter (function Kexport _ -> true | _ -> false) im.im_facts in
  match im.im_flow with
  | Some g when List.for_all (holds rt) kexports -> Some (g, kexports)
  | _ -> None

let linker prog =
  let images = ref [] in
  fun (rt : Runtime.t) ->
    let config = rt.Runtime.config in
    match List.assoc_opt config !images with
    | Some im when stale rt im = None -> im
    | _ ->
        let flow = List.find_map (fun (_, im) -> reusable_flow rt im) !images in
        let im = link_with ?flow (check_env rt) config prog in
        images := (config, im) :: List.remove_assoc config !images;
        im

(* Run [fname] as [mi]'s shared principal, outside any wrapper. *)
let run_as_shared (rt : Runtime.t) (mi : Runtime.module_info) fname args =
  let saved = rt.Runtime.current in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  Fun.protect
    ~finally:(fun () -> rt.Runtime.current <- saved)
    (fun () -> Runtime.run_mir rt mi fname args)

(** [unload rt mi] — rmmod.  The module's memory is {e not} recycled:
    the module area is append-only in this simulation, which makes
    use-after-unload deterministic instead of corrupting an unrelated
    module. *)
let unload (rt : Runtime.t) (mi : Runtime.module_info) =
  if not (Hashtbl.mem rt.Runtime.modules mi.Runtime.mi_name) then
    fail "module %s is not loaded" mi.Runtime.mi_name;
  if Mir.Ast.find_func mi.Runtime.mi_prog "module_exit" <> None then
    ignore (run_as_shared rt mi "module_exit" []);
  Runtime.retire_module rt mi;
  Klog.info "unloaded module %s" mi.Runtime.mi_name

(** [init_call rt mi fname args] runs an initialisation entry point
    {e without} isolation, as the paper's loader does: initialisation
    happens before the module sees untrusted input. *)
let init_call rt (mi : Runtime.module_info) fname args =
  match Hashtbl.find_opt mi.Runtime.mi_func_slot fname with
  | Some _ -> Runtime.invoke_module_function rt mi fname args
  | None -> run_as_shared rt mi fname args

(** {1 Hot upgrade}

    The invariant is monotonicity: an upgrade may shrink the restored
    grant set, never grow it beyond what the new annotations could have
    granted themselves. *)

(** A version's {e grant surface}: for each grant source — an exported
    slot type or an imported annotated kernel export — the caplists its
    copy/transfer actions can execute, plus the slot types that select
    instance principals.  Check actions are excluded: checking never
    grants. *)
type surface = {
  su_sources : (string * Annot.Ast.caplist list) list;
      (** grant source id ([slot:<name>#<ahash>] / [kexport:<name>])
          with its grant-position caplists *)
  su_principal_slots : (string * int64) list;
      (** slot types carrying [principal(expr)], as (name, ahash) *)
}

let grant_caplists (annot : Annot.Ast.t) =
  List.filter_map
    (fun a -> match Check.Capflow.leaf_caplist a with `Check, _ -> None | _, cl -> Some cl)
    (Annot.Ast.pre_actions annot @ Annot.Ast.post_actions annot)

(** Can this caplist yield a capability of [shape]?  Inline caplists
    answer exactly; iterator caplists consult the iterator's declared
    shapes ({!Runtime.register_iterator}), treating an unknown
    iterator as able to yield anything — the conservative direction for
    a subset check on the {e old} side and for membership on the new. *)
let caplist_yields rt (cl : Annot.Ast.caplist) (shape : Runtime.cap_shape) =
  match cl with
  | Annot.Ast.Inline (ct, _, _) -> (
      match (ct, shape) with
      | Annot.Ast.Write, Runtime.Swrite -> true
      | Annot.Ast.Call, Runtime.Scall -> true
      | Annot.Ast.Ref r, Runtime.Sref r' -> String.equal r r'
      | _ -> false)
  | Annot.Ast.Iter (name, _) -> Runtime.iterator_can_yield rt ~name shape

let surface_of (rt : Runtime.t) (mi : Runtime.module_info) : surface =
  let slots =
    Hashtbl.fold (fun _ sl acc -> sl :: acc) mi.Runtime.mi_func_slot []
    |> List.sort_uniq (fun (a : Annot.Registry.slot) (b : Annot.Registry.slot) ->
           compare
             (a.Annot.Registry.sl_name, a.Annot.Registry.sl_ahash)
             (b.Annot.Registry.sl_name, b.Annot.Registry.sl_ahash))
  in
  let slot_sources =
    List.map
      (fun (sl : Annot.Registry.slot) ->
        ( Printf.sprintf "slot:%s#%Lx" sl.Annot.Registry.sl_name
            sl.Annot.Registry.sl_ahash,
          grant_caplists sl.Annot.Registry.sl_annot ))
      slots
  in
  let kexport_sources =
    List.filter_map
      (fun name ->
        if is_builtin name then None
        else
          match Hashtbl.find_opt rt.Runtime.kexports name with
          | Some ke -> Some ("kexport:" ^ name, grant_caplists ke.Runtime.ke_annot)
          | None -> None)
      (List.sort_uniq compare mi.Runtime.mi_prog.Mir.Ast.imports)
  in
  let principal_slots =
    List.filter_map
      (fun (sl : Annot.Registry.slot) ->
        match Annot.Ast.principal_of sl.Annot.Registry.sl_annot with
        | Some (Annot.Ast.Pexpr _) ->
            Some (sl.Annot.Registry.sl_name, sl.Annot.Registry.sl_ahash)
        | _ -> None)
      slots
  in
  { su_sources = slot_sources @ kexport_sources; su_principal_slots = principal_slots }

(** Source ids whose grant caplists can yield WRITE — the write
    surface.  A dynamic WRITE capability in a snapshot carries no
    provenance, so the compatibility check is all-or-nothing: every old
    write source must survive into the new version or {e every} dynamic
    WRITE is dropped.  Sound (never restores what the new annotations
    could not grant) at the price of precision. *)
let write_surface rt (s : surface) =
  List.filter_map
    (fun (id, cls) ->
      if List.exists (fun cl -> caplist_yields rt cl Runtime.Swrite) cls then Some id
      else None)
    s.su_sources
  |> List.sort_uniq compare

let surface_yields rt (s : surface) shape =
  List.exists
    (fun (_, cls) -> List.exists (fun cl -> caplist_yields rt cl shape) cls)
    s.su_sources

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

(** Does the shadow stack hold a wrapper frame of this module — i.e. is
    a kernel→module entry (or one of its nested crossings) still in
    flight? *)
let in_flight (rt : Runtime.t) (mi : Runtime.module_info) =
  let enters = Runtime.enters_module mi.Runtime.mi_name in
  List.exists
    (fun (f : Shadow_stack.frame) -> enters f.Shadow_stack.wrapper)
    rt.Runtime.sstack.Shadow_stack.frames

type upgrade_report = {
  up_swap_cycles : int;  (** simulated cycles from drain to resume *)
  up_restored : int;  (** capabilities re-granted into the new instance *)
  up_dropped : int;  (** capabilities the compatibility check refused *)
  up_violations_during : int;  (** must be 0: the violation-free oracle *)
  up_write_surface_ok : bool;  (** old write surface ⊆ new write surface *)
  up_instances_kept : bool;  (** instance principals survived the swap *)
}

let upgrade (rt : Runtime.t) (old_mi : Runtime.module_info) (im : image) :
    Runtime.module_info * upgrade_report =
  let mname = old_mi.Runtime.mi_name in
  let new_prog = im.im_prog in
  if new_prog.Mir.Ast.pname <> mname then
    fail "upgrade: replacement program is named %s, expected %s"
      new_prog.Mir.Ast.pname mname;
  if not (Hashtbl.mem rt.Runtime.modules mname) then
    fail "upgrade: module %s is not loaded" mname;
  (* Drain.  Kernel→module entries are synchronous and watchdog-fuel-
     bounded, so by the time the kernel regains control every in-flight
     entry has completed (or expired) within its fuel budget — at
     kernel top level the module is always drained.  Finding a live
     wrapper frame here means upgrade was invoked from inside one of
     the module's own activations, which cannot be drained. *)
  if in_flight rt old_mi then
    fail "upgrade: module %s has in-flight kernel entries" mname;
  let snap = Snapshot.capture rt old_mi in
  let old_surface = surface_of rt old_mi in
  let old_mem = Snapshot.owned_ranges old_mi in
  let overlaps_old ~base ~size =
    List.exists (fun (b, l) -> base < b + l && b < base + size) old_mem
  in
  let cycles0 = Kcycles.total rt.Runtime.kst.Kstate.cycles in
  let viol0 = rt.Runtime.stats.Stats.violations in
  unload rt old_mi;
  let new_mi = load_image rt im in
  if Mir.Ast.find_func new_mi.Runtime.mi_prog "module_init" <> None then
    ignore (init_call rt new_mi "module_init" []);
  let new_surface = surface_of rt new_mi in
  let write_ok =
    subset (write_surface rt old_surface) (write_surface rt new_surface)
  in
  let instances_ok =
    (* Entry-interface preservation: every principal-selecting slot of
       the old version must exist, annotation-identical, in the new one
       — otherwise a restored instance principal could be selected by
       an entry whose contract changed under it. *)
    subset old_surface.su_principal_slots new_surface.su_principal_slots
  in
  (* CALL capabilities may only be restored toward targets the new
     version could legitimately call: its own imports (kernel exports
     and builtins keep their interned addresses across versions).  Old
     text addresses are retired; the new version's own functions were
     granted by [load_image]. *)
  let allowed_calls = List.map (resolve rt) new_prog.Mir.Ast.imports in
  let filter =
    {
      Snapshot.keep_write =
        (fun ~base ~size -> write_ok && not (overlaps_old ~base ~size));
      keep_call = (fun ~target -> List.mem target allowed_calls);
      keep_ref =
        (fun ~rtype ~addr:_ -> surface_yields rt new_surface (Runtime.Sref rtype));
      keep_instances = instances_ok;
    }
  in
  let rr = Snapshot.restore_filtered rt new_mi snap filter in
  (* Restored capabilities are real grants into live tables (and the
     refused ones real revocations), so the guard counters account for
     them — that is what lets a campaign reconcile counters across the
     swap.  Each processed capability costs one annotation action of
     simulated time, charged here because [Snapshot] itself is pure. *)
  rt.Runtime.stats.Stats.caps_granted <-
    rt.Runtime.stats.Stats.caps_granted + rr.Snapshot.rr_restored;
  rt.Runtime.stats.Stats.caps_revoked <-
    rt.Runtime.stats.Stats.caps_revoked + rr.Snapshot.rr_dropped;
  Kcycles.charge rt.Runtime.kst.Kstate.cycles Kcycles.Guard
    (Runtime.Cost.annotation_action * (rr.Snapshot.rr_restored + rr.Snapshot.rr_dropped));
  let upr =
    {
      up_swap_cycles = Kcycles.total rt.Runtime.kst.Kstate.cycles - cycles0;
      up_restored = rr.Snapshot.rr_restored;
      up_dropped = rr.Snapshot.rr_dropped;
      up_violations_during = rt.Runtime.stats.Stats.violations - viol0;
      up_write_surface_ok = write_ok;
      up_instances_kept = instances_ok;
    }
  in
  Klog.info "upgraded module %s: %d caps restored, %d dropped, %d simulated cycles"
    mname upr.up_restored upr.up_dropped upr.up_swap_cycles;
  (new_mi, upr)
