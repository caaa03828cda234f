(** Module loader: the analogue of [insmod] plus LXFI's generated
    module-initialisation function (§4.2).

    Loading a module:

    + runs the rewriter over the module's MIR (per the configured mode);
    + lays out text / rodata / data / bss / stack sections in the
      module area of the simulated address space and applies global
      initialisers (including function-pointer initialisers, which are
      how ops tables come into existence);
    + propagates annotations: a function stored into a typed
      function-pointer slot of a known struct, or declared with an
      export slot type, receives that slot type's annotations; two
      conflicting sources are a load error (§4.2, "LXFI verifies that
      these annotations are exactly the same");
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

(** [check_env rt] — the static checker's view of this runtime: slot
    registry, struct layouts, registered iterators, annotated kernel
    exports.  Built fresh on each call (registration may have changed). *)
let check_env (rt : Runtime.t) : Check.Env.t =
  Check.Env.make ~registry:rt.Runtime.registry ~types:rt.Runtime.kst.Kstate.types
    ~iterator_exists:(Hashtbl.mem rt.Runtime.iterators)
    ~kexports:
      (Hashtbl.fold
         (fun _ (ke : Runtime.kexport) acc ->
           {
             Check.Env.kx_name = ke.Runtime.ke_name;
             kx_params = ke.Runtime.ke_params;
             kx_annot = ke.Runtime.ke_annot;
           }
           :: acc)
         rt.Runtime.kexports [])

(** [load rt prog] instruments, lays out, and activates [prog]; returns
    the module handle and the rewriter's report. *)
let load (rt : Runtime.t) (prog : Mir.Ast.prog) : Runtime.module_info * Rewriter.report
    =
  let kst = rt.Runtime.kst in
  if Hashtbl.mem rt.Runtime.modules prog.Mir.Ast.pname then
    fail "module %s already loaded" prog.Mir.Ast.pname;
  (* Strict mode: run the static checker over the pristine (pre-
     instrumentation) MIR and refuse modules with error findings.  The
     pass is load-time only — it charges no simulated cycles and runs
     before any state below is allocated, so enabling it cannot perturb
     guard counters or benchmarks. *)
  if rt.Runtime.config.Config.strict_check then begin
    let findings = Check.Checker.check_module (check_env rt) prog in
    List.iter (fun f -> Klog.diag f.Check.Finding.f_diag) findings;
    let errs = List.filter Check.Finding.is_error findings in
    match errs with
    | [] -> ()
    | first :: _ ->
        fail "module %s: static check failed with %d error(s), first: %s"
          prog.Mir.Ast.pname (List.length errs)
          (Check.Finding.to_string first)
  end;
  (* Syscall-flow policy: a registered (audited) graph wins; otherwise
     self-extract from the pristine MIR, before instrumentation adds
     guard statements.  A faithfully executed module can never leave
     its self-extracted may-follow graph, so self-extraction costs no
     false positives; a registered graph is how skew between audited
     code and loaded binary becomes detectable. *)
  let flow =
    if rt.Runtime.config.Config.mode = Config.Lxfi then
      Some
        (match Hashtbl.find_opt rt.Runtime.flow_graphs prog.Mir.Ast.pname with
        | Some g -> g
        | None -> Check.Apiflow.extract (check_env rt) prog)
    else None
  in
  let prog, report = Rewriter.instrument rt.Runtime.config prog in
  let mname = prog.Mir.Ast.pname in

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
      if is_builtin name then begin
        let addr = Ksym.intern kst.Kstate.sym ("lxfi_builtin:" ^ name) in
        Hashtbl.replace builtin_addrs addr (builtin_impl rt name);
        Hashtbl.replace import_addr name addr
      end
      else
        match Hashtbl.find_opt rt.Runtime.kexports name with
        | Some ke -> Hashtbl.replace import_addr name ke.Runtime.ke_addr
        | None -> fail "module %s imports unknown symbol %s" mname name)
    prog.Mir.Ast.imports;

  (* --- apply global initialisers --- *)
  List.iter
    (fun (g : Mir.Ast.glob) ->
      let base = Hashtbl.find globals_tbl g.Mir.Ast.gname in
      List.iter
        (fun init ->
          match init with
          | Mir.Ast.Iword (off, w, v) ->
              Kmem.write kst.Kstate.mem ~addr:(base + off)
                ~size:(Mir.Ast.bytes_of_width w) v
          | Mir.Ast.Ifunc (off, f) -> (
              match Hashtbl.find_opt func_addr_tbl f with
              | Some a -> Kmem.write_ptr kst.Kstate.mem (base + off) a
              | None -> fail "global %s references unknown function %s" g.Mir.Ast.gname f)
          | Mir.Ast.Iext (off, imp) -> (
              match Hashtbl.find_opt import_addr imp with
              | Some a -> Kmem.write_ptr kst.Kstate.mem (base + off) a
              | None -> fail "global %s references unimported symbol %s" g.Mir.Ast.gname imp))
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
    }
  in

  (* --- annotation propagation (§4.2) --- *)
  let propagate fname slot_name =
    let slot =
      match Annot.Registry.find_opt rt.Runtime.registry slot_name with
      | Some s -> s
      | None -> fail "module %s: function %s exported with unknown slot type %s" mname fname slot_name
    in
    (match Hashtbl.find_opt mi.Runtime.mi_func_slot fname with
    | Some prev when prev.Annot.Registry.sl_name <> slot_name ->
        fail
          "module %s: function %s receives conflicting annotations (%s vs %s)"
          mname fname prev.Annot.Registry.sl_name slot_name
    | _ -> ());
    Hashtbl.replace mi.Runtime.mi_func_slot fname slot;
    match Hashtbl.find_opt func_addr_tbl fname with
    | Some addr ->
        Hashtbl.replace rt.Runtime.func_ahash_by_addr addr slot.Annot.Registry.sl_ahash
    | None -> fail "module %s: exported function %s not defined" mname fname
  in
  List.iter
    (fun (f : Mir.Ast.func) ->
      match f.Mir.Ast.export with Some sl -> propagate f.Mir.Ast.fname sl | None -> ())
    prog.Mir.Ast.funcs;
  List.iter
    (fun (g : Mir.Ast.glob) ->
      match g.Mir.Ast.gstruct with
      | None -> ()
      | Some sname ->
          List.iter
            (fun init ->
              match init with
              | Mir.Ast.Ifunc (off, f) -> (
                  match Ktypes.funcptr_slot kst.Kstate.types sname off with
                  | Some slot_name -> propagate f slot_name
                  | None ->
                      fail
                        "global %s: function pointer %s stored at +%d of struct %s, \
                         which is not a declared slot"
                        g.Mir.Ast.gname f off sname)
              | Mir.Ast.Iword _ | Mir.Ast.Iext _ -> ())
            g.Mir.Ast.ginit)
    prog.Mir.Ast.globals;

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
        ~name:(mname ^ ":" ^ fname)
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
    match Hashtbl.find_opt rt.Runtime.kexport_by_addr addr with
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
  (mi, report)

(** [unload rt mi] — rmmod: run [module_exit] if the module defines one
    (its chance to unregister from every subsystem), then retire the
    module: its principals and all their capabilities disappear, its
    functions stop being callable, and its annotation hashes are
    forgotten.

    Like the real kernel, the loader cannot know about pointers to the
    module that are still stored in kernel data structures; a module
    whose exit function forgets to unregister leaves dangling function
    pointers behind, and a later kernel indirect call through one will
    oops (dispatch to a retired address).  The module's memory itself is
    {e not} recycled — the module area is append-only in this
    simulation, which conveniently makes use-after-unload deterministic
    instead of corrupting an unrelated module. *)
let unload (rt : Runtime.t) (mi : Runtime.module_info) =
  if not (Hashtbl.mem rt.Runtime.modules mi.Runtime.mi_name) then
    fail "module %s is not loaded" mi.Runtime.mi_name;
  if Mir.Ast.find_func mi.Runtime.mi_prog "module_exit" <> None then begin
    let saved = rt.Runtime.current in
    rt.Runtime.current <- Some mi.Runtime.mi_shared;
    (match Runtime.run_mir rt mi "module_exit" [] with
    | _ -> rt.Runtime.current <- saved
    | exception e ->
        rt.Runtime.current <- saved;
        raise e)
  end;
  Runtime.retire_module rt mi;
  Klog.info "unloaded module %s" mi.Runtime.mi_name

(** [init_call rt mi fname args] runs a module initialisation entry
    point ([module_init]) {e without} isolation, as the paper's loader
    does — initialisation happens before the module is exposed to
    untrusted input.  The function still runs under its wrapper if it
    has one; plain init functions run as the shared principal. *)
let init_call rt (mi : Runtime.module_info) fname args =
  match Hashtbl.find_opt mi.Runtime.mi_func_slot fname with
  | Some _ -> Runtime.invoke_module_function rt mi fname args
  | None ->
      let saved = rt.Runtime.current in
      rt.Runtime.current <- Some mi.Runtime.mi_shared;
      let fin () = rt.Runtime.current <- saved in
      (match Runtime.run_mir rt mi fname args with
      | r ->
          fin ();
          r
      | exception e ->
          fin ();
          raise e)

(** {1 Hot upgrade}

    [upgrade] replaces a running module with a new version of itself
    without losing the security state the old instance accumulated:
    dynamically granted capabilities (annotation copies/transfers,
    iterator grants) and non-pointer global state survive the swap —
    but only the subset a compatibility check against the {e new}
    version's annotations admits.  The invariant is monotonicity: an
    upgrade may shrink the restored grant set, never grow it beyond
    what the new annotations could have granted themselves. *)

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

let rec grant_caplists_of_action (a : Annot.Ast.action) acc =
  match a with
  | Annot.Ast.Cif (_, a') -> grant_caplists_of_action a' acc
  | Annot.Ast.Copy cl | Annot.Ast.Transfer cl -> cl :: acc
  | Annot.Ast.Check _ -> acc

let grant_caplists (annot : Annot.Ast.t) =
  List.fold_left
    (fun acc a -> grant_caplists_of_action a acc)
    []
    (Annot.Ast.pre_actions annot @ Annot.Ast.post_actions annot)

(** Can this caplist yield a capability of [shape]?  Inline caplists
    answer exactly; iterator caplists consult the iterator's declared
    shapes ({!Runtime.register_iterator}), treating an undeclared
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
  let prefix = mi.Runtime.mi_name ^ ":" in
  List.exists
    (fun (f : Shadow_stack.frame) -> String.starts_with ~prefix f.Shadow_stack.wrapper)
    rt.Runtime.sstack.Shadow_stack.frames

type upgrade_report = {
  up_swap_cycles : int;  (** simulated cycles from drain to resume *)
  up_restored : int;  (** capabilities re-granted into the new instance *)
  up_dropped : int;  (** capabilities the compatibility check refused *)
  up_violations_during : int;  (** must be 0: the violation-free oracle *)
  up_write_surface_ok : bool;  (** old write surface ⊆ new write surface *)
  up_instances_kept : bool;  (** instance principals survived the swap *)
}

let upgrade (rt : Runtime.t) (old_mi : Runtime.module_info)
    (new_prog : Mir.Ast.prog) :
    Runtime.module_info * Rewriter.report * upgrade_report =
  let mname = old_mi.Runtime.mi_name in
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
  let new_mi, report = load rt new_prog in
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
     granted by [load]. *)
  let allowed_calls = Hashtbl.create 16 in
  List.iter
    (fun name ->
      if is_builtin name then
        Hashtbl.replace allowed_calls
          (Ksym.intern rt.Runtime.kst.Kstate.sym ("lxfi_builtin:" ^ name))
          ()
      else
        match Hashtbl.find_opt rt.Runtime.kexports name with
        | Some ke -> Hashtbl.replace allowed_calls ke.Runtime.ke_addr ()
        | None -> ())
    new_prog.Mir.Ast.imports;
  let filter =
    {
      Snapshot.keep_write =
        (fun ~base ~size -> write_ok && not (overlaps_old ~base ~size));
      keep_call = (fun ~target -> Hashtbl.mem allowed_calls target);
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
  (new_mi, report, upr)
