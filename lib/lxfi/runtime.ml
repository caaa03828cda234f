(** The LXFI runtime (§5): reference monitor on every control transfer
    between the core kernel and modules.

    Responsibilities, mirroring Figure 6 of the paper:

    - track principals per module (shared / global / pointer-named
      instances, with aliases);
    - maintain per-principal capability tables and perform the
      grant/revoke/check operations that annotations prescribe;
    - run {e wrappers} around every kernel→module and module→kernel
      call: shadow-stack push/pop, principal switch, pre and post
      annotation actions;
    - check module stores ([guard_write]) and module indirect calls
      ([guard_indcall]) — the guards the rewriter inserted;
    - check core-kernel indirect calls through module-writable slots
      ([kernel_indirect_call]), with the writer-set fast path;
    - expose the privileged runtime calls modules may invoke directly
      ([lxfi_check], [lxfi_princ_alias], [lxfi_switch_global]). *)

open Kernel_sim

(** Simulated cycle cost of each guard type, charged to the Guard
    category.  These are model constants calibrated so that the netperf
    reproduction exhibits the paper's Figure 12 shape (TCP unchanged,
    UDP TX −35%, CPU 2.2–3.7×); the host-measured ns-per-guard numbers
    of Figure 13 are measured separately by the benchmark harness. *)
module Cost = struct
  let annotation_action = 90
  let fn_entry = 8
  let fn_exit = 7
  let mem_write_check = 12
  let mod_indcall_check = 14
  let kernel_indcall_check = 30
  let kernel_indcall_fastpath = 3
  let principal_switch = 8
end

type module_info = {
  mi_name : string;
  mi_prog : Mir.Ast.prog;  (** instrumented program *)
  mi_shared : Principal.t;
  mi_global : Principal.t;
  mutable mi_principals : Principal.t list;  (** all, including shared+global *)
  mi_aliases : Principal.t Inttbl.t;  (** name pointer -> principal *)
  mi_globals : (string, int) Hashtbl.t;
  mi_func_addr : (string, int) Hashtbl.t;
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
          is the episode's root cause (later entries are usually
          [Principal_denied] bounces off the already-quarantined
          principal) *)
  mutable mi_last_entry : (string * int64 list) option;
      (** innermost kernel→module entry (function, args) — recorded by
          the quarantine dispatcher so a faulting entry can be replayed
          against a repaired instance *)
  mutable mi_flow : Check.Apiflow.graph option;
      (** enforced kernel-API flow graph (set by the loader in Lxfi
          mode: a registered policy graph if one exists, else
          self-extracted from the pristine MIR) *)
  mi_flow_node : int array;
      (** each kernel export's node id in [mi_flow] ([-1]: none), by [ke_idx] *)
}

(** A module function as the loader binds it for kernel entry. *)
and entry = {
  en_fname : string;
  en_wrapper : string;  (** {!wrapper_name} of the module and function *)
  en_crossing : crossing option;  (** its propagated slot type's; [None]: unannotated *)
}

(** A declaration compiled for one direction of crossing. *)
and crossing = {
  cr_decl : Annot.Registry.slot;
  cr_arity : int;
  cr_pre : action array;
  cr_post : action array;
  cr_principal : selector;
}

(** One action: its [if] conditions outermost first, its caplist, and
    what it does to each capability in this direction and phase. *)
and action = {
  act_guards : cexpr list;
  act_caps : caplist;
  act_effect : Annot.Ast.cap_effect;
  act_check : bool;  (** a [check], which XFI skips whole *)
  act_ctx : string;  (** the trace context of its grants and revocations *)
}

and selector = Sel_shared | Sel_global | Sel_instance of cexpr

(* A compiled expression or caplist: its value given the runtime, the
   call's arguments and, in a post clause, its return value. *)
and cexpr = t -> int64 list -> int64 -> int64
and caplist = t -> int64 list -> int64 -> Capability.t list

and kexport = {
  ke_decl : Annot.Registry.slot;
  ke_addr : int;
  ke_idx : int;
  ke_impl : int64 list -> int64;
  ke_crossing : crossing;
}

and t = {
  kst : Kstate.t;
  config : Config.t;
  registry : Annot.Registry.t;
  stats : Stats.t;
  wset : Writer_set.t;
  modules : (string, module_info) Hashtbl.t;
  mutable homes : module_info option array;
      (** the loaded modules again, by [Principal.home] *)
  kexports : (string, kexport) Hashtbl.t;
  kexport_by_addr : kexport Inttbl.t;
  flow_graphs : (string, Check.Apiflow.graph) Hashtbl.t;
      (** registered flow policies by module name; a module with no
          entry self-extracts its graph at load time *)
  mutable iterators : (Annot.Ast.captype list * (int64 list -> Capability.t list)) option array;
      (** per iterator number ({!iterator_id}): the capability kinds it
          can yield, and the iterator *)
  func_ahash_by_addr : int64 Inttbl.t;
  mutable current : Principal.t option;  (** None = kernel context *)
  sstack : Shadow_stack.t;
  raw_dispatch : slot:int -> ftype:string -> int64 list -> int64;
  kernel_stack_base : int;
  kernel_stack_len : int;
  retired : string Inttbl.t;
      (** retired callable address -> owning module (dangling-pointer
          attribution after unload/escalation) *)
  mutable quarantine_log : Diag.t list;
      (** structured quarantine/escalation diagnostics, newest first *)
  mutable last_callee : Principal.t option;
      (** callee principal of the innermost kernel→module entry; lets
          the quarantine policy attribute faults ([Kmem.Fault]/[Oops])
          that carry no principal of their own *)
  mutable last_violation : Violation.info option;
      (** most recent violation the quarantine policy handled *)
  mutable on_escalate : (module_info -> reason:string -> unit) list;
      (** observers called at the start of escalation, before any
          principal is quarantined — the hook the repair subsystem uses
          to capture the pre-retirement snapshot and trace window *)
}

let charge rt n = Kcycles.charge rt.kst.Kstate.cycles Kcycles.Guard n

(** [attach_trace rt buf] wires the {!Trace} subsystem to this runtime:
    events are stamped from the simulated cycle counters and the current
    principal.  Tracing stays zero-cost when unattached — every hook
    site below checks [!Trace.on] before constructing anything — and
    formats no text when attached; emitting never charges cycles. *)
let attach_trace rt buf =
  Trace.attach buf ~cycles:rt.kst.Kstate.cycles
    ~principal:(fun () ->
      match rt.current with None -> "(kernel)" | Some p -> Principal.describe p)

let create ~kst ~(config : Config.t) =
  let registry = Annot.Registry.create () in
  let kernel_stack_len = 16 * 1024 in
  let kernel_stack_base = Kstate.alloc_stack kst (2 * kernel_stack_len) in
  (* The shadow stack lies adjacent to the thread's kernel stack (§5)
     but is never covered by any WRITE capability. *)
  let sstack =
    Shadow_stack.create ~mem_base:(kernel_stack_base + kernel_stack_len)
      ~mem_len:kernel_stack_len
  in
  let raw_dispatch = kst.Kstate.indcall in
  let rt =
    {
      kst;
      config;
      registry;
      stats = Stats.create ();
      wset = Writer_set.create ();
      modules = Hashtbl.create 16;
      homes = [||];
      kexports = Hashtbl.create 64;
      kexport_by_addr = Inttbl.create 64;
      flow_graphs = Hashtbl.create 8;
      iterators = [||];
      func_ahash_by_addr = Inttbl.create 64;
      current = None;
      sstack;
      raw_dispatch;
      kernel_stack_base;
      kernel_stack_len;
      retired = Inttbl.create 16;
      quarantine_log = [];
      last_callee = None;
      last_violation = None;
      on_escalate = [];
    }
  in
  rt

let module_named rt name = Hashtbl.find_opt rt.modules name

(** The loaded module a principal belongs to: the one loaded under its
    owner's name, found by the name's number. *)
let module_of rt (p : Principal.t) =
  let h = p.Principal.home in
  if h < Array.length rt.homes then Array.unsafe_get rt.homes h else None

(* [a] with room for index [i], new slots [None]. *)
let grown a i =
  if i < Array.length a then a
  else begin
    let b = Array.make (max (i + 1) (2 * Array.length a)) None in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(** [add_module rt mi] makes [mi] the loaded module of its name. *)
let add_module rt mi =
  Hashtbl.replace rt.modules mi.mi_name mi;
  let h = mi.mi_shared.Principal.home in
  rt.homes <- grown rt.homes h;
  rt.homes.(h) <- Some mi

let current_module rt = Option.bind rt.current (module_of rt)

(** The name of the wrapper frame around kernel→module entries into
    [fname] of module [mname], which is also the function's name in the
    kernel's dispatch table. *)
let wrapper_name mname fname = mname ^ ":" ^ fname

(** [enters_module mname] recognises the wrapper names {!wrapper_name}
    builds for module [mname]. *)
let enters_module mname =
  let prefix = wrapper_name mname "" in
  fun wrapper -> String.starts_with ~prefix wrapper

(** Fault location of a module's innermost executing function, e.g.
    ["entry@1234"] (function name @ interpreter step count). *)
let where_of mi =
  match mi.mi_ctx with
  | Some ctx when ctx.Mir.Interp.cur_fn <> "" ->
      Some (Printf.sprintf "%s@%d" ctx.Mir.Interp.cur_fn (Mir.Interp.steps ctx))
  | _ -> None

(** [retire_module rt mi] pulls every kernel-callable address the
    module registered out of the dispatch tables, records it in
    [rt.retired], and empties every principal's capability table —
    WRITE ranges, CALL targets, and REF capabilities of {e every}
    registered rtype.  The explicit clear matters because principal
    records can outlive the module (saved [current] pointers, alias
    tables, snapshots holding a [Principal.t]): a retired module must
    hold nothing, not merely be unreachable.  The retirement path is
    shared by [Loader.unload] and quarantine escalation. *)
let retire_module rt mi =
  Hashtbl.iter
    (fun _fname addr ->
      Inttbl.remove rt.kst.Kstate.calltab addr;
      Inttbl.remove rt.func_ahash_by_addr addr;
      Inttbl.replace rt.retired addr mi.mi_name)
    mi.mi_func_addr;
  List.iter
    (fun (p : Principal.t) -> Captable.clear p.Principal.caps)
    mi.mi_principals;
  Hashtbl.remove rt.modules mi.mi_name;
  let h = mi.mi_shared.Principal.home in
  if h < Array.length rt.homes then rt.homes.(h) <- None

(** {1 Compiled crossings}

    Each annotated declaration is compiled once per process for the
    direction it is crossed in ({!crossing_of}), and kept on the
    declaration: parameters become positions, each action's §3.3 effect
    is fixed, each caplist and guard becomes one closure, and the
    principal clause becomes a selector.  Compiled code receives the
    runtime as an argument and never keeps one.  A name that does not
    resolve compiles to code that raises where evaluation would: an
    unknown parameter, [return] in a pre or principal clause, an
    unregistered iterator, an unknown struct in [sizeof]. *)

(* Capability iterator names, numbered in the order this process first
   sees them; each runtime keeps its iterators in an array by number. *)
let iterator_ids : (string, int) Hashtbl.t = Hashtbl.create 16

let iterator_id name =
  match Hashtbl.find_opt iterator_ids name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length iterator_ids in
      Hashtbl.add iterator_ids name i;
      i

let iterator_at rt i = if i < Array.length rt.iterators then rt.iterators.(i) else None
let iterator_named rt name = Option.bind (Hashtbl.find_opt iterator_ids name) (iterator_at rt)
let find_iterator rt name = Option.map snd (iterator_named rt name)

(* [p]'s position among [params] (the first, if repeated). *)
let param_index p params =
  let rec go i = function
    | [] -> None
    | q :: params -> if String.equal q p then Some i else go (i + 1) params
  in
  go 0 params

let rec compile_eval_cexpr ~params ~post (e : Annot.Ast.cexpr) : cexpr =
  match e with
  | Annot.Ast.Cint n -> fun _ _ _ -> n
  | Annot.Ast.Cparam p -> (
      match param_index p params with
      | Some i -> fun _ args _ -> List.nth args i
      | None ->
          let msg = Printf.sprintf "annotation references unknown parameter %s" p in
          fun _ _ _ -> invalid_arg msg)
  | Annot.Ast.Creturn ->
      if post then fun _ _ ret -> ret
      else fun _ _ _ -> invalid_arg "annotation references return value in pre context"
  | Annot.Ast.Cneg e ->
      let e = compile_eval_cexpr ~params ~post e in
      fun rt args ret -> Int64.neg (e rt args ret)
  | Annot.Ast.Csizeof s -> fun rt _ _ -> Int64.of_int (Ktypes.sizeof rt.kst.Kstate.types s)
  | Annot.Ast.Cbin (op, a, b) ->
      let a = compile_eval_cexpr ~params ~post a in
      let b = compile_eval_cexpr ~params ~post b in
      fun rt args ret ->
        let va = a rt args ret in
        let vb = b rt args ret in
        Annot.Ast.eval_binop op va vb

let compile_caps_of_caplist ~params ~post (cl : Annot.Ast.caplist) : caplist =
  match cl with
  | Annot.Ast.Inline (ct, pe, se) -> (
      let pe = compile_eval_cexpr ~params ~post pe in
      match (ct, se) with
      | Annot.Ast.Write, Some se ->
          let se = compile_eval_cexpr ~params ~post se in
          fun rt args ret ->
            let base = Int64.to_int (pe rt args ret) in
            let size = Int64.to_int (se rt args ret) in
            if size <= 0 then [] else [ Capability.Cwrite { base; size } ]
      | Annot.Ast.Write, None ->
          (* documented default when no referent type is known *)
          fun rt args ret ->
            [ Capability.Cwrite { base = Int64.to_int (pe rt args ret); size = 8 } ]
      | Annot.Ast.Call, _ ->
          fun rt args ret -> [ Capability.Ccall { target = Int64.to_int (pe rt args ret) } ]
      | Annot.Ast.Ref rtype, _ ->
          fun rt args ret -> [ Capability.Cref { rtype; addr = Int64.to_int (pe rt args ret) } ])
  | Annot.Ast.Iter (name, argexprs) ->
      let id = iterator_id name and es = List.map (compile_eval_cexpr ~params ~post) argexprs in
      let missing = Printf.sprintf "unknown capability iterator %s" name in
      fun rt args ret ->
        match iterator_at rt id with
        | Some (_, fn) -> fn (List.map (fun e -> e rt args ret) es)
        | None -> invalid_arg missing

let compile_run_action ~dir ~phase ~params a =
  let verb, cl, guards = Annot.Ast.leaf a in
  let post = phase = `Post in
  {
    act_guards = List.map (compile_eval_cexpr ~params ~post) guards;
    act_caps = compile_caps_of_caplist ~params ~post cl;
    act_effect = Annot.Ast.cap_effect ~dir ~phase verb;
    act_check = verb = `Check;
    act_ctx =
      (let phase = if post then "(post)" else "(pre)" in
       match verb with
       | `Check -> "check"
       | `Copy -> "copy" ^ phase
       | `Transfer -> "transfer" ^ phase);
  }

let compile_crossing ~dir (d : Annot.Registry.slot) =
  let params = d.Annot.Registry.sl_params and annot = d.Annot.Registry.sl_annot in
  let actions phase clauses =
    Array.of_list (List.map (compile_run_action ~dir ~phase ~params) clauses)
  in
  {
    cr_decl = d;
    cr_arity = List.length params;
    cr_pre = actions `Pre (Annot.Ast.pre_actions annot);
    cr_post = actions `Post (Annot.Ast.post_actions annot);
    cr_principal =
      (match Annot.Ast.principal_of annot with
      | None | Some Annot.Ast.Pshared -> Sel_shared
      | Some Annot.Ast.Pglobal -> Sel_global
      | Some (Annot.Ast.Pexpr e) -> Sel_instance (compile_eval_cexpr ~params ~post:false e));
  }

let k2m_key : crossing Annot.Registry.key = Annot.Registry.key ()
let m2k_key : crossing Annot.Registry.key = Annot.Registry.key ()

(** [crossing_of ~dir d] — [d] compiled for crossings in direction
    [dir], made the first time this process asks. *)
let crossing_of ~dir d =
  match dir with
  | Annot.Ast.K2M -> Annot.Registry.derive k2m_key (compile_crossing ~dir) d
  | Annot.Ast.M2K -> Annot.Registry.derive m2k_key (compile_crossing ~dir) d

let crossing_decl cr = cr.cr_decl

(** {1 Kernel exports and capability iterators} *)

(** [register_kexport rt decl impl] registers the kernel export
    declared by [decl] (parsed, validated and hashed once, by
    {!Annot.Registry.make_src}, and compiled once, by {!crossing_of});
    the hash participates in indirect-call matching.  A name registered
    twice is an error, as for slot types: silently replacing an export
    would swap the contract the kernel enforces. *)
let register_kexport rt (d : Annot.Registry.slot) impl :
    (kexport, Annot.Registry.error) result =
  let name = d.Annot.Registry.sl_name in
  if Hashtbl.mem rt.kexports name then Error (Annot.Registry.Duplicate name)
  else begin
    (* Kernel exports are also raw-callable through the kernel's own
       dispatch table (stock kernels call them without wrappers). *)
    let addr = Kstate.register_kernel_fn rt.kst name impl in
    let ke =
      {
        ke_decl = d;
        ke_addr = addr;
        ke_idx = Hashtbl.length rt.kexports;
        ke_impl = impl;
        ke_crossing = crossing_of ~dir:Annot.Ast.M2K d;
      }
    in
    Hashtbl.add rt.kexports name ke;
    Inttbl.replace rt.kexport_by_addr addr ke;
    Inttbl.replace rt.func_ahash_by_addr addr d.Annot.Registry.sl_ahash;
    Ok ke
  end

let register_kexport_exn rt ~name ~params ~annot_src impl =
  Annot.Registry.ok_exn
    (Result.bind (Annot.Registry.make_src ~name ~params ~annot_src) (fun d ->
         register_kexport rt d impl))

(** [register_flow_graph rt ~module_ g] installs [g] as the flow policy
    the next load of [module_] will enforce, instead of the graph its
    image self-extracted at link time.  This is how an audited benign graph
    can be pinned while a (possibly tampered) binary is loaded — the
    SFIP threat model, and what the fuzz harness's flow-class mutants
    exercise. *)
let register_flow_graph rt ~module_ (g : Check.Apiflow.graph) =
  Hashtbl.replace rt.flow_graphs module_ g

(** [flow_position mi p] — [p]'s flow-automaton position by name. *)
let flow_position mi (p : Principal.t) =
  Option.bind mi.mi_flow (fun g -> Check.Apiflow.name g p.Principal.flow_pos)

let register_iterator rt ~name ~shapes fn =
  let i = iterator_id name in
  rt.iterators <- grown rt.iterators i;
  rt.iterators.(i) <- Some (shapes, fn)

(** [iterator_can_yield rt ~name kind] — can iterator [name] yield a
    capability of [kind]?  Unknown iterators conservatively yield
    everything (so an upgrade never restores a grant on the strength of
    a missing declaration — the caller treats "can yield" as "the
    annotation surface still justifies this capability kind"). *)
let iterator_can_yield rt ~name (shape : Annot.Ast.captype) =
  match iterator_named rt name with
  | None -> true
  | Some (shapes, _) -> List.mem shape shapes

let find_kexport rt name =
  match Hashtbl.find_opt rt.kexports name with
  | Some ke -> ke
  | None -> invalid_arg (Printf.sprintf "unknown kernel export %s" name)

(** {1 Capability operations} *)

let all_principals rt =
  Hashtbl.fold (fun _ mi acc -> mi.mi_principals @ acc) rt.modules []

(** Capability ownership with the implicit-access rules of §3.1:
    instance principals see the shared principal's capabilities; the
    global principal sees everything the module holds. *)
let principal_has rt (p : Principal.t) (c : Capability.t) : bool =
  (* closed over nothing, so no closure is allocated per check *)
  let table_has (tbl : Captable.t) (c : Capability.t) =
    match c with
    | Capability.Cwrite { base; size } -> Captable.has_write tbl ~addr:base ~size
    | Capability.Cref { rtype; addr } -> Captable.has_ref tbl ~rtype ~addr
    | Capability.Ccall { target } -> Captable.has_call tbl ~target
  in
  if p.Principal.quarantined <> None then false
  else if table_has p.Principal.caps c then true
  else
    match module_of rt p with
    | None -> false
    | Some mi -> (
        match p.Principal.kind with
        | Principal.Shared -> false
        | Principal.Instance ->
            mi.mi_shared.Principal.quarantined = None
            && table_has mi.mi_shared.Principal.caps c
        | Principal.Global ->
            List.exists
              (fun (q : Principal.t) ->
                q.Principal.quarantined = None && table_has q.Principal.caps c)
              mi.mi_principals)

(** [has_write_covering rt p ~addr ~size] — like [principal_has] for a
    WRITE query at an interior address. *)
let has_write_covering rt p ~addr ~size =
  principal_has rt p (Capability.Cwrite { base = addr; size })

let grant ?(ctx = "") rt (p : Principal.t) (c : Capability.t) =
  let dropped =
    match rt.kst.Kstate.finject with
    | Some fi when Finject.fires fi Finject.Drop_grant ->
        rt.stats.Stats.caps_dropped <- rt.stats.Stats.caps_dropped + 1;
        if !Trace.on then Trace.emit (Trace.Cap (Trace.Dropped, c, ctx));
        Klog.debug "finject: dropped grant of %s to %s" (Capability.to_string c)
          (Principal.describe p);
        true
    | _ -> false
  in
  if not dropped then begin
    rt.stats.Stats.caps_granted <- rt.stats.Stats.caps_granted + 1;
    if !Trace.on then Trace.emit (Trace.Cap (Trace.Grant, c, ctx));
    match c with
    | Capability.Cwrite { base; size } ->
        Captable.add_write p.Principal.caps ~base ~size;
        (* User-space windows are not writer-set-marked: the kernel never
           loads function pointers it will call from user memory (and a
           corrupted slot pointing *into* user space is caught by the
           CALL-capability check on the slot's own writers). *)
        if not (Kmem.Layout.is_user base) then Writer_set.mark_range rt.wset ~base ~size
    | Capability.Cref { rtype; addr } -> Captable.add_ref p.Principal.caps ~rtype ~addr
    | Capability.Ccall { target } -> Captable.add_call p.Principal.caps ~target
  end

(** [revoke_from_all rt c] removes [c] (and for WRITE, anything
    intersecting its range) from every principal in the system — the
    transfer semantics of §3.3 that guarantee no stale copies survive
    object reuse. *)
let revoke_from_all ?(ctx = "") rt (c : Capability.t) =
  rt.stats.Stats.caps_revoked <- rt.stats.Stats.caps_revoked + 1;
  if !Trace.on then Trace.emit (Trace.Cap (Trace.Revoke, c, ctx));
  let revoke (p : Principal.t) =
    match c with
    | Capability.Cwrite { base; size } ->
        ignore (Captable.remove_write_intersecting p.Principal.caps ~base ~size)
    | Capability.Cref { rtype; addr } -> Captable.remove_ref p.Principal.caps ~rtype ~addr
    | Capability.Ccall { target } -> Captable.remove_call p.Principal.caps ~target
  in
  (* Each principal loses only its own copies, so the walk's order is
     immaterial and no principal list is built. *)
  Hashtbl.iter (fun _ mi -> List.iter revoke mi.mi_principals) rt.modules

(** {1 Principal management} *)

let find_or_create_instance _rt mi ~name_ptr =
  match Inttbl.find_opt mi.mi_aliases name_ptr with
  | Some p -> p
  | None ->
      let p =
        Principal.make ~kind:Principal.Instance ~owner:mi.mi_name ~primary_name:name_ptr
      in
      mi.mi_principals <- p :: mi.mi_principals;
      Inttbl.replace mi.mi_aliases name_ptr p;
      Klog.debug "new principal %s" (Principal.describe p);
      p

(** {1 Running compiled actions} *)

(** [check_arity ~module_ ~fname arity args] raises [Kstate.Oops], in
    the MIR engine's words, unless there is one argument per declared
    parameter. *)
let check_arity ~module_ ~fname arity args =
  let n = List.length args in
  if n <> arity then
    raise
      (Kstate.Oops
         (Printf.sprintf "module %s: %s arity mismatch (%d args, want %d)" module_ fname n arity))

let violation_kind_of_cap = function
  | Capability.Cwrite _ -> Violation.Write_denied
  | Capability.Cref _ -> Violation.Ref_denied
  | Capability.Ccall _ -> Violation.Call_denied

let check_owned rt mi (p : Principal.t) (c : Capability.t) ~ctx =
  if rt.config.Config.mode = Config.Lxfi && not (principal_has rt p c) then
    Violation.raise_ ~kind:(violation_kind_of_cap c) ~module_:mi.mi_name
      "%s: principal %s does not own %s" ctx (Principal.describe p)
      (Capability.to_string c)

(* Apply one action's effect to each capability its caplist named.  Cost
   accounting is per capability processed, not per syntactic action: an
   skb_caps transfer does twice the table work of a plain lock check,
   and the netperf CPU inflation (§8.4) is dominated by exactly this
   "cost of capability operations". *)
let rec run_action_caps rt mi (mp : Principal.t) (eff : Annot.Ast.cap_effect) ~ctx = function
  | [] -> ()
  | cap :: caps ->
      (match eff with
      | Annot.Ast.No_effect -> ()
      | Annot.Ast.Own -> check_owned rt mi mp cap ~ctx
      | Annot.Ast.Grant -> grant ~ctx rt mp cap
      | Annot.Ast.Own_then_revoke ->
          check_owned rt mi mp cap ~ctx;
          revoke_from_all ~ctx rt cap
      | Annot.Ast.Revoke_then_grant ->
          revoke_from_all ~ctx rt cap;
          grant ~ctx rt mp cap);
      run_action_caps rt mi mp eff ~ctx caps

let run_action_effect rt mi mp caps eff ~ctx =
  let n = max 1 (List.length caps) in
  rt.stats.Stats.annotation_actions <- rt.stats.Stats.annotation_actions + n;
  charge rt (n * Cost.annotation_action);
  run_action_caps rt mi mp eff ~ctx caps

let rec run_action_guards rt args ret = function
  | [] -> true
  | (g : cexpr) :: gs ->
      (not (Int64.equal (g rt args ret) 0L)) && run_action_guards rt args ret gs

(** Execute one compiled action: when its guards hold, its effect on
    every capability its caplist names.  [mp] is the module-side
    principal of the call (caller for M2K, callee for K2M).  Under XFI,
    which enforces no API integrity, a check is skipped whole. *)
let run_action rt mi (mp : Principal.t) (a : action) args ret =
  if
    run_action_guards rt args ret a.act_guards
    && not (a.act_check && rt.config.Config.mode = Config.Xfi)
  then run_action_effect rt mi mp (a.act_caps rt args ret) a.act_effect ~ctx:a.act_ctx

let run_actions rt mi mp (actions : action array) args ret =
  for i = 0 to Array.length actions - 1 do
    run_action rt mi mp (Array.unsafe_get actions i) args ret
  done

(** [run_phase rt mi mp cr phase args ~ret] — [cr]'s pre or post
    actions, as its wrapper runs them ([ret] is read by post clauses
    only). *)
let run_phase rt mi mp cr (phase : Annot.Ast.phase) args ~ret =
  run_actions rt mi mp (match phase with `Pre -> cr.cr_pre | `Post -> cr.cr_post) args ret

(** {1 Wrappers} *)

let entry_guard rt =
  rt.stats.Stats.fn_entry <- rt.stats.Stats.fn_entry + 1;
  charge rt Cost.fn_entry;
  if !Trace.on then Trace.emit (Trace.Guard Trace.Gentry)

let exit_guard rt =
  rt.stats.Stats.fn_exit <- rt.stats.Stats.fn_exit + 1;
  charge rt Cost.fn_exit;
  if !Trace.on then Trace.emit (Trace.Guard Trace.Gexit)

(** [crossing rt span ~wrapper body] — the one wrapper frame around both
    boundary crossings.  Entry counts the entry guard, opens the span
    and pushes a shadow-stack frame saving the current principal, in
    that order; every exit, exceptional ones included, pops back to
    that principal and closes the span, and only a normal return also
    counts the exit guard. *)
let crossing rt span ~wrapper body =
  entry_guard rt;
  if !Trace.on then Trace.emit (Trace.Span_begin (span, wrapper));
  let token = Shadow_stack.push rt.sstack ~wrapper ~saved_principal:rt.current in
  match body () with
  | ret ->
      rt.current <- Shadow_stack.pop rt.sstack ~wrapper ~token;
      if !Trace.on then Trace.emit (Trace.Span_end (span, wrapper));
      exit_guard rt;
      ret
  | exception e ->
      rt.current <- Shadow_stack.pop rt.sstack ~wrapper ~token;
      if !Trace.on then Trace.emit (Trace.Span_end (span, wrapper));
      raise e

(** [call_kexport rt ke args] — module→kernel crossing.  The wrapper
    validates pre actions against the calling principal, runs the
    kernel implementation in kernel context, then applies post actions
    (grants flowing back to the caller). *)
let call_kexport rt (ke : kexport) args =
  match (rt.config.Config.mode, rt.current) with
  | Config.Stock, _ | _, None ->
      (* Stock kernels, and kernel code calling a kernel export: no boundary. *)
      ke.ke_impl args
  | (Config.Xfi | Config.Lxfi), Some mp ->
      let cr = ke.ke_crossing and name = ke.ke_decl.Annot.Registry.sl_name in
      check_arity ~module_:mp.Principal.owner ~fname:name cr.cr_arity args;
      let mi =
        match module_of rt mp with
        | Some mi -> mi
        | None -> invalid_arg "current principal belongs to unknown module"
      in
      (* Syscall-flow integrity: advance the caller principal's flow
         automaton, or fault.  Enforced only within kernel-entered
         activations (an enclosing wrapper frame exists) so that bare
         harness calls carry no flow state; checked before the frame
         so a flow violation perturbs no other counter and charges no
         cycles. *)
      (if rt.config.Config.mode = Config.Lxfi && Shadow_stack.depth rt.sstack > 0 then
         match mi.mi_flow with
         | None -> ()
         | Some g ->
             let pos = mp.Principal.flow_pos and ids = mi.mi_flow_node in
             let k = if ke.ke_idx < Array.length ids then ids.(ke.ke_idx) else -1 in
             if Check.Apiflow.permits g ~pos k then mp.Principal.flow_pos <- k
             else begin
               rt.stats.Stats.flow_violations <- rt.stats.Stats.flow_violations + 1;
               Violation.raise_ ~principal:mp ?where:(where_of mi)
                 ~kind:Violation.Flow_violation ~module_:mi.mi_name
                 "call to %s is off the module's flow graph (position: %s)" name
                 (Option.value (Check.Apiflow.name g pos) ~default:"(start)")
             end);
      crossing rt Trace.M2k ~wrapper:name (fun () ->
          run_actions rt mi mp cr.cr_pre args 0L;
          rt.current <- None;
          let ret = ke.ke_impl args in
          rt.current <- Some mp;
          run_actions rt mi mp cr.cr_post args ret;
          ret)

(** The callee principal of a kernel→module call, by the compiled
    principal clause of its slot type. *)
let select_principal rt mi cr args =
  match cr.cr_principal with
  | Sel_shared -> mi.mi_shared
  | Sel_global -> mi.mi_global
  | Sel_instance e ->
      if rt.config.Config.mode = Config.Lxfi then
        find_or_create_instance rt mi ~name_ptr:(Int64.to_int (e rt args 0L))
      else mi.mi_shared

let run_mir rt mi fname args =
  match mi.mi_ctx with
  | None -> invalid_arg (Printf.sprintf "module %s has no interpreter context" mi.mi_name)
  | Some ctx -> (
      try Mir.Interp.run ctx fname args
      with Mir.Interp.Fuel_exhausted _ ->
        (* Only ever raised when we armed the watchdog below. *)
        rt.stats.Stats.watchdog_expiries <- rt.stats.Stats.watchdog_expiries + 1;
        Violation.raise_ ?principal:rt.current ?where:(where_of mi)
          ~kind:Violation.Watchdog_expired ~module_:mi.mi_name
          "entry exceeded its fuel budget of %d"
          (Option.value ~default:0 rt.config.Config.watchdog_fuel))

(* The callee's half of a kernel→module entry: watchdog, pre actions,
   the switch to [callee], the module code, post actions. *)
let run_entry rt mi cr fname args (callee : Principal.t) =
  (* Arm the per-entry watchdog: the budget is per kernel→module
     crossing, so a wedged entry point expires instead of soft-locking
     the simulation. *)
  (match (rt.config.Config.watchdog_fuel, mi.mi_ctx) with
  | Some budget, Some ctx ->
      ctx.Mir.Interp.watchdog <- true;
      Mir.Interp.refuel ~fuel:budget ctx
  | _ -> ());
  run_actions rt mi callee cr.cr_pre args 0L;
  rt.stats.Stats.principal_switches <- rt.stats.Stats.principal_switches + 1;
  charge rt Cost.principal_switch;
  if !Trace.on then Trace.emit (Trace.Switch (Principal.describe callee));
  rt.current <- Some callee;
  let ret = run_mir rt mi fname args in
  (* Post actions run against the callee principal even if the module
     switched principals internally (switch_global). *)
  run_actions rt mi callee cr.cr_post args ret;
  ret

(** [enter rt mi en args] — kernel→module crossing into the function
    the loader bound as [en], through its compiled slot type.  The
    paper's safe default applies: a function with no annotation cannot
    be invoked from the kernel under LXFI. *)
let enter rt mi (en : entry) args =
  let fname = en.en_fname in
  match rt.config.Config.mode with
  | Config.Stock -> run_mir rt mi fname args
  | Config.Xfi | Config.Lxfi -> (
      match en.en_crossing with
      | None ->
          if rt.config.Config.mode = Config.Lxfi then
            Violation.raise_ ~kind:Violation.Annot_mismatch ~module_:mi.mi_name
              "kernel invoked unannotated module function %s" fname
          else run_mir rt mi fname args
      | Some cr ->
          check_arity ~module_:mi.mi_name ~fname cr.cr_arity args;
          (match mi.mi_dead with
          | Some reason ->
              Violation.raise_ ~kind:Violation.Principal_denied ~module_:mi.mi_name
                "kernel invoked function %s of dead module (%s)" fname reason
          | None -> ());
          crossing rt Trace.K2m ~wrapper:en.en_wrapper (fun () ->
              let callee = select_principal rt mi cr args in
              (match callee.Principal.quarantined with
              | Some reason ->
                  Violation.raise_ ~principal:callee ~kind:Violation.Principal_denied
                    ~module_:mi.mi_name "entry %s via quarantined principal (%s)" fname reason
              | None -> ());
              rt.last_callee <- Some callee;
              if rt.config.Config.mode <> Config.Lxfi then run_entry rt mi cr fname args callee
              else begin
                (* Flow-automaton bookkeeping for this activation.  A
                   top-level entry continues from the principal's
                   at-rest position (so the graph's boundary edges check
                   the cross-activation step); a nested re-entry of an
                   in-flight principal starts fresh and the outer
                   position is restored on either exit.  An aborted
                   top-level activation resets to start: a contained
                   fault must not leave a position later calls would be
                   judged against. *)
                let pos = callee.Principal.flow_pos and depth = callee.Principal.flow_depth in
                if depth > 0 then callee.Principal.flow_pos <- Check.Apiflow.start;
                callee.Principal.flow_depth <- depth + 1;
                match run_entry rt mi cr fname args callee with
                | ret ->
                    callee.Principal.flow_depth <- depth;
                    if depth > 0 then callee.Principal.flow_pos <- pos;
                    ret
                | exception e ->
                    callee.Principal.flow_depth <- depth;
                    if depth > 0 then callee.Principal.flow_pos <- pos
                    else begin
                      callee.Principal.flow_pos <- Check.Apiflow.start;
                      mi.mi_global.Principal.flow_pos <- Check.Apiflow.start
                    end;
                    raise e
              end))

(** [entry mi fname] — the entry the loader bound for [fname]; a name
    the module does not define enters as an unannotated function. *)
let entry mi fname =
  match Hashtbl.find_opt mi.mi_entries fname with
  | Some en -> en
  | None -> { en_fname = fname; en_wrapper = wrapper_name mi.mi_name fname; en_crossing = None }

let invoke_module_function rt mi fname args = enter rt mi (entry mi fname) args

(** {1 Module-side guards (inserted by the rewriter)} *)

let guard_write rt mi ~addr ~size =
  rt.stats.Stats.mem_write_checks <- rt.stats.Stats.mem_write_checks + 1;
  charge rt Cost.mem_write_check;
  if !Trace.on then Trace.emit (Trace.Guard Trace.Gwrite);
  match rt.current with
  | None ->
      Violation.raise_ ~kind:Violation.Write_denied ~module_:mi.mi_name
        "module store executed without a module principal"
  | Some p ->
      if not (has_write_covering rt p ~addr ~size) then
        Violation.raise_ ~principal:p ?where:(where_of mi) ~kind:Violation.Write_denied
          ~module_:mi.mi_name "store of %d bytes at 0x%x by %s" size addr
          (Principal.describe p)

let guard_indcall rt mi ~target =
  rt.stats.Stats.mod_indcall_checks <- rt.stats.Stats.mod_indcall_checks + 1;
  charge rt Cost.mod_indcall_check;
  if !Trace.on then Trace.emit (Trace.Guard Trace.Gindcall);
  match rt.current with
  | None ->
      Violation.raise_ ~kind:Violation.Call_denied ~module_:mi.mi_name
        "module indirect call without a module principal"
  | Some p ->
      if not (principal_has rt p (Capability.Ccall { target })) then
        Violation.raise_ ~principal:p ?where:(where_of mi) ~kind:Violation.Call_denied
          ~module_:mi.mi_name "indirect call to %s by %s"
          (Fmt.str "%a" (Ksym.pp_addr rt.kst.Kstate.sym) target)
          (Principal.describe p)

(** {1 Kernel-side indirect-call checking (§4.1)} *)

(** Writer principals of a memory word: every principal holding a WRITE
    capability covering it (computed by walking the global principal
    list, as in the paper). *)
let writers_of rt ~addr =
  List.filter
    (fun (p : Principal.t) -> Captable.has_write p.Principal.caps ~addr ~size:1)
    (all_principals rt)

(* Where the writers of a slot stand on CALL for the slot's target. *)
type writers_call = No_writer | Every_writer_holds_call | Some_writer_lacks_call

(** The checking dispatcher installed as [Kstate.indcall] under LXFI.
    Implements [lxfi_check_indcall(pptr, ahash)]:

    1. writer-set fast path: if no principal could have written the
       slot, skip the capability check entirely;
    2. otherwise every writer principal must hold a CALL capability for
       the target — decided in one pass over the principals; the
       ordered writer list is built only to name a writer lacking it;
    3. the target function's annotation hash must match the slot
       type's. *)
let kernel_indirect_call rt ~slot ~ftype args =
  rt.stats.Stats.kernel_indcall_all <- rt.stats.Stats.kernel_indcall_all + 1;
  let dispatch () = rt.raw_dispatch ~slot ~ftype args in
  (* Under quarantine, a pointer to a retired (unloaded/escalated)
     function is a contained violation, not an oops: the fault is
     attributed to the module that owned the address. *)
  (if rt.config.Config.quarantine then
     let target = Kmem.read_ptr rt.kst.Kstate.mem slot in
     match Inttbl.find_opt rt.retired target with
     | Some owner ->
         Violation.raise_ ~kind:Violation.Call_denied ~module_:owner
           "kernel indirect call via slot 0x%x (%s) to retired address 0x%x" slot ftype
           target
     | None -> ());
  if rt.config.Config.mode <> Config.Lxfi then dispatch ()
  else if rt.config.Config.writer_set_tracking && not (Writer_set.maybe_written rt.wset slot)
  then begin
    rt.stats.Stats.kernel_indcall_elided <- rt.stats.Stats.kernel_indcall_elided + 1;
    charge rt Cost.kernel_indcall_fastpath;
    if !Trace.on then Trace.emit (Trace.Guard Trace.Gkindcall_elided);
    dispatch ()
  end
  else begin
    rt.stats.Stats.kernel_indcall_checked <- rt.stats.Stats.kernel_indcall_checked + 1;
    charge rt Cost.kernel_indcall_check;
    if !Trace.on then Trace.emit (Trace.Guard Trace.Gkindcall_checked);
    let target = Kmem.read_ptr rt.kst.Kstate.mem slot in
    let call = Capability.Ccall { target } in
    (* One pass over every principal, building no list. *)
    let verdict =
      Hashtbl.fold
        (fun _ mi verdict ->
          List.fold_left
            (fun verdict (p : Principal.t) ->
              match verdict with
              | Some_writer_lacks_call -> verdict
              | No_writer | Every_writer_holds_call ->
                  if not (Captable.has_write p.Principal.caps ~addr:slot ~size:1) then verdict
                  else if principal_has rt p call then Every_writer_holds_call
                  else Some_writer_lacks_call)
            verdict mi.mi_principals)
        rt.modules No_writer
    in
    match verdict with
    | No_writer ->
        (* Writer-set false positive: the line was marked but no
           principal actually holds WRITE on the slot — benign. *)
        dispatch ()
    | Some_writer_lacks_call ->
        (* Name the first writer lacking CALL in [writers_of] order;
           only this path builds that list. *)
        let p =
          List.find (fun p -> not (principal_has rt p call)) (writers_of rt ~addr:slot)
        in
        Violation.raise_ ~principal:p ~kind:Violation.Call_denied ~module_:p.Principal.owner
          "kernel indirect call via slot 0x%x (%s): writer %s lacks CALL for %s" slot ftype
          (Principal.describe p)
          (Fmt.str "%a" (Ksym.pp_addr rt.kst.Kstate.sym) target)
    | Every_writer_holds_call ->
        (let slot_hash =
           match Annot.Registry.find_opt rt.registry ftype with
           | Some s -> s.Annot.Registry.sl_ahash
           | None -> Annot.Hash.empty
         in
         match Inttbl.find_opt rt.func_ahash_by_addr target with
         | Some h when not (Int64.equal h slot_hash) ->
             Violation.raise_ ~kind:Violation.Annot_mismatch ~module_:"(kernel)"
               "slot 0x%x type %s: annotation hash mismatch for target %s" slot ftype
               (Fmt.str "%a" (Ksym.pp_addr rt.kst.Kstate.sym) target)
         | Some _ | None ->
             (* Unannotated targets are accepted, matching the paper's
                implementation status (§7): static kernel functions
                carry no annotations. *)
             ());
        dispatch ()
  end

(** [install rt] points the kernel's indirect-call dispatcher at the
    checking version.  Call once after boot. *)
let install rt =
  rt.kst.Kstate.indcall <- (fun ~slot ~ftype args -> kernel_indirect_call rt ~slot ~ftype args)

(** {1 Privileged runtime calls available to module code}

    These are importable as [lxfi_*] and may only be reached through
    direct calls (the rewriter never grants CALL capabilities for
    them), matching §3.4's requirement that privilege manipulations be
    statically coupled with their guarding checks. *)

let require_current_mi rt ~who =
  match rt.current with
  | Some p -> (
      match module_of rt p with
      | Some mi -> (p, mi)
      | None ->
          Violation.raise_ ~kind:Violation.Principal_denied ~module_:"(unknown)"
            "%s called without module context" who)
  | None ->
      Violation.raise_ ~kind:Violation.Principal_denied ~module_:"(kernel)"
        "%s called from kernel context" who

(** [lxfi_check rt ~rtype ~addr] — module-inserted explicit REF check
    (line 72 of Figure 4). *)
let lxfi_check rt ~rtype ~addr =
  if rt.config.Config.mode = Config.Lxfi then begin
    let p, mi = require_current_mi rt ~who:"lxfi_check" in
    if not (principal_has rt p (Capability.Cref { rtype; addr })) then
      Violation.raise_ ~principal:p ?where:(where_of mi) ~kind:Violation.Ref_denied
        ~module_:mi.mi_name "lxfi_check: %s lacks REF(%s, 0x%x)" (Principal.describe p)
        rtype addr
  end

(** [lxfi_princ_alias rt ~existing ~fresh] — create name [fresh] for
    the principal currently named [existing] (Figure 4 line 73). *)
let lxfi_princ_alias rt ~existing ~fresh =
  if rt.config.Config.mode = Config.Lxfi then begin
    let p, mi = require_current_mi rt ~who:"lxfi_princ_alias" in
    match Inttbl.find_opt mi.mi_aliases existing with
    | Some target -> Inttbl.replace mi.mi_aliases fresh target
    | None ->
        (* Aliasing a not-yet-materialised name: if the caller runs as
           the instance principal named [existing], alias to it. *)
        if p.Principal.kind = Principal.Instance && p.Principal.primary_name = existing
        then Inttbl.replace mi.mi_aliases fresh p
        else
          Violation.raise_ ~kind:Violation.Principal_denied ~module_:mi.mi_name
            "lxfi_princ_alias: no principal named 0x%x" existing
  end

(** [lxfi_switch_global rt] — switch the current task to the module's
    global principal (for cross-instance state); undone automatically
    when the enclosing wrapper returns. *)
let lxfi_switch_global rt =
  if rt.config.Config.mode = Config.Lxfi then begin
    let p, mi = require_current_mi rt ~who:"lxfi_switch_global" in
    rt.stats.Stats.principal_switches <- rt.stats.Stats.principal_switches + 1;
    charge rt Cost.principal_switch;
    if !Trace.on then
      Trace.emit (Trace.Switch (Principal.describe mi.mi_global));
    (* The activation's kernel-API sequence continues under the global
       principal: carry the flow position across the switch so the
       automaton still sees one consecutive sequence. *)
    if p != mi.mi_global then
      mi.mi_global.Principal.flow_pos <- p.Principal.flow_pos;
    rt.current <- Some mi.mi_global
  end

(** {1 Interrupt entry/exit}

    An interrupt arriving while a module runs must not execute with the
    module's privileges; the principal is saved on the shadow stack and
    restored at exit (§3.1). *)

let irq_enter rt =
  let token = Shadow_stack.push rt.sstack ~wrapper:"(irq)" ~saved_principal:rt.current in
  rt.current <- None;
  token

let irq_exit rt token = rt.current <- Shadow_stack.pop rt.sstack ~wrapper:"(irq)" ~token
