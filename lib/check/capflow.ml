(** Capability-flow check: an intraprocedural dataflow over a module's
    MIR that relates what each kernel-callable entry point {e does}
    with what its slot-type annotation {e grants}.

    For every entry (a function bound to a slot type by the loader's
    annotation propagation of §4.2, {!propagate}) the pass tracks which
    pointer values derive from the entry's annotated parameters —
    parameter-rooted pointer arithmetic keeps the root; anything
    loaded, returned from a call, or taken from a global is [Rother]
    (module-owned memory, covered by the section/stack WRITE grants).
    It reports:

    - ["uncovered-store"] / ["uncovered-indcall"] (error): a store or
      indirect call through a parameter-rooted pointer that no
      copy/transfer/check clause of the slot type covers — the runtime
      guard is guaranteed to fire on the first execution;
    - ["principal-held-store"] (info): the store is through the
      parameter that names the entry's instance principal; the module
      is relying on capabilities granted to that principal earlier in
      its lifetime (e.g. at [create]) rather than by this entry;
    - ["use-after-transfer"] (warning): a value is used after being
      passed to a kernel export whose annotation [pre(transfer)]s it —
      the caller provably lost the capability (the paper's §3.3 revoke
      semantics), so later stores through it will fault;
    - ["over-privilege"] (warning): the slot type grants WRITE on a
      parameter the entry never uses on any path — the §7 worry, a
      wider grant than the code needs;
    - ["param-arity"] (warning): entry and slot type disagree on
      parameter count, so positional annotation coverage is partial;
    - the refusals of the annotation propagation it shares with the
      loader ({!propagate}) as ["propagation"] errors.

    The analysis is intraprocedural by design: stores inside helper
    functions reached by direct call run under the same principal but
    are not traced through — DESIGN.md discusses the trade-off. *)

open Mir.Ast
module SMap = Map.Make (String)

type root = Rparam of int  (** derives from the entry's i-th parameter *)
           | Rother  (** module-owned or unknown — runtime's problem *)

type state = {
  roots : root SMap.t;
  xfer : string SMap.t;  (** var -> kexport whose pre(transfer) revoked it *)
}

(* --- slot-type coverage, positional --- *)

type cover = {
  slot : Annot.Registry.slot;
  write : bool array;  (** slot param i is covered by a WRITE-ish clause *)
  call : bool array;  (** ... by a CALL/REF clause *)
  principal : bool array;  (** ... named by the principal clause *)
  granted_write : bool array;  (** pre copy/transfer grants WRITE on it *)
}

let mentions name e =
  Annot.Ast.fold_cexpr
    (fun m -> function Annot.Ast.Cparam p -> m || String.equal p name | _ -> m)
    false e

(* Does the caplist cover [name] for the given access kind?  Iterators
   grant capabilities over the object graph reachable from their
   arguments, so an iterator mentioning the param covers both kinds. *)
let caplist_covers ~kind name cl =
  List.exists (mentions name) (Annot.Ast.caplist_exprs cl)
  &&
  match (kind, cl) with
  | _, Annot.Ast.Iter _
  | `Write, Annot.Ast.Inline (Annot.Ast.Write, _, _)
  | `Call, Annot.Ast.Inline ((Annot.Ast.Call | Annot.Ast.Ref _), _, _) ->
      true
  | _ -> false

(* What a slot declaration covers depends on nothing else, so it is
   made once per declaration (the checker asks at every entry of every
   module it checks). *)
let cover_key : cover Annot.Registry.key = Annot.Registry.key ()

let cover_of_slot (slot : Annot.Registry.slot) : cover =
  let params = Array.of_list slot.sl_params in
  let n = Array.length params in
  let annot = slot.sl_annot in
  let pre = List.map Annot.Ast.leaf (Annot.Ast.pre_actions annot) in
  let post = List.map Annot.Ast.leaf (Annot.Ast.post_actions annot) in
  let caplists = List.map (fun (_, cl, _) -> cl) (pre @ post) in
  let covered kind i = List.exists (caplist_covers ~kind params.(i)) caplists in
  let principal_mentions i =
    match Annot.Ast.principal_of annot with
    | Some (Annot.Ast.Pexpr e) -> mentions params.(i) e
    | _ -> false
  in
  (* a pre action granting the entry WRITE on the parameter *)
  let grants i =
    List.exists
      (fun (verb, cl, _) ->
        Annot.Ast.grants (Annot.Ast.cap_effect ~dir:K2M ~phase:`Pre verb)
        &&
        match cl with
        | Annot.Ast.Inline (Annot.Ast.Write, p, _) -> mentions params.(i) p
        | Annot.Ast.Iter (_, args) -> List.mem (Annot.Ast.Cparam params.(i)) args
        | Annot.Ast.Inline _ -> false)
      pre
  in
  {
    slot;
    write = Array.init n (covered `Write);
    call = Array.init n (covered `Call);
    principal = Array.init n principal_mentions;
    granted_write = Array.init n grants;
  }

let cover_of = Annot.Registry.derive cover_key cover_of_slot

(* --- kexport pre(transfer) positions, for use-after-transfer --- *)

(* The argument positions an export's unconditional pre actions revoke
   from the caller. *)
let transferred_positions (k : Annot.Registry.slot) : int list =
  let index_of p =
    let rec go i = function
      | [] -> None
      | q :: _ when q = p -> Some i
      | _ :: r -> go (i + 1) r
    in
    go 0 k.sl_params
  in
  Annot.Ast.pre_actions k.sl_annot
  |> List.concat_map (fun a ->
         match Annot.Ast.leaf a with
         | verb, cl, [] when Annot.Ast.cap_effect ~dir:M2K ~phase:`Pre verb = Own_then_revoke
           ->
             List.filter_map
               (function Annot.Ast.Cparam p -> index_of p | _ -> None)
               (Annot.Ast.caplist_objects cl)
         | _ -> [])

(* --- the walker --- *)

type walk = {
  env : Env.t;
  cover : cover;
  fparams : string array;
  where : string;  (** "module/function" *)
  mutable acc : Finding.t list;
  mutable reported : (string * string) list;  (** (rule, key) dedup *)
}

let emit w ~rule sev fmt =
  Format.kasprintf
    (fun msg ->
      w.acc <-
        Finding.make ~rule ~location:w.where ~source:"check.capflow" sev "%s" msg
        :: w.acc)
    fmt

let once w ~rule key f =
  if not (List.mem (rule, key) w.reported) then begin
    w.reported <- (rule, key) :: w.reported;
    f ()
  end

let root_of st e =
  let rec go = function
    | Var x -> ( match SMap.find_opt x st.roots with Some r -> r | None -> Rother)
    | Binop ((Add | Sub), _, a, b) -> (
        match go a with Rparam i -> Rparam i | Rother -> go b)
    | _ -> Rother
  in
  go e

let slot_name w = w.cover.slot.Annot.Registry.sl_name

(* A store/indirect call lands on a pointer rooted in function param [i]:
   decide whether the slot type covers it. *)
let check_param_access w ~kind i =
  let sp = w.cover.slot.Annot.Registry.sl_params in
  let fpname = if i < Array.length w.fparams then w.fparams.(i) else "?" in
  let what, rule =
    match kind with
    | `Write -> ("store", "uncovered-store")
    | `Call -> ("indirect call", "uncovered-indcall")
  in
  if i >= List.length sp then
    once w ~rule (string_of_int i) (fun () ->
        emit w ~rule Diag.Error
          "%s through parameter %s, which has no corresponding slot-type \
           parameter (slot %s declares %d)"
          what fpname (slot_name w) (List.length sp))
  else
    let covered =
      match kind with `Write -> w.cover.write.(i) | `Call -> w.cover.call.(i)
    in
    if covered then ()
    else if w.cover.principal.(i) then
      once w ~rule:"principal-held-store" fpname (fun () ->
          emit w ~rule:"principal-held-store" Diag.Info
            "%s through principal-naming parameter %s (slot %s) relies on \
             capabilities the instance principal acquired outside this entry"
            what fpname (slot_name w))
    else
      once w ~rule fpname (fun () ->
          emit w ~rule Diag.Error
            "%s through parameter %s is covered by no copy/transfer/check \
             clause of slot %s — a %s violation is guaranteed at runtime"
            what fpname (slot_name w)
            (match kind with `Write -> "WRITE" | `Call -> "CALL"))

let rec check_expr w st e : state =
  match e with
  | Const _ | Glob _ | Funcaddr _ | Extaddr _ -> st
  | Var v ->
      (match SMap.find_opt v st.xfer with
      | Some kname ->
          once w ~rule:"use-after-transfer" (v ^ ":" ^ kname) (fun () ->
              emit w ~rule:"use-after-transfer" Diag.Warning
                "%s is used after pre(transfer) in the call to %s revoked its \
                 capabilities from this module"
                v kname)
      | None -> ());
      st
  | Load (_, a) -> check_expr w st a
  | Binop (_, _, a, b) -> check_expr w (check_expr w st a) b
  | Call (callee, args) -> (
      let st =
        match callee with
        | Indirect tgt ->
            let st = check_expr w st tgt in
            (match root_of st tgt with
            | Rparam i -> check_param_access w ~kind:`Call i
            | Rother -> ());
            st
        | Direct _ | Ext _ -> st
      in
      let st = List.fold_left (check_expr w) st args in
      match callee with
      | Ext name -> (
          match w.env.Env.kexport name with
          | None -> st
          | Some k ->
              List.fold_left
                (fun st j ->
                  match List.nth_opt args j with
                  | Some (Var v) -> { st with xfer = SMap.add v name st.xfer }
                  | _ -> st)
                st (transferred_positions k))
      | Direct _ | Indirect _ -> st)

let join a b =
  {
    roots =
      SMap.merge
        (fun _ ra rb ->
          match (ra, rb) with
          | Some x, Some y when x = y -> Some x
          | None, None -> None
          | _ -> Some Rother)
        a.roots b.roots;
    xfer = SMap.union (fun _ x _ -> Some x) a.xfer b.xfer;
  }

let rec walk_stmt w st = function
  | Let (x, e) ->
      let st' = check_expr w st e in
      { roots = SMap.add x (root_of st' e) st'.roots; xfer = SMap.remove x st'.xfer }
  | Alloca (x, _) ->
      { roots = SMap.add x Rother st.roots; xfer = SMap.remove x st.xfer }
  | Store (_, addr, v) ->
      let st = check_expr w st addr in
      let st = check_expr w st v in
      (match root_of st addr with
      | Rparam i -> check_param_access w ~kind:`Write i
      | Rother -> ());
      st
  | If (c, t, f) ->
      let st = check_expr w st c in
      join (walk_stmts w st t) (walk_stmts w st f)
  | While (c, b) ->
      let st = check_expr w st c in
      join st (walk_stmts w st b)
  | Expr e | Return e -> check_expr w st e
  | Guard _ -> st

and walk_stmts w st stmts = List.fold_left (walk_stmt w) st stmts

(* --- one entry point --- *)

let check_entry env ~mname (fn : func) (slot : Annot.Registry.slot) : Finding.t list
    =
  let cover = cover_of slot in
  let fparams = Array.of_list fn.params in
  let w =
    {
      env;
      cover;
      fparams;
      where = mname ^ "/" ^ fn.fname;
      acc = [];
      reported = [];
    }
  in
  let n_slot = List.length slot.Annot.Registry.sl_params in
  if Array.length fparams <> n_slot then
    emit w ~rule:"param-arity" Diag.Warning
      "entry has %d parameters but slot %s declares %d — positional annotation \
       coverage is partial"
      (Array.length fparams) (slot_name w) n_slot;
  let init =
    {
      roots =
        Array.to_list fparams
        |> List.mapi (fun i p -> (p, Rparam i))
        |> List.to_seq |> SMap.of_seq;
      xfer = SMap.empty;
    }
  in
  ignore (walk_stmts w init fn.body);
  (* over-privilege: granted but never used on any path *)
  let used = fold_stmts (fun acc -> function Var v -> v :: acc | _ -> acc) [] fn.body in
  Array.iteri
    (fun i granted ->
      if granted && i < Array.length fparams && not (List.mem fparams.(i) used)
      then
        emit w ~rule:"over-privilege" Diag.Warning
          "slot %s grants WRITE on parameter %s, but this entry never uses it \
           on any path"
          (slot_name w) fparams.(i))
    cover.granted_write;
  List.rev w.acc

(* --- annotation propagation (§4.2), shared with the loader --- *)

(** [propagate env prog]: a function declared with an export slot type,
    or stored into a typed function-pointer field of a struct-typed
    global, receives that slot type (§4.2).  Returns every binding
    (function, slot, the (struct, offset) it was stored at), exports
    first, and every refusal as (location, message). *)
let propagate env (prog : prog) =
  let bindings = ref [] and refusals = ref [] in
  let refuse where fmt =
    Format.kasprintf (fun msg -> refusals := (where, msg) :: !refusals) fmt
  in
  let bind ~where ?field fname slot_name =
    match Annot.Registry.find_opt env.Env.registry slot_name with
    | None -> refuse where "function %s bound to unknown slot type %s" fname slot_name
    | Some slot -> (
        match
          List.find_opt (fun (f, _, _) -> String.equal f fname) !bindings
        with
        | Some (_, prev, _) when prev.Annot.Registry.sl_name <> slot_name ->
            refuse where "function %s receives conflicting annotations (%s vs %s)"
              fname prev.Annot.Registry.sl_name slot_name
        | _ -> bindings := (fname, slot, field) :: !bindings)
  in
  List.iter
    (fun (f : func) ->
      Option.iter (bind ~where:(prog.pname ^ "/" ^ f.fname) f.fname) f.export)
    prog.funcs;
  List.iter
    (fun (g : glob) ->
      let where = prog.pname ^ "/" ^ g.gname in
      Option.iter
        (fun sname ->
          List.iter
            (function
              | Ifunc (_, f) when find_func prog f = None ->
                  refuse where "ops table references unknown function %s" f
              | Ifunc (off, f) -> (
                  match Kernel_sim.Ktypes.funcptr_slot env.Env.types sname off with
                  | Some slot_name -> bind ~where ~field:(sname, off) f slot_name
                  | None ->
                      refuse where
                        "function pointer %s stored at +%d of struct %s, which is not a \
                         declared slot"
                        f off sname)
              | Iword _ | Iext _ -> ())
            g.ginit)
        g.gstruct)
    prog.globals;
  (List.rev !bindings, List.rev !refusals)

(** [check_module env prog] — the capability-flow findings for one
    module: propagation refusals plus the per-entry dataflow results. *)
let check_module env (prog : prog) : Finding.t list =
  let bindings, refusals = propagate env prog in
  List.map
    (fun (where, msg) ->
      Finding.make ~rule:"propagation" ~location:where ~source:"check.capflow"
        Diag.Error "%s" msg)
    refusals
  @ List.concat_map
      (fun (f : func) ->
        match List.find_opt (fun (fname, _, _) -> fname = f.fname) bindings with
        | Some (_, slot, _) -> check_entry env ~mname:prog.pname f slot
        | None -> [])
      prog.funcs
