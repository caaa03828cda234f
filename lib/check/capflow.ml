(** Capability-flow check: an intraprocedural dataflow over a module's
    MIR that relates what each kernel-callable entry point {e does}
    with what its slot-type annotation {e grants}.

    For every entry (a function bound to a slot type, mirroring the
    loader's annotation propagation of §4.2) the pass tracks which
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
    - propagation errors the loader would also refuse (unknown slot
      type, conflicting annotations, unknown function in an ops
      table) as ["propagation"] errors.

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

let rec cexpr_mentions name = function
  | Annot.Ast.Cparam p -> p = name
  | Annot.Ast.Cint _ | Annot.Ast.Creturn | Annot.Ast.Csizeof _ -> false
  | Annot.Ast.Cneg e -> cexpr_mentions name e
  | Annot.Ast.Cbin (_, a, b) -> cexpr_mentions name a || cexpr_mentions name b

let rec leaf_caplist = function
  | Annot.Ast.Copy cl -> (`Copy, cl)
  | Annot.Ast.Transfer cl -> (`Transfer, cl)
  | Annot.Ast.Check cl -> (`Check, cl)
  | Annot.Ast.Cif (_, a) -> leaf_caplist a

(* Does the caplist cover [name] for the given access kind?  Iterators
   grant capabilities over the object graph reachable from their
   arguments, so an iterator mentioning the param covers both kinds. *)
let caplist_covers ~kind name = function
  | Annot.Ast.Inline (ct, p, s) -> (
      let in_exprs =
        cexpr_mentions name p
        || (match s with Some e -> cexpr_mentions name e | None -> false)
      in
      match (kind, ct) with
      | `Write, Annot.Ast.Write -> in_exprs
      | `Call, (Annot.Ast.Call | Annot.Ast.Ref _) -> in_exprs
      | _ -> false)
  | Annot.Ast.Iter (_, args) -> List.exists (cexpr_mentions name) args

let cover_of (slot : Annot.Registry.slot) : cover =
  let params = Array.of_list slot.Annot.Registry.sl_params in
  let n = Array.length params in
  let annot = slot.Annot.Registry.sl_annot in
  let actions = Annot.Ast.pre_actions annot @ Annot.Ast.post_actions annot in
  let caplists = List.map leaf_caplist actions in
  let covered kind i =
    List.exists (fun (_, cl) -> caplist_covers ~kind params.(i) cl) caplists
  in
  let principal_mentions i =
    match Annot.Ast.principal_of annot with
    | Some (Annot.Ast.Pexpr e) -> cexpr_mentions params.(i) e
    | _ -> false
  in
  let grants i =
    List.exists
      (fun a ->
        match leaf_caplist a with
        | (`Copy | `Transfer), Annot.Ast.Inline (Annot.Ast.Write, p, _) ->
            cexpr_mentions params.(i) p
        | (`Copy | `Transfer), Annot.Ast.Iter (_, args) ->
            List.exists (fun e -> e = Annot.Ast.Cparam params.(i)) args
        | _ -> false)
      (Annot.Ast.pre_actions annot)
  in
  {
    slot;
    write = Array.init n (covered `Write);
    call = Array.init n (covered `Call);
    principal = Array.init n principal_mentions;
    granted_write = Array.init n grants;
  }

(* --- kexport pre(transfer) positions, for use-after-transfer --- *)

let transferred_positions (k : Env.kexport_decl) : int list =
  let params = k.Env.kx_params in
  let index_of p =
    let rec go i = function
      | [] -> None
      | q :: _ when q = p -> Some i
      | _ :: r -> go (i + 1) r
    in
    go 0 params
  in
  Annot.Ast.pre_actions k.Env.kx_annot
  |> List.concat_map (fun a ->
         match a with
         | Annot.Ast.Transfer cl -> (
             (* only unconditional transfers provably revoke *)
             match cl with
             | Annot.Ast.Inline (_, Annot.Ast.Cparam p, _) ->
                 Option.to_list (index_of p)
             | Annot.Ast.Inline _ -> []
             | Annot.Ast.Iter (_, args) ->
                 List.filter_map
                   (function Annot.Ast.Cparam p -> index_of p | _ -> None)
                   args)
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
          match Env.find_kexport w.env name with
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

(* --- annotation propagation, mirroring Loader.load (§4.2) --- *)

let entries env (prog : prog) : (func * Annot.Registry.slot) list * Finding.t list =
  let findings = ref [] in
  let bad ~where fmt =
    Format.kasprintf
      (fun msg ->
        findings :=
          Finding.make ~rule:"propagation" ~location:where ~source:"check.capflow"
            Diag.Error "%s" msg
          :: !findings)
      fmt
  in
  let tbl : (string, Annot.Registry.slot) Hashtbl.t = Hashtbl.create 8 in
  let propagate ~where fname slot_name =
    match Annot.Registry.find_opt env.Env.registry slot_name with
    | None ->
        bad ~where "function %s bound to unknown slot type %s (load would fail)"
          fname slot_name
    | Some slot -> (
        match Hashtbl.find_opt tbl fname with
        | Some prev when prev.Annot.Registry.sl_name <> slot_name ->
            bad ~where
              "function %s receives conflicting annotations (%s vs %s; load \
               would fail)"
              fname prev.Annot.Registry.sl_name slot_name
        | _ -> Hashtbl.replace tbl fname slot)
  in
  List.iter
    (fun (f : func) ->
      match f.export with
      | Some sl -> propagate ~where:(prog.pname ^ "/" ^ f.fname) f.fname sl
      | None -> ())
    prog.funcs;
  List.iter
    (fun (g : glob) ->
      match g.gstruct with
      | None -> ()
      | Some sname ->
          let where = prog.pname ^ "/" ^ g.gname in
          List.iter
            (fun init ->
              match init with
              | Ifunc (off, f) -> (
                  if find_func prog f = None then
                    bad ~where "ops table references unknown function %s" f
                  else
                    match
                      Kernel_sim.Ktypes.funcptr_slot env.Env.types sname off
                    with
                    | Some slot_name -> propagate ~where f slot_name
                    | None ->
                        bad ~where
                          "function pointer %s stored at +%d of struct %s, \
                           which is not a declared slot (load would fail)"
                          f off sname)
              | Iword _ | Iext _ -> ())
            g.ginit)
    prog.globals;
  let bound =
    List.filter_map
      (fun (f : func) ->
        match Hashtbl.find_opt tbl f.fname with
        | Some slot -> Some (f, slot)
        | None -> None)
      prog.funcs
  in
  (bound, List.rev !findings)

(** [check_module env prog] — the capability-flow findings for one
    module: propagation errors plus the per-entry dataflow results. *)
let check_module env (prog : prog) : Finding.t list =
  let bound, pfindings = entries env prog in
  pfindings
  @ List.concat_map
      (fun (f, slot) -> check_entry env ~mname:prog.pname f slot)
      bound
