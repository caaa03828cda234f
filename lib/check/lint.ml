(** Annotation lint: static rules over a single annotation set.

    The paper's whole security argument rests on the hand-written
    interface annotations being right (§6; §7 lists a wrong annotation
    as the way a module's authority silently widens), yet annotations
    are only exercised at runtime — when a guard fires, or worse,
    doesn't.  These rules catch the mistakes that are decidable from
    the annotation text alone:

    - ["unknown-param"] (error): a [Cparam] name not in the declared
      parameter list — evaluation raises at every call;
    - ["return-in-pre"] (error): [return] referenced outside a post
      clause — same;
    - ["unknown-iterator"] (error): an [Iter] name with no registered
      capability iterator — same;
    - ["sizeof-unknown-struct"] (error): [sizeof(struct s)] for an
      unregistered struct — [Ktypes.sizeof] raises at evaluation;
    - ["write-size-defaulted"] (warning): a WRITE capability with no
      size expression silently defaults to 8 bytes, which is almost
      never the author's intent for a struct pointer;
    - ["unsat-guard"] (warning) / ["redundant-guard"] (info): an [if]
      guard whose condition constant-folds to false (the action is
      dead) or true (the guard is noise);
    - ["duplicate-principal"] (error): a second principal clause —
      [Ast.validate] refuses it, so only a forged declaration carries
      one, and the runtime would select by the first alone;
    - ["duplicate-clause"] / ["duplicate-guard"] (warning): the same
      clause registered twice, or the same condition repeated in a
      nested guard chain;
    - ["transfer-then-use"] (error/warning, kexports only): a
      [pre(transfer(...))] revokes the capability from the calling
      module, yet a later pre clause of the same annotation references
      the same capability — the ownership check on that later clause is
      then guaranteed (unconditional) or liable (conditional) to fail. *)

open Annot.Ast

type ctx = {
  env : Env.t;
  what : string;  (** location label, e.g. ["slot proto_ops.bind"] *)
  params : string list;
  mutable acc : Finding.t list;
}

let emit ctx ~rule sev fmt =
  Format.kasprintf
    (fun msg ->
      ctx.acc <-
        Finding.make ~rule ~location:ctx.what ~source:"check.lint" sev "%s" msg
        :: ctx.acc)
    fmt

(* The rules on one expression node. *)
let node_check ctx ~allow_return () = function
  | Cparam p ->
      if not (List.mem p ctx.params) then
        emit ctx ~rule:"unknown-param" Diag.Error
          "references unknown parameter %s (declared: %s)" p
          (match ctx.params with [] -> "none" | ps -> String.concat ", " ps)
  | Creturn ->
      if not allow_return then
        emit ctx ~rule:"return-in-pre" Diag.Error
          "references the return value outside a post clause"
  | Csizeof s ->
      if not (Kernel_sim.Ktypes.mem ctx.env.Env.types s) then
        emit ctx ~rule:"sizeof-unknown-struct" Diag.Error
          "sizeof(struct %s): struct is not registered, so evaluation raises at runtime"
          s
  | Cint _ | Cneg _ | Cbin _ -> ()

let cexpr_check ctx ~allow_return e = fold_cexpr (node_check ctx ~allow_return) () e

(* Constant folding over the annotation expression language: params and
   the return value are unknown; registered struct sizes are static. *)
let rec cfold types = function
  | Cint n -> Some n
  | Cparam _ | Creturn -> None
  | Cneg e -> Option.map Int64.neg (cfold types e)
  | Csizeof s ->
      if Kernel_sim.Ktypes.mem types s then
        Some (Int64.of_int (Kernel_sim.Ktypes.sizeof types s))
      else None
  | Cbin (op, a, b) -> (
      match (cfold types a, cfold types b) with
      | Some va, Some vb -> Some (eval_binop op va vb)
      | _ -> None)

(* One action: each guard of its [if] chain, then its caplist, then
   each condition the chain repeats. *)
let action_check ctx ~allow_return a =
  let _, cl, guards = leaf a in
  List.iter
    (fun c ->
      cexpr_check ctx ~allow_return c;
      match cfold ctx.env.Env.types c with
      | Some 0L ->
          emit ctx ~rule:"unsat-guard" Diag.Warning
            "if-guard (%s) is always false; the guarded action is dead"
            (cexpr_to_string c)
      | Some _ ->
          emit ctx ~rule:"redundant-guard" Diag.Info
            "if-guard (%s) is always true; the guard is redundant"
            (cexpr_to_string c)
      | None -> ())
    guards;
  List.iter (cexpr_check ctx ~allow_return) (caplist_exprs cl);
  (match cl with
  | Inline (Write, p, None) ->
      emit ctx ~rule:"write-size-defaulted" Diag.Warning
        "WRITE capability on %s has no size expression and silently defaults to 8 \
         bytes"
        (cexpr_to_string p)
  | Iter (name, _) when not (ctx.env.Env.iterator_exists name) ->
      emit ctx ~rule:"unknown-iterator" Diag.Error
        "capability iterator %s is not registered, so evaluation raises at runtime" name
  | Inline _ | Iter _ -> ());
  ignore
    (List.fold_left
       (fun seen c ->
         let s = cexpr_to_string c in
         if List.mem s seen then
           emit ctx ~rule:"duplicate-guard" Diag.Warning
             "condition (%s) repeated in nested if-guards" s;
         s :: seen)
       [] guards)

let dup_clause_check ctx (t : t) =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun cl ->
      let s = clause_to_string cl in
      if Hashtbl.mem seen s then
        emit ctx ~rule:"duplicate-clause" Diag.Warning "duplicate clause %s" s
      else Hashtbl.add seen s ())
    t

(* --- transfer-then-use ---

   A pre action whose effect is own-then-revoke (a kernel export's
   pre(transfer(cap))) checks the caller owns [cap] and then revokes it
   from everyone.  Any later pre clause of the same annotation that
   references the same capability object performs an ownership check
   against a capability the caller has provably just lost.  No slot
   type's pre action revokes from the module side, so the rule only
   ever fires on kernel exports. *)

let transfer_then_use ctx ~dir (t : t) =
  let transferred = Hashtbl.create 4 (* key -> conditional? *) in
  List.iter
    (fun a ->
      let verb, cl, guards = leaf a in
      let conditional = guards <> [] in
      let keys = List.map cexpr_to_string (caplist_objects cl) in
      List.iter
        (fun k ->
          match Hashtbl.find_opt transferred k with
          | None -> ()
          | Some was_conditional ->
              let sev =
                if was_conditional || conditional then Diag.Warning else Diag.Error
              in
              emit ctx ~rule:"transfer-then-use" sev
                "pre clause references %s after an earlier pre(transfer) revoked \
                 it from the caller — the ownership check cannot succeed"
                k)
        keys;
      if cap_effect ~dir ~phase:`Pre verb = Own_then_revoke then
        List.iter
          (fun k ->
            match Hashtbl.find_opt transferred k with
            | Some false -> ()  (* already unconditionally transferred *)
            | _ -> Hashtbl.replace transferred k conditional)
          keys)
    (pre_actions t)

let annot_findings env ~what ~kexport ~params (t : t) : Finding.t list =
  let ctx = { env; what; params; acc = [] } in
  ignore
    (List.fold_left
       (fun principals -> function
         | Pre a ->
             action_check ctx ~allow_return:false a;
             principals
         | Post a ->
             action_check ctx ~allow_return:true a;
             principals
         | Principal spec as clause ->
             if principals > 0 then
               emit ctx ~rule:"duplicate-principal" Diag.Error
                 "%s is a second principal clause; the entry would run as the first's \
                  principal"
                 (clause_to_string clause);
             (match spec with
             | Pexpr e -> cexpr_check ctx ~allow_return:false e
             | Pglobal | Pshared -> ());
             principals + 1)
       0 t);
  dup_clause_check ctx t;
  transfer_then_use ctx ~dir:(if kexport then M2K else K2M) t;
  List.rev ctx.acc

let slot_findings env (s : Annot.Registry.slot) =
  annot_findings env ~what:("slot " ^ s.sl_name) ~kexport:false ~params:s.sl_params
    s.sl_annot

let kexport_findings env (k : Annot.Registry.slot) =
  annot_findings env ~what:("kexport " ^ k.sl_name) ~kexport:true ~params:k.sl_params
    k.sl_annot
