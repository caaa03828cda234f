(* The annotation evaluator the runtime ran before crossings were
   compiled ([Lxfi.Runtime.crossing_of]).  It walks a declaration's
   AST at every crossing: it filters the pre and post clauses, finds
   each parameter by name and each iterator by name, and decides each
   action's §3.3 effect when the action runs.  test_compiled.ml holds
   the compiled crossings to it, as test_engine.ml holds [Mir.Interp]
   to a direct interpreter.  The one effect applier,
   [Runtime.run_action_effect], is shared. *)

open Kernel_sim
open Lxfi

type env = { params : string list; args : int64 list; ret : int64 option }

(* The argument bound to parameter [p], walking parameters and
   arguments together. *)
let rec arg_of p params args =
  match (params, args) with
  | q :: params, v :: args -> if String.equal q p then v else arg_of p params args
  | _ -> invalid_arg (Printf.sprintf "annotation references unknown parameter %s" p)

let rec eval_cexpr (rt : Runtime.t) env (e : Annot.Ast.cexpr) : int64 =
  match e with
  | Annot.Ast.Cint n -> n
  | Annot.Ast.Cparam p -> arg_of p env.params env.args
  | Annot.Ast.Creturn -> (
      match env.ret with
      | Some v -> v
      | None -> invalid_arg "annotation references return value in pre context")
  | Annot.Ast.Cneg e -> Int64.neg (eval_cexpr rt env e)
  | Annot.Ast.Csizeof s -> Int64.of_int (Ktypes.sizeof rt.Runtime.kst.Kstate.types s)
  | Annot.Ast.Cbin (op, a, b) ->
      let va = eval_cexpr rt env a and vb = eval_cexpr rt env b in
      Annot.Ast.eval_binop op va vb

(* Resolve a caplist to concrete capabilities. *)
let caps_of_caplist rt env (cl : Annot.Ast.caplist) : Capability.t list =
  match cl with
  | Annot.Ast.Inline (ct, pe, se) -> (
      let ptr = Int64.to_int (eval_cexpr rt env pe) in
      match ct with
      | Annot.Ast.Write ->
          let size =
            match se with
            | Some e -> Int64.to_int (eval_cexpr rt env e)
            | None -> 8
          in
          if size <= 0 then [] else [ Capability.Cwrite { base = ptr; size } ]
      | Annot.Ast.Call -> [ Capability.Ccall { target = ptr } ]
      | Annot.Ast.Ref rtype -> [ Capability.Cref { rtype; addr = ptr } ])
  | Annot.Ast.Iter (fname, argexprs) -> (
      match Runtime.find_iterator rt fname with
      | None -> invalid_arg (Printf.sprintf "unknown capability iterator %s" fname)
      | Some fn -> fn (List.map (eval_cexpr rt env) argexprs))

let rec run_action (rt : Runtime.t) mi mp ~dir ~phase env (a : Annot.Ast.action) =
  let apply verb cl ~ctx =
    Runtime.run_action_effect rt mi mp (caps_of_caplist rt env cl)
      (Annot.Ast.cap_effect ~dir ~phase verb)
      ~ctx
  in
  match a with
  | Annot.Ast.Cif (c, a) -> if eval_cexpr rt env c <> 0L then run_action rt mi mp ~dir ~phase env a
  | Annot.Ast.Check cl ->
      if rt.Runtime.config.Config.mode <> Config.Xfi then apply `Check cl ~ctx:"check"
  | Annot.Ast.Copy cl ->
      apply `Copy cl ~ctx:(match phase with `Pre -> "copy(pre)" | `Post -> "copy(post)")
  | Annot.Ast.Transfer cl ->
      apply `Transfer cl
        ~ctx:(match phase with `Pre -> "transfer(pre)" | `Post -> "transfer(post)")

(* A declaration's pre or post actions, as its wrapper ran them. *)
let run_phase rt mi mp ~dir (d : Annot.Registry.slot) (phase : Annot.Ast.phase) args ~ret =
  let ret = match phase with `Pre -> None | `Post -> Some ret in
  let env = { params = d.sl_params; args; ret } in
  List.iter
    (run_action rt mi mp ~dir ~phase env)
    ((match phase with `Pre -> Annot.Ast.pre_actions | `Post -> Annot.Ast.post_actions) d.sl_annot)

(* The callee principal of a kernel→module call, by the slot type's
   principal clause. *)
let select_principal (rt : Runtime.t) (mi : Runtime.module_info) (d : Annot.Registry.slot) args =
  match Annot.Ast.principal_of d.sl_annot with
  | None | Some Annot.Ast.Pshared -> mi.mi_shared
  | Some Annot.Ast.Pglobal -> mi.mi_global
  | Some (Annot.Ast.Pexpr e) ->
      if rt.config.Config.mode = Config.Lxfi then
        let name_ptr =
          Int64.to_int (eval_cexpr rt { params = d.sl_params; args; ret = None } e)
        in
        Runtime.find_or_create_instance rt mi ~name_ptr
      else mi.mi_shared
