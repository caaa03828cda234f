(* Every position an expression can take in MIR, as a context with a
   hole.  The rewriter must refuse an indirect call at each of them
   (test_rewriter.ml), and the flow extractor must find a kernel-export
   call at each of them (test_check.ml). *)

open Mir.Builder

(* Expression positions, each inside a [Let].  The hole is the last of
   two call arguments, so a walk that stops at the first misses it. *)
let exprs : (string * (Mir.Ast.expr -> Mir.Ast.expr)) list =
  [
    ("Load address", load64);
    ("Binop left operand", fun h -> h +: ii 1);
    ("Binop right operand", fun h -> ii 1 +: h);
    ("direct call argument", fun h -> call "helper" [ ii 0; h ]);
    ("external call argument", fun h -> call_ext "kfree" [ ii 0; h ]);
    ("indirect call argument", fun h -> call_ind (v "p") [ ii 0; h ]);
    ("indirect callee", fun h -> call_ind h [ ii 0 ]);
  ]

(* Statement positions.  The hole sits under a [Load], so it is never a
   statement's whole expression (where the rewriter hoists an indirect
   call instead of refusing it). *)
let stmts : (string * (Mir.Ast.expr -> Mir.Ast.stmt)) list =
  [
    ("Let", fun h -> let_ "y" (load64 h));
    ("Store address", fun h -> store64 (load64 h) (ii 0));
    ("Store value", fun h -> store64 (glob "g") (load64 h));
    ("If condition", fun h -> if_ (load64 h) [] []);
    ("While condition", fun h -> while_ (load64 h) []);
    ("Expr", fun h -> expr (load64 h));
    ("Return", fun h -> ret (load64 h));
  ]

(* Both lists as statement contexts. *)
let all = List.map (fun (name, e) -> (name, fun h -> let_ "y" (e h))) exprs @ stmts

(* A one-function module whose body is [s]. *)
let prog_of s =
  prog "pos" ~imports:[ "kfree" ] ~globals:[ global "g" 64 ]
    ~funcs:[ func "f" [ "p" ] [ s; ret0 ] ]
