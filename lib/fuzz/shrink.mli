(** Counterexample minimizer: greedy delta-debugging over MIR programs.

    [pred] maps a program to the {e failure signature} it exhibits
    ([None] = does not fail).  A reduction is kept only when the
    signature is unchanged — the classic ddmin safeguard against
    shrinking one bug into a different one.  Reductions tried, to a
    bounded budget of predicate evaluations: statement-chunk deletion
    per function (halving chunk sizes), replacing an [If]/[While] with
    one of its branches, and dropping whole functions, globals and
    imports (a reduction that breaks a reference changes the signature
    and is rejected automatically). *)

val minimize : pred:(Mir.Ast.prog -> string option) -> Mir.Ast.prog -> Mir.Ast.prog
(** Smallest program found that still fails with [prog]'s signature;
    [prog] itself if it does not fail under [pred]. *)
