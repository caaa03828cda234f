(** Pretty-printer for MIR.  The output is the exact textual language
    {!Parser} reads back (lossless round trip: globals with
    initialisers, export slot types, guards, width-suffixed
    operators). *)

val binop_symbol : Ast.binop -> string
val pp_prog : Format.formatter -> Ast.prog -> unit
val to_string : Ast.prog -> string
