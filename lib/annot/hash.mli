(** Canonical annotation hashing — the [ahash] of paper §4.1.

    The kernel compares the hash of a function-pointer slot type's
    annotation with the hash of the annotation carried by the function
    actually stored there, so a module cannot launder a function into a
    slot with a different contract.  FNV-1a over the canonical printing
    plus the parameter-name list. *)

val of_annot : params:string list -> Ast.t -> int64

val empty : int64
(** The hash checked against unannotated slot types. *)
