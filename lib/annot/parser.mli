(** Recursive-descent parser for the annotation language of paper
    Figure 2.  Annotations are whitespace-separated clause sequences:

    {v
    principal(pcidev)
    pre(copy(ref(struct pci_dev), pcidev))
    post(if (return < 0) transfer(ref(struct pci_dev), pcidev))
    pre(transfer(skb_caps(skb)))
    pre(check(write, lock, 4))
    v} *)

type error = {
  err_msg : string;  (** what the parser expected or rejected *)
  err_pos : int option;  (** byte offset into the annotation source *)
  err_token : string option;  (** the offending token text, if any *)
}

exception Parse_error of error
(** Raised internally; [parse] catches it and returns [Error]. *)

val error_to_string : ?src:string -> error -> string
(** Render an error, optionally prefixed with the annotation source it
    came from: [annotation "...": expected ( at offset 12 (near ",")]. *)

val pp_error : Format.formatter -> error -> unit

val parse : string -> (Ast.t, error) result
