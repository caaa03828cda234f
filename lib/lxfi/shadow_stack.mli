(** Per-thread shadow stacks (paper §5): wrappers push a return token
    and the principal to restore at entry, and validate/pop at exit —
    control-flow integrity for boundary returns plus interrupt-safe
    principal switching. *)

type frame = {
  token : int;  (** return token; must match at exit *)
  saved_principal : Principal.t option;  (** to restore (None = kernel) *)
  wrapper : string;  (** for diagnostics *)
}

type t = {
  mutable frames : frame list;
  mem_base : int;  (** reserved region adjacent to the kernel stack;
                       never covered by any WRITE capability *)
  mem_len : int;
  mutable max_depth : int;
  mutable token_counter : int;
}

val create : mem_base:int -> mem_len:int -> t
val depth : t -> int

val push : t -> wrapper:string -> saved_principal:Principal.t option -> int
(** Returns the token the matching {!pop} must present.  Raises a
    shadow-stack {!Violation.Violation} on overflow. *)

val pop : t -> wrapper:string -> token:int -> Principal.t option
(** Validate the return and yield the principal to restore.  Raises a
    shadow-stack {!Violation.Violation} on token mismatch or empty
    stack. *)

val top_wrapper : t -> string option
(** Exported for the shadow-stack tests. *)

val unwind_to : t -> depth:int -> Principal.t option
(** Discard frames above [depth] without token validation — the
    quarantine path abandoning a faulted module's activations.  Returns
    the saved principal of the innermost discarded frame (what was
    current before the oldest abandoned wrapper), or [None] if nothing
    was discarded. *)
