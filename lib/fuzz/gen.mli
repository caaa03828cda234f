(** The shared well-behaved module generator: random MIR modules with
    an annotated kernel-callable surface (plain entry, a WRITE-granting
    [touch], a cross-principal [peer], vtable callbacks and a
    kernel-held function-pointer slot), whose every store stays inside
    memory the module legitimately owns.

    This is the single generator definition behind both the qcheck
    differential suite ([test_differential.ml]) and the CLI fuzzer
    ([lxfi_sim fuzz]); {!Mutate} derives the malicious variants from
    its output.  It is parameterized over a plain [int -> int] random
    source so the library depends on neither qcheck nor a global RNG:
    wrap a {!Rng.t} with {!Rng.rand}, or a [Random.State.t] for
    qcheck. *)

type rand = int -> int
(** [rand n] must return a uniform value in [0, n). *)

val arena_size : int
(** Size of the module's scratch global (every generated store is
    8-aligned inside it). *)

val touch_grant : int
(** Bytes of WRITE the [fuzz.touch] slot annotation grants on its
    buffer parameter. *)

val kbuf_size : int
(** Size of the kernel-owned buffer the harness passes to [touch]. *)

val slot_defs : (string * string list * string) list
(** The fuzz slot types (name, params, annotation source) a harness
    must define before loading generated modules: [fuzz.entry],
    [fuzz.touch] (pre-copy WRITE of {!touch_grant} bytes),
    [fuzz.peer] (instance principal), [fuzz.cb] (vtable callback) and
    [fuzz.noop]. *)

val imports : string list
(** Kernel imports every generated module declares. *)

type case = {
  c_prog : Mir.Ast.prog;  (** the well-behaved module *)
  c_inputs : int64 list;  (** inputs the harness drives it with *)
}

val case_of_rand : ?size:int -> rand -> case
(** One well-behaved module and its inputs.  [size] scales statement
    count and nesting (default 8); loop bounds and nesting depth are
    capped so the worst clean entry stays far under {!Harness.fuel}. *)

val of_random_state : ?size:int -> unit -> Random.State.t -> case
(** The same generator as a [Random.State.t] consumer — exactly
    [QCheck.Gen.t]'s representation, so qcheck suites can use it
    without this library depending on qcheck. *)
