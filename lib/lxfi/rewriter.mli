(** Compile-time module rewriting (paper §4.2) — the clang-plugin
    analogue, operating on MIR.

    [instrument] inserts a [Gwrite] guard before every store and a
    [Gindcall] guard before every indirect call (both on hoisted
    temporaries), implements the paper's two §8.3 optimizations
    (trivial-function inlining; elision of provably in-bounds
    constant-offset stores into function-local allocas), and refuses
    code it cannot analyse (an indirect call nested in a subexpression),
    like the paper's rewriter refuses untraceable pointers (§7).

    For [Config.Stock] only the ordinary compiler optimization
    (inlining) is applied — the baseline a real gcc build would get —
    and no guards are inserted. *)

exception Rewrite_error of string

type report = {
  r_orig_size : int;  (** IR nodes before instrumentation *)
  r_inst_size : int;  (** after, including per-function entry/exit hooks *)
  r_write_guards : int;
  r_write_elided : int;  (** stores proven safe by the alloca analysis *)
  r_indcall_guards : int;
  r_inlined_calls : int;
  r_dropped_funcs : int;  (** inlined-away leaves removed *)
}

val instrument : Config.t -> Mir.Ast.prog -> Mir.Ast.prog * report
(** Instrument a module per the configuration.  Raises {!Rewrite_error}
    on unanalysable or already-instrumented code. *)

val pp_report : Format.formatter -> report -> unit
