(** The SFI microbenchmarks of §8.3 (hotlist, lld, MD5) as MIR modules,
    run stock vs. instrumented: code-size ratio and simulated-cycle
    slowdown (the Figure 11 columns).  The harness also asserts the
    instrumented run computes the same result as stock. *)

(** The three programs, exported for the parser and printer tests. *)

val hotlist_prog : Mir.Ast.prog
val lld_prog : Mir.Ast.prog
val md5_prog : Mir.Ast.prog

type result = {
  b_name : string;
  b_code_ratio : float;  (** instrumented / original IR size *)
  b_stock_cycles : int;
  b_lxfi_cycles : int;
  b_slowdown : float;  (** lxfi/stock − 1 *)
  b_result : int64;
}

val run : ?config_lxfi:Lxfi.Config.t -> string -> Mir.Ast.prog -> iters:int -> result
(** Raises [Invalid_argument] if the instrumented run diverges from
    stock. *)

val all : ?iters:int -> ?config_lxfi:Lxfi.Config.t -> unit -> result list
