(** Shared skeleton for the protocol modules (rds, econet, can,
    can-bcm): family registration, per-socket private objects, and the
    module-global socket list whose linking/unlinking runs as the
    global principal after a structural check — the paper's §3.1
    motivating example. *)

(** Private sk layout; per-module payload starts at [sk_user]. *)

val sk_state : int
val sk_buf_len : int
val sk_buf : int
val sk_user : int

type body = Ksys.t -> Mir.Ast.stmt list
(** Operation bodies, parameterised on the booted system for struct
    offsets; sendmsg/recvmsg run with [sock buf len flags], ioctl with
    [sock cmd arg]. *)

val sk_of : Ksys.t -> Mir.Ast.expr -> Mir.Ast.expr
(** Load the private sk pointer from the kernel socket object. *)

val make :
  Ksys.t ->
  name:string ->
  family:int ->
  ops_section:Mir.Ast.section ->
  sk_size:int ->
  sendmsg:body ->
  recvmsg:body ->
  ioctl:body ->
  ?extra_funcs:Mir.Ast.func list ->
  ?extra_globals:Mir.Ast.glob list ->
  ?extra_imports:string list ->
  unit ->
  Mir.Ast.prog

val proto_slot_types : string list
