(* The set-based flow-graph extraction that [Check.Apiflow.extract]
   replaced, kept as the differential reference (as test_engine.ml keeps
   a direct AST interpreter for the MIR engine).  Every fragment's
   summary is a [Set.Make (String)] of first and last calls plus a set
   of may-follow pairs, recomputed by walking the AST on every fixpoint
   round; the node set and the undefined callees are further walks.
   test_check.ml holds the new extraction to this one. *)

open Mir.Ast
module SSet = Set.Make (String)
module SMap = Map.Make (String)

module PSet = Set.Make (struct
  type t = string * string

  let compare = compare
end)

(** May-follow summary of a program fragment: the kernel-API calls that
    can come first / last, the within-fragment may-follow pairs, and
    whether the fragment can execute without any kernel-API call. *)
type summary = { first : SSet.t; last : SSet.t; pairs : PSet.t; empty : bool }

let empty_sum =
  { first = SSet.empty; last = SSet.empty; pairs = PSet.empty; empty = true }

let sum_equal a b =
  SSet.equal a.first b.first && SSet.equal a.last b.last
  && PSet.equal a.pairs b.pairs && a.empty = b.empty

let node k =
  { first = SSet.singleton k; last = SSet.singleton k; pairs = PSet.empty; empty = false }

let cross xs ys acc =
  SSet.fold (fun x acc -> SSet.fold (fun y acc -> PSet.add (x, y) acc) ys acc) xs acc

let seq a b =
  {
    first = (if a.empty then SSet.union a.first b.first else a.first);
    last = (if b.empty then SSet.union a.last b.last else b.last);
    pairs = cross a.last b.first (PSet.union a.pairs b.pairs);
    empty = a.empty && b.empty;
  }

let alt a b =
  {
    first = SSet.union a.first b.first;
    last = SSet.union a.last b.last;
    pairs = PSet.union a.pairs b.pairs;
    empty = a.empty || b.empty;
  }

let star a = { a with pairs = cross a.last a.first a.pairs; empty = true }

(* A called function's contribution at a call site: its summary made
   transparent (able to contribute no call).  Fixing [empty = true] at
   call sites keeps every transfer function monotone in the set
   components, so the fixpoint below terminates, at the cost of a
   strictly larger (= safer) graph. *)
let transparent a = { a with empty = true }

(** Per-statement-list flow: executions that fall through vs. those
    that left via [Return].  [None] means "no execution takes this
    path" — distinct from [Some empty_sum], "a path with no calls". *)
type flow = { fall : summary option; exits : summary option }

let opt_alt a b =
  match (a, b) with None, x | x, None -> x | Some a, Some b -> Some (alt a b)

let opt_seq_after s = Option.map (fun x -> seq s x)

type ctx = {
  is_kexport : string -> bool;
  fsum : string -> summary;  (** current fixpoint summary of an own function *)
  isum : unit -> summary;  (** indirect-call summary (address-taken union) *)
}

let rec sum_expr ctx (e : expr) : summary =
  match e with
  | Const _ | Var _ | Glob _ | Funcaddr _ | Extaddr _ -> empty_sum
  | Load (_, a) -> sum_expr ctx a
  | Binop (_, _, a, b) -> seq (sum_expr ctx a) (sum_expr ctx b)
  | Call (callee, args) -> (
      let args_sum =
        List.fold_left (fun acc a -> seq acc (sum_expr ctx a)) empty_sum args
      in
      match callee with
      | Ext name ->
          if ctx.is_kexport name then seq args_sum (node name) else args_sum
      | Direct f -> seq args_sum (transparent (ctx.fsum f))
      | Indirect tgt ->
          seq (sum_expr ctx tgt) (seq args_sum (transparent (ctx.isum ()))))

let rec flow_stmt ctx (s : stmt) : flow =
  match s with
  | Let (_, e) | Expr e -> { fall = Some (sum_expr ctx e); exits = None }
  | Return e -> { fall = None; exits = Some (sum_expr ctx e) }
  | Alloca _ | Guard _ -> { fall = Some empty_sum; exits = None }
  | Store (_, a, v) ->
      { fall = Some (seq (sum_expr ctx a) (sum_expr ctx v)); exits = None }
  | If (c, t, f) ->
      let sc = sum_expr ctx c in
      let ft = flow_stmts ctx t and ff = flow_stmts ctx f in
      {
        fall = opt_seq_after sc (opt_alt ft.fall ff.fall);
        exits = opt_seq_after sc (opt_alt ft.exits ff.exits);
      }
  | While (c, b) ->
      let sc = sum_expr ctx c in
      let fb = flow_stmts ctx b in
      (* Fall-through runs [c (b c)*]; an exit runs that prefix, then
         one body attempt that returns. *)
      let prefix =
        match fb.fall with
        | Some bf -> seq sc (star (seq bf sc))
        | None -> sc
      in
      { fall = Some prefix; exits = opt_seq_after prefix fb.exits }

and flow_stmts ctx (ss : stmt list) : flow =
  List.fold_left
    (fun acc s ->
      match acc.fall with
      | None -> acc (* unreachable: every earlier path returned *)
      | Some before ->
          let f = flow_stmt ctx s in
          {
            fall = opt_seq_after before f.fall;
            exits = opt_alt acc.exits (opt_seq_after before f.exits);
          })
    { fall = Some empty_sum; exits = None }
    ss

(** Entry-to-completion summary of one function body. *)
let sum_func ctx (fn : func) : summary =
  let f = flow_stmts ctx fn.body in
  match opt_alt f.fall f.exits with Some s -> s | None -> empty_sum

(* --- syntactic facts over every expression of a program --- *)

let fold_prog f acc (prog : prog) =
  List.fold_left (fun acc (fn : func) -> fold_stmts f acc fn.body) acc prog.funcs

(** Address-taken sets, for indirect-call summaries: own functions and
    imports whose address the program takes in code or in a global
    initialiser. *)
let address_taken (prog : prog) : SSet.t * SSet.t =
  let acc =
    fold_prog
      (fun ((own, kex) as acc) -> function
        | Funcaddr f -> (SSet.add f own, kex)
        | Extaddr x -> (own, SSet.add x kex)
        | _ -> acc)
      (SSet.empty, SSet.empty) prog
  in
  List.fold_left
    (fun acc (g : glob) ->
      List.fold_left
        (fun (own, kex) init ->
          match init with
          | Ifunc (_, f) -> (SSet.add f own, kex)
          | Iext (_, x) -> (own, SSet.add x kex)
          | Iword _ -> (own, kex))
        acc g.ginit)
    acc prog.globals

(* --- the graph --- *)

type graph = {
  g_module : string;
  g_nodes : string list;  (** kexports the module can call, sorted *)
  g_start : string list;  (** calls that may begin an activation, sorted *)
  g_edges : (string * string) list;  (** sorted may-follow pairs *)
  g_first : SSet.t;  (** [g_start]: the successors of the start position *)
  g_next : SSet.t SMap.t;
      (** [g_edges] as a lookup: each edge source's successors *)
  g_node_set : SSet.t;  (** [g_nodes] *)
}

(** [permits g ~pos k] — may the module call kexport [k] from automaton
    position [pos] ([None] = start)?  Two balanced-tree lookups ordered
    by [String.compare]: the position's successor set, then [k] in it. *)
let permits g ~pos k =
  match pos with
  | None -> SSet.mem k g.g_first
  | Some p -> (
      match SMap.find_opt p g.g_next with
      | Some next -> SSet.mem k next
      | None -> false)

let has_node g k = SSet.mem k g.g_node_set

(** [extract env prog] — the flow graph of [prog], with kexports
    identified through [env].  Deterministic: pure set computations,
    rendered as sorted lists. *)
let extract (env : Check.Env.t) (prog : prog) : graph =
  let is_kexport name = env.Check.Env.kexport name <> None in
  let tbl : (string, summary) Hashtbl.t = Hashtbl.create 16 in
  let fsum f =
    match Hashtbl.find_opt tbl f with Some s -> s | None -> empty_sum
  in
  let own_taken, kex_taken = address_taken prog in
  let isum () =
    let base =
      SSet.fold (fun f acc -> alt acc (fsum f)) own_taken empty_sum
    in
    SSet.fold
      (fun x acc -> if is_kexport x then alt acc (node x) else acc)
      kex_taken base
  in
  let ctx = { is_kexport; fsum; isum } in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (fn : func) ->
        let s = sum_func ctx fn in
        if not (sum_equal s (fsum fn.fname)) then begin
          Hashtbl.replace tbl fn.fname s;
          changed := true
        end)
      prog.funcs
  done;
  (* Every function is a potential kernel entry. *)
  let firsts, lasts, pairs =
    List.fold_left
      (fun (fs, ls, ps) (fn : func) ->
        let s = fsum fn.fname in
        (SSet.union fs s.first, SSet.union ls s.last, PSet.union ps s.pairs))
      (SSet.empty, SSet.empty, PSet.empty)
      prog.funcs
  in
  let edges = cross lasts firsts pairs in
  let nodes =
    fold_prog
      (fun acc -> function
        | Call (Ext name, _) when is_kexport name -> SSet.add name acc
        | _ -> acc)
      SSet.empty prog
  in
  (* [edges] as a lookup, built as [edges] is: the boundary edges
     [lasts × firsts], then the within-function pairs. *)
  let next =
    PSet.fold
      (fun (a, b) m ->
        let succ = Option.value (SMap.find_opt a m) ~default:SSet.empty in
        SMap.add a (SSet.add b succ) m)
      pairs
      (SSet.fold (fun a m -> SMap.add a firsts m) lasts SMap.empty)
  in
  {
    g_module = prog.pname;
    g_nodes = SSet.elements nodes;
    g_start = SSet.elements firsts;
    g_edges = PSet.elements edges;
    g_first = firsts;
    g_next = next;
    g_node_set = nodes;
  }

(** Direct callees the program does not define, sorted: the callees
    [Check.Apiflow.check_module] reports as extraction errors. *)
let undefined (prog : prog) : string list =
  SSet.elements
    (fold_prog
       (fun acc -> function
         | Call (Direct f, _) when find_func prog f = None -> SSet.add f acc
         | _ -> acc)
       SSet.empty prog)
