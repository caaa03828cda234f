(** Syscall-flow extraction: a coarse per-module kernel-API flow graph
    computed from MIR, in the spirit of SFP/SFIP's syscall-flow
    integrity (see PAPERS.md).

    Nodes are the module's annotated kernel-export call sites (by
    export name); edges are the {e may-follow} relation: [(a, b)] is an
    edge when some execution of the module can call [b] with [a] as the
    immediately preceding kernel-API call.  The relation is computed
    intraprocedurally per function from the MIR control structure
    (sequence / if / while, with the interpreter's strict left-to-right
    evaluation order), direct calls inline the callee's summary (to a
    fixpoint, so recursion converges), and indirect calls use the union
    of every address-taken function's summary.  Because modules are
    re-entered by the kernel many times, every function is treated as a
    potential entry point and the graph additionally contains the
    {e boundary} edges [lasts × firsts]: any call that can end one
    activation may be followed by any call that can begin another.

    The analysis over-approximates by construction (inlined summaries
    are made {e transparent} — allowed to contribute no call — and
    [Return] is tracked as a separate exit path), so a faithfully
    executed module can never leave its own extracted graph; only a
    mutated or corrupted module can.  That is the soundness contract
    the runtime automaton ([Runtime.call_kexport]) and the fuzz oracle
    rely on.

    One walk turns each function into a {e call skeleton} (its calls in
    evaluation order, branches, loops and returns; call-free statements
    dropped), numbers the nodes and records address-taken functions and
    undefined callees.  The fixpoint runs over the skeletons with every
    set a bitset over node ids, which ascend with the export names. *)

open Mir.Ast

(** Node ids as bits: id [i] is bit [i mod word] of word [i / word]. *)
type bits = int array

let word = Sys.int_size
let mem (s : bits) i = s.(i / word) land (1 lsl (i mod word)) <> 0

let union (a : bits) (b : bits) =
  if a == b then a
  else
    let c = Array.copy a in
    for k = 0 to Array.length c - 1 do c.(k) <- c.(k) lor b.(k) done;
    c

let same (a : bits) b = a == b || Array.for_all2 Int.equal a b

(** May-follow summary of a program fragment: the kernel-API calls that
    can come first / last, the within-fragment may-follow pairs (row [a]
    of [pairs] holds each [b] of a pair [(a, b)]), and whether the
    fragment can execute without any kernel-API call. *)
type summary = { first : bits; last : bits; pairs : bits; empty : bool }

(* [pairs ∪ last × first] *)
let cross last (first : bits) pairs =
  let w = Array.length first and p = Array.copy pairs in
  for i = 0 to Array.length p - 1 do
    if mem last (i / w) then p.(i) <- p.(i) lor first.(i mod w)
  done;
  p

(* A called function's contribution at a call site: its summary made
   transparent (able to contribute no call).  Fixing [empty = true] at
   call sites keeps every transfer function monotone in the set
   components, so the fixpoint below terminates, at the cost of a
   strictly larger (= safer) graph. *)
let transparent a = if a.empty then a else { a with empty = true }

(* [nil], the fragment with no call, is the unit of [seq]; summaries
   are never mutated, so an unchanged operand is returned as is. *)
let seq nil a b =
  if a == nil then b
  else if b == nil then a
  else
    {
      first = (if a.empty then union a.first b.first else a.first);
      last = (if b.empty then union a.last b.last else b.last);
      pairs = cross a.last b.first (union a.pairs b.pairs);
      empty = a.empty && b.empty;
    }

let alt nil a b =
  if a == b then a
  else if b == nil then transparent a
  else if a == nil then transparent b
  else
    {
      first = union a.first b.first;
      last = union a.last b.last;
      pairs = union a.pairs b.pairs;
      empty = a.empty || b.empty;
    }

let star a = { a with pairs = cross a.last a.first a.pairs; empty = true }

let same_summary a b =
  a.empty = b.empty && same a.first b.first && same a.last b.last && same a.pairs b.pairs

let opt_alt nil a b =
  match (a, b) with None, x | x, None -> x | Some a, Some b -> Some (alt nil a b)

(** One function body as the fixpoint sees it. *)
type sk =
  | Kcall of int  (** a kernel-export call: its node's walk-order index *)
  | Fcall of int  (** a direct call: the callee's function index *)
  | Icall  (** an indirect call *)
  | Ret
  | Branch of sk list * sk list
  | Loop of sk list * sk list  (** the condition's calls, the body *)

type graph = {
  g_module : string;
  g_nodes : string list;  (** kexports the module can call, sorted *)
  g_start : string list;  (** calls that may begin an activation, sorted *)
  g_edges : (string * string) list;  (** sorted may-follow pairs *)
  g_names : string array;
      (** node id -> export name, ascending; [g_nodes] and, with indirect calls, taken addresses *)
  g_first : bits;  (** [g_start]: the successors of the start position *)
  g_succ : bits array;  (** [g_edges]: each node's successors *)
  g_undefined : string list;  (** direct callees the program does not define, sorted *)
}

(** The automaton's start position. *)
let start = -1

(** [id g k] — the node id of export [k] in [g], or [-1]. *)
let id g k = Option.value (Array.find_index (String.equal k) g.g_names) ~default:(-1)

(** [name g pos] — the export a position stands for ([None] at start). *)
let name g pos = if pos < 0 then None else Some g.g_names.(pos)

(** [permits g ~pos k] — may the module call node [k] from position
    [pos]?  One bit test; a negative [k] (no node) is never permitted. *)
let permits g ~pos k = k >= 0 && mem (if pos < 0 then g.g_first else g.g_succ.(pos)) k

let has_node g k = List.exists (String.equal k) g.g_nodes

(** [extract env prog] — the flow graph of [prog], with kexports
    identified through [env], each looked up once. *)
let extract (env : Env.t) (prog : prog) : graph =
  let funcs = Array.of_list prog.funcs in
  let func_index f = Array.find_index (fun fn -> String.equal fn.fname f) funcs in
  (* Export names get indexes in walk order; [-1] marks a name that is
     not a kernel export. *)
  let seen = ref [] and n = ref 0 in
  let index x =
    let rec find = function
      | (y, i) :: rest -> if String.equal x y then i else find rest
      | [] ->
          let i = if env.Env.kexport x = None then -1 else (incr n; !n - 1) in
          seen := (x, i) :: !seen;
          i
    in
    find !seen
  in
  let undefined = ref [] and own_taken = ref [] and ext_taken = ref [] in
  let indirect = ref false in
  (* An expression's calls, reversed onto [acc]. *)
  let rec expr acc = function
    | Const _ | Var _ | Glob _ -> acc
    | Funcaddr f ->
        own_taken := f :: !own_taken;
        acc
    | Extaddr x ->
        ext_taken := x :: !ext_taken;
        acc
    | Load (_, a) -> expr acc a
    | Binop (_, _, a, b) -> expr (expr acc a) b
    | Call (Ext x, args) ->
        let acc = List.fold_left expr acc args in
        let k = index x in
        if k < 0 then acc else Kcall k :: acc
    | Call (Direct f, args) -> (
        let acc = List.fold_left expr acc args in
        match func_index f with
        | Some i -> Fcall i :: acc
        | None ->
            undefined := f :: !undefined;
            acc)
    | Call (Indirect t, args) ->
        indirect := true;
        Icall :: List.fold_left expr (expr acc t) args
  in
  let rec block ss = List.rev (List.fold_left stmt [] ss)
  and stmt acc = function
    | Let (_, e) | Expr e -> expr acc e
    | Return e -> Ret :: expr acc e
    | Store (_, a, v) -> expr (expr acc a) v
    | Alloca _ -> acc
    | Guard (Gwrite (_, e) | Gindcall e) ->
        (* no flow of its own, but its calls are nodes all the same *)
        ignore (expr [] e);
        acc
    | If (c, t, e) -> (
        let acc = expr acc c in
        match (block t, block e) with [], [] -> acc | t, e -> Branch (t, e) :: acc)
    | While (c, b) -> (
        match (List.rev (expr [] c), block b) with [], [] -> acc | c, b -> Loop (c, b) :: acc)
  in
  let skeletons = Array.map (fun fn -> block fn.body) funcs in
  List.iter
    (function
      | Ifunc (_, f) -> own_taken := f :: !own_taken
      | Iext (_, x) -> ext_taken := x :: !ext_taken
      | Iword _ -> ())
    (List.concat_map (fun g -> g.ginit) prog.globals);
  let called = !n in
  (* Address-taken exports are reachable only by indirect calls. *)
  let ext_taken = if !indirect then List.filter (( <= ) 0) (List.map index !ext_taken) else [] in
  let n = !n in
  let w = max 1 ((n + word - 1) / word) in
  (* Node [id] has walk-order index [order.(id)]; [rank] inverts it. *)
  let walk_names = Array.make n "" in
  List.iter (fun (x, i) -> if i >= 0 then walk_names.(i) <- x) !seen;
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> String.compare walk_names.(a) walk_names.(b)) order;
  let rank = Array.make n 0 in
  Array.iteri (fun id i -> rank.(i) <- id) order;
  let zero = Array.make w 0 in
  let nil = { first = zero; last = zero; pairs = Array.make (n * w) 0; empty = true } in
  let nodes =
    Array.init n (fun i ->
        let s = Array.make w 0 in
        s.(rank.(i) / word) <- 1 lsl (rank.(i) mod word);
        { nil with first = s; last = s; empty = false })
  in
  let fsum = Array.make (Array.length funcs) nil and isum = ref nil in
  (* Thread the executions reaching a skeleton through it: [fall] are
     those still running ([None]: no execution gets here), [exits]
     those that left via [Ret]. *)
  let rec run fall exits sks =
    match (fall, sks) with
    | None, _ | _, [] -> (fall, exits)
    | Some s, sk :: rest -> (
        match sk with
        | Kcall k -> run (Some (seq nil s nodes.(k))) exits rest
        | Fcall f -> run (Some (seq nil s (transparent fsum.(f)))) exits rest
        | Icall -> run (Some (seq nil s (transparent !isum))) exits rest
        | Ret -> (None, opt_alt nil exits fall)
        | Branch (t, e) ->
            let ft, exits = run fall exits t in
            let fe, exits = run fall exits e in
            run (opt_alt nil ft fe) exits rest
        | Loop (cond, body) ->
            (* Fall-through runs [c (b c)*]; an exit runs that prefix,
               then one body attempt that returns.  [cond] holds calls
               only, so it always falls through. *)
            let c = Option.value (fst (run (Some nil) None cond)) ~default:nil in
            let fb, xb = run (Some nil) None body in
            let prefix = match fb with Some b -> seq nil c (star (seq nil b c)) | None -> c in
            let s = seq nil s prefix in
            run (Some s) (opt_alt nil exits (Option.map (seq nil s) xb)) rest)
  in
  let own_taken = List.filter_map func_index !own_taken in
  let rec fixpoint () =
    if !indirect then
      isum :=
        List.fold_left (alt nil) nil
          (List.map (Array.get fsum) own_taken @ List.map (Array.get nodes) ext_taken);
    let changed = ref false in
    Array.iteri
      (fun f sk ->
        let fall, exits = run (Some nil) None sk in
        let s = Option.value (opt_alt nil fall exits) ~default:nil in
        if not (same_summary s fsum.(f)) then begin
          fsum.(f) <- s;
          changed := true
        end)
      skeletons;
    if !changed then fixpoint ()
  in
  fixpoint ();
  (* Every function is a potential kernel entry. *)
  let firsts, lasts, pairs =
    Array.fold_left
      (fun (fs, ls, ps) s -> (union fs s.first, union ls s.last, union ps s.pairs))
      (zero, zero, nil.pairs) fsum
  in
  let names = Array.map (fun i -> walk_names.(i)) order in
  let succ =
    Array.init n (fun a ->
        let row = Array.sub pairs (a * w) w in
        if mem lasts a then union row firsts else row)
  in
  let rec down a acc f = if a < 0 then acc else down (a - 1) (f a acc) f in
  let named p = down (n - 1) [] (fun a acc -> if p a then names.(a) :: acc else acc) in
  {
    g_module = prog.pname;
    g_nodes = named (fun a -> order.(a) < called);
    g_start = named (mem firsts);
    g_edges =
      down (n - 1) [] (fun a acc ->
          down (n - 1) acc (fun b acc ->
              if mem succ.(a) b then (names.(a), names.(b)) :: acc else acc));
    g_names = names;
    g_first = firsts;
    g_succ = succ;
    g_undefined = List.sort_uniq String.compare !undefined;
  }

(** Byte-stable rendering, one line per fact. *)
let render_lines (g : graph) : string list =
  Printf.sprintf "flow module %s" g.g_module
  :: List.map (Printf.sprintf "flow node %s") g.g_nodes
  @ List.map (Printf.sprintf "flow start %s") g.g_start
  @ List.map (fun (a, b) -> Printf.sprintf "flow edge %s -> %s" a b) g.g_edges

let render (g : graph) : string = String.concat "\n" (render_lines g) ^ "\n"

(* --- checker facade integration --- *)

(** [check_module env prog] — flow-graph findings for one module: an
    error per direct call to an undefined function (extraction cannot
    summarise the callee), and one info finding stating the extracted
    graph's size, so [lxfi_sim check] reports surface the pass ran.
    [graph], when given, is [prog]'s graph already extracted under
    [env] (a linked image's), so it is not extracted again. *)
let check_module ?graph (env : Env.t) (prog : prog) : Finding.t list =
  let g = match graph with Some g -> g | None -> extract env prog in
  (* Direct calls to functions the program does not define: the loader
     would build a context whose execution oopses, and the flow summary
     for the callee is vacuous — a genuine extraction failure. *)
  let errors =
    List.map
      (fun f ->
        Finding.make ~rule:"flow-extraction" ~location:prog.pname
          ~source:"check.apiflow" Diag.Error
          "direct call to undefined function %s: no flow summary for the \
           callee"
          f)
      g.g_undefined
  in
  let info =
    (* Modules that call no kernel export have a vacuous graph; stay
       silent so kexport-free fixtures keep checking finding-free. *)
    if g.g_nodes = [] then []
    else
      [
        Finding.make ~rule:"flow-graph" ~location:prog.pname
          ~source:"check.apiflow" Diag.Info
          "flow graph: %d kexport nodes, %d start, %d may-follow edges"
          (List.length g.g_nodes) (List.length g.g_start)
          (List.length g.g_edges);
      ]
  in
  errors @ info
