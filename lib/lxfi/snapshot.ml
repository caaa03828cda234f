(** Deterministic snapshots of a module's security state.

    A snapshot captures everything the runtime knows about one loaded
    module: every principal with its full capability table (WRITE
    ranges, CALL targets, REF capabilities), quarantine status, the
    writer-set lines covering module-owned memory, the shadow-stack
    depth at capture, the module's global variables' bytes, and the
    guard counters at capture time.

    Snapshots serve three consumers (see DESIGN.md, "Recovery
    semantics"):

    - {e hot upgrade} ([Loader.upgrade]) captures before retiring the
      old instance and re-grants the surviving subset into the new one
      through {!restore_filtered};
    - {e quarantine repair} ([Repair]) captures the pre-retirement
      state at escalation so a repaired instance can resume where the
      faulted one stopped;
    - {e determinism checks}: {!render} is byte-stable — every fold
      over a hash table is sorted before rendering, and nothing
      depending on boot history other than simulated addresses (which
      are deterministic under a fixed seed) is included — so
      [capture -> restore -> capture] round-trips byte-identically.

    Capture and restore are pure table operations: they charge no
    simulated cycles, bump no guard counters, and emit no trace
    events, so taking a snapshot never perturbs a benchmark. *)

open Kernel_sim

type pstate = {
  ps_kind : Principal.kind;
  ps_name : int;  (** primary name pointer; 0 for shared/global *)
  ps_desc : string;  (** [Principal.describe] — the stable sort key *)
  ps_quarantined : string option;
  ps_flow : string option;  (** flow-automaton position at capture *)
  ps_writes : (int * int) list;  (** sorted (base, size) *)
  ps_calls : int list;  (** sorted targets *)
  ps_refs : (string * int) list;  (** sorted (rtype, addr) *)
}

type gstate = {
  gs_name : string;
  gs_size : int;
  gs_bytes : string;  (** raw bytes at capture *)
  gs_funcptr : bool;
      (** the global's initialisers contain function pointers; its bytes
          are never restored across an upgrade (they would resurrect
          retired addresses) *)
}

type t = {
  sn_module : string;
  sn_dead : string option;
  sn_depth : int;  (** shadow-stack depth at capture *)
  sn_principals : pstate list;  (** sorted by (kind, name, desc) *)
  sn_globals : gstate list;  (** sorted by name *)
  sn_wset : (int * int) list;
      (** the writer set over module memory as {!Writer_set} stores it:
          ascending (chunk, line mask) pairs, one per chunk with a
          marked line; {!wset_lines} expands them *)
  sn_stats : Stats.t;  (** global guard counters at capture *)
}

let kind_rank = function
  | Principal.Shared -> 0
  | Principal.Global -> 1
  | Principal.Instance -> 2

let kind_name = function
  | Principal.Shared -> "shared"
  | Principal.Global -> "global"
  | Principal.Instance -> "instance"

(** Module-owned memory ranges: data sections plus the module stack. *)
let owned_ranges (mi : Runtime.module_info) =
  (mi.Runtime.mi_stack_base, mi.Runtime.mi_stack_len)
  :: List.map (fun (_, base, len) -> (base, len)) mi.Runtime.mi_sections

let capture_principal (mi : Runtime.module_info) (p : Principal.t) : pstate =
  let writes =
    Captable.fold_writes p.Principal.caps
      (fun acc ~base ~size -> (base, size) :: acc)
      []
    |> List.sort compare
  in
  let calls =
    Captable.fold_calls p.Principal.caps (fun acc ~target -> target :: acc) []
    |> List.sort compare
  in
  let refs =
    Captable.fold_refs p.Principal.caps
      (fun acc ~rtype ~addr -> (rtype, addr) :: acc)
      []
    |> List.sort compare
  in
  {
    ps_kind = p.Principal.kind;
    ps_name = p.Principal.primary_name;
    ps_desc = Principal.describe p;
    ps_quarantined = p.Principal.quarantined;
    ps_flow = Runtime.flow_position mi p;
    ps_writes = writes;
    ps_calls = calls;
    ps_refs = refs;
  }

let glob_has_funcptr (g : Mir.Ast.glob) =
  List.exists
    (function Mir.Ast.Ifunc _ | Mir.Ast.Iext _ -> true | Mir.Ast.Iword _ -> false)
    g.Mir.Ast.ginit

let capture_global (rt : Runtime.t) (mi : Runtime.module_info) (g : Mir.Ast.glob) :
    gstate option =
  match Hashtbl.find_opt mi.Runtime.mi_globals g.Mir.Ast.gname with
  | None -> None
  | Some base ->
      let bytes =
        Bytes.unsafe_to_string
          (Kmem.read_bytes rt.Runtime.kst.Kstate.mem ~addr:base ~len:g.Mir.Ast.gsize)
      in
      Some
        {
          gs_name = g.Mir.Ast.gname;
          gs_size = g.Mir.Ast.gsize;
          gs_bytes = bytes;
          gs_funcptr = glob_has_funcptr g;
        }

let capture (rt : Runtime.t) (mi : Runtime.module_info) : t =
  let principals =
    List.map (capture_principal mi) mi.Runtime.mi_principals
    |> List.sort (fun a b ->
           compare
             (kind_rank a.ps_kind, a.ps_name, a.ps_desc)
             (kind_rank b.ps_kind, b.ps_name, b.ps_desc))
  in
  let globals =
    List.filter_map (capture_global rt mi) mi.Runtime.mi_prog.Mir.Ast.globals
    |> List.sort (fun a b -> compare a.gs_name b.gs_name)
  in
  (* Ranges in base order, each enumerated ascending: a chunk below the
     last one kept lies below the last line kept, so an earlier range's
     span covers the lines the range marks there and they are already
     listed; a chunk equal to it merges.  The result is ascending with
     one entry per chunk, without a sort. *)
  let wset =
    List.fold_left
      (fun acc (base, size) ->
        Writer_set.fold_chunks rt.Runtime.wset ~base ~size
          (fun acc c m ->
            match acc with
            | (top, m') :: rest when c = top -> (c, m lor m') :: rest
            | (top, _) :: _ when c < top -> acc
            | _ -> (c, m) :: acc)
          acc)
      []
      (List.sort compare (owned_ranges mi))
    |> List.rev
  in
  {
    sn_module = mi.Runtime.mi_name;
    sn_dead = mi.Runtime.mi_dead;
    sn_depth = Shadow_stack.depth rt.Runtime.sstack;
    sn_principals = principals;
    sn_globals = globals;
    sn_wset = wset;
    sn_stats = Stats.snapshot rt.Runtime.stats;
  }

(** {1 Restore} *)

(** Resolve the principal a captured [pstate] maps onto in [mi],
    materialising instance principals on demand. *)
let principal_of_pstate rt (mi : Runtime.module_info) (ps : pstate) : Principal.t =
  match ps.ps_kind with
  | Principal.Shared -> mi.Runtime.mi_shared
  | Principal.Global -> mi.Runtime.mi_global
  | Principal.Instance -> (
      match
        List.find_opt
          (fun (p : Principal.t) ->
            p.Principal.kind = Principal.Instance
            && p.Principal.primary_name = ps.ps_name)
          mi.Runtime.mi_principals
      with
      | Some p -> p
      | None -> Runtime.find_or_create_instance rt mi ~name_ptr:ps.ps_name)

type filter = {
  keep_write : base:int -> size:int -> bool;
  keep_call : target:int -> bool;
  keep_ref : rtype:string -> addr:int -> bool;
  keep_instances : bool;
}

let keep_all =
  {
    keep_write = (fun ~base:_ ~size:_ -> true);
    keep_call = (fun ~target:_ -> true);
    keep_ref = (fun ~rtype:_ ~addr:_ -> true);
    keep_instances = true;
  }

(** Raw capability re-add of what [f] keeps, each decision passed
    through [kept]: straight table inserts plus the writer-set marking a
    real grant would perform.  No stats, no fault injection, no trace —
    restore must be exact and silent. *)
let readd_caps rt (p : Principal.t) (ps : pstate) (f : filter) kept =
  List.iter
    (fun (base, size) ->
      if kept (f.keep_write ~base ~size) then begin
        Captable.add_write p.Principal.caps ~base ~size;
        if not (Kmem.Layout.is_user base) then
          Writer_set.mark_range rt.Runtime.wset ~base ~size
      end)
    ps.ps_writes;
  List.iter
    (fun target -> if kept (f.keep_call ~target) then Captable.add_call p.Principal.caps ~target)
    ps.ps_calls;
  List.iter
    (fun (rtype, addr) ->
      if kept (f.keep_ref ~rtype ~addr) then Captable.add_ref p.Principal.caps ~rtype ~addr)
    ps.ps_refs

(* A restored flow position is mapped to the target module's enforced
   graph: a position that graph does not contain resets to start
   (mirroring the upgrade rule that stale grants drop). *)
let flow_of_pstate (mi : Runtime.module_info) (ps : pstate) : int =
  match (ps.ps_flow, mi.Runtime.mi_flow) with
  | Some k, Some g when Check.Apiflow.has_node g k -> Check.Apiflow.id g k
  | _ -> Check.Apiflow.start

let restore_global rt (mi : Runtime.module_info) (gs : gstate) =
  if not gs.gs_funcptr then
    match Mir.Ast.find_global mi.Runtime.mi_prog gs.gs_name with
    | Some g
      when g.Mir.Ast.gsize = gs.gs_size
           && (not (glob_has_funcptr g))
           && g.Mir.Ast.gsection <> Mir.Ast.Rodata -> (
        match Hashtbl.find_opt mi.Runtime.mi_globals gs.gs_name with
        | Some base -> Kmem.write_bytes rt.Runtime.kst.Kstate.mem ~addr:base gs.gs_bytes
        | None -> ())
    | _ -> ()

let restore (rt : Runtime.t) (mi : Runtime.module_info) (t : t) : unit =
  List.iter
    (fun ps ->
      let p = principal_of_pstate rt mi ps in
      Captable.clear p.Principal.caps;
      readd_caps rt p ps keep_all Fun.id;
      p.Principal.quarantined <- ps.ps_quarantined;
      p.Principal.flow_pos <- flow_of_pstate mi ps)
    t.sn_principals;
  List.iter (restore_global rt mi) t.sn_globals

type restore_report = { rr_restored : int; rr_dropped : int }

let restore_filtered (rt : Runtime.t) (mi : Runtime.module_info) (t : t)
    (f : filter) : restore_report =
  let restored = ref 0 and dropped = ref 0 in
  let count keep =
    if keep then incr restored else incr dropped;
    keep
  in
  List.iter
    (fun ps ->
      (* Quarantined principals stay revoked: the compatibility filter
         never resurrects what containment removed. *)
      if ps.ps_quarantined <> None || (ps.ps_kind = Principal.Instance && not f.keep_instances)
      then
        dropped :=
          !dropped + List.length ps.ps_writes + List.length ps.ps_calls + List.length ps.ps_refs
      else begin
        let p = principal_of_pstate rt mi ps in
        p.Principal.flow_pos <- flow_of_pstate mi ps;
        readd_caps rt p ps f count
      end)
    t.sn_principals;
  List.iter (restore_global rt mi) t.sn_globals;
  { rr_restored = !restored; rr_dropped = !dropped }

(** {1 Rendering} *)

let wset_lines t = Writer_set.lines_of_chunks t.sn_wset

let hex_of_bytes s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let render_lines (t : t) : string list =
  let line fmt = Printf.sprintf fmt in
  let header =
    [
      line "module %s" t.sn_module;
      line "dead %s" (Option.value ~default:"-" t.sn_dead);
      line "depth %d" t.sn_depth;
    ]
  in
  let principal_lines ps =
    line "principal %s kind=%s name=0x%x quarantined=%s flow=%s" ps.ps_desc
      (kind_name ps.ps_kind) ps.ps_name
      (Option.value ~default:"-" ps.ps_quarantined)
      (Option.value ~default:"-" ps.ps_flow)
    :: List.map (fun (b, s) -> line "  write 0x%x+%d" b s) ps.ps_writes
    @ List.map (fun c -> line "  call 0x%x" c) ps.ps_calls
    @ List.map (fun (r, a) -> line "  ref %s@0x%x" r a) ps.ps_refs
  in
  let global_lines g =
    [
      line "global %s size=%d funcptr=%b bytes=%s" g.gs_name g.gs_size g.gs_funcptr
        (hex_of_bytes g.gs_bytes);
    ]
  in
  let wset_line =
    line "wset %s" (String.concat " " (List.map (Printf.sprintf "0x%x") (wset_lines t)))
  in
  let stats_line = Fmt.str "stats %a" Stats.pp t.sn_stats in
  header
  @ List.concat_map principal_lines t.sn_principals
  @ List.concat_map global_lines t.sn_globals
  @ [ wset_line; stats_line ]

let render (t : t) : string = String.concat "\n" (render_lines t) ^ "\n"

(** [diff a b] — line-level differences between the renderings, empty
    iff [render a = render b].  Lines only in [a] are prefixed ["-"],
    lines only in [b] are prefixed ["+"]. *)
let diff (a : t) (b : t) : string list =
  let la = render_lines a and lb = render_lines b in
  let rec go la lb acc =
    match (la, lb) with
    | [], [] -> List.rev acc
    | x :: la', [] -> go la' [] (("- " ^ x) :: acc)
    | [], y :: lb' -> go [] lb' (("+ " ^ y) :: acc)
    | x :: la', y :: lb' ->
        if String.equal x y then go la' lb' acc
        else go la' lb' (("+ " ^ y) :: ("- " ^ x) :: acc)
  in
  go la lb []

let equal (a : t) (b : t) : bool = String.equal (render a) (render b)
