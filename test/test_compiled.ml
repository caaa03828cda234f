(* Compiled crossings ([Runtime.crossing_of]) against the AST walker
   they replaced ([Annot_ref]), the per-process state they brought
   (declarations compiled once, iterator and module-name numbers), and
   [Runtime.module_of] against a by-name lookup. *)

open Kernel_sim
open Lxfi
module K = Kmodules

(* ------------------------------------------------------------------ *)
(* Process history: what a process compiled and numbered before must   *)
(* not change what a campaign reports.  First in this executable, so   *)
(* the first campaign runs before anything else has been compiled.     *)
(* ------------------------------------------------------------------ *)

let test_process_history () =
  let campaign () = Fuzz.Campaign.run ~seed:1 ~runs:30 () in
  let alone = campaign () in
  ignore (Workloads.Lifecycle.run ~seed:1 ());
  ignore (Workloads.Faultsim.run ~seed:1 ());
  Alcotest.(check bool) "fuzz report after lifecycle and faultsim campaigns" true
    (alone = campaign ())

(* ------------------------------------------------------------------ *)
(* Compiled crossings = the AST walker.                                 *)
(* ------------------------------------------------------------------ *)

(* A fresh system with one loaded module and an instance principal; the
   pool holds values arguments are drawn from (small integers, the
   instance's name, live objects and module memory), the same in every
   fresh world because boots are deterministic. *)
type world = { rt : Runtime.t; mi : Runtime.module_info; pool : int64 array }

let world_prog =
  let open Mir.Builder in
  prog "diffmod" ~imports:[] ~globals:[ global "scratch" 64 ]
    ~funcs:[ func "entry" [ "x" ] [ ret (v "x") ] ]

let instance_name = 0x7000

let world config =
  let sys = K.Ksys.boot config in
  let rt = sys.K.Ksys.rt and kst = sys.K.Ksys.kst in
  (* a two-argument iterator yielding two kinds *)
  Runtime.register_iterator rt ~name:"range_caps" ~shapes:[ Annot.Ast.Write; Annot.Ast.Call ]
    (function
      | [ a; n ] ->
          let a = Int64.to_int a and n = Int64.to_int n in
          if n <= 0 then []
          else [ Capability.Cwrite { base = a; size = n }; Capability.Ccall { target = a } ]
      | _ -> invalid_arg "range_caps: expected 2 arguments");
  let mi, _ = Loader.load rt world_prog in
  ignore (Runtime.find_or_create_instance rt mi ~name_ptr:instance_name);
  let obj = Slab.kmalloc kst.Kstate.slab 64 and skb = Skbuff.alloc kst 128 in
  let scratch = Hashtbl.find mi.Runtime.mi_globals "scratch" in
  let pool = Array.map Int64.of_int [| 0; 1; 16; 64; -1; instance_name; obj; skb; scratch |] in
  { rt; mi; pool }

let principals w =
  List.sort
    (fun (a : Principal.t) b -> compare (Principal.describe a) (Principal.describe b))
    w.mi.Runtime.mi_principals

(* What one run leaves: its outcome (the principal it ran as, or the
   exception's text), the counter and Guard-cycle deltas, and every
   principal's capability table. *)
let observe w f =
  let st = w.rt.Runtime.stats and cycles = w.rt.Runtime.kst.Kstate.cycles in
  let a0 = st.Stats.annotation_actions and g0 = st.Stats.caps_granted in
  let r0 = st.Stats.caps_revoked and c0 = Kcycles.guard cycles in
  let outcome =
    match f () with
    | p -> "ran as " ^ Principal.describe p
    | exception Violation.Violation v -> Fmt.str "%a" Violation.pp v
    | exception e -> Printexc.to_string e
  in
  let table (p : Principal.t) =
    let caps = p.Principal.caps in
    let sorted fold entry = List.sort compare (fold caps entry []) in
    ( Principal.describe p,
      sorted Captable.fold_writes (fun acc ~base ~size -> (base, size) :: acc),
      sorted Captable.fold_calls (fun acc ~target -> target :: acc),
      sorted Captable.fold_refs (fun acc ~rtype ~addr -> (rtype, addr) :: acc) )
  in
  ( outcome,
    [
      st.Stats.annotation_actions - a0;
      st.Stats.caps_granted - g0;
      st.Stats.caps_revoked - r0;
      Kcycles.guard cycles - c0;
    ],
    List.map table (principals w) )

type case = {
  decl : Annot.Registry.slot;
  dir : Annot.Ast.direction;
  args : int list;  (** pool indexes; larger values stand for themselves *)
  ret : int;
  grants : (int * int * int) list;  (** (principal, pool index, kind) granted first *)
  caller : int;  (** the module-side principal of an M2K crossing *)
}

let value w i = if i < Array.length w.pool then w.pool.(i) else Int64.of_int (i * 4099)

(* One case in a fresh world, with the crossing's annotation work done
   by [select] (K2M) and [phase]. *)
let run config c ~select ~phase =
  let w = world config in
  let ps = Array.of_list (principals w) in
  List.iter
    (fun (p, v, kind) ->
      let a = Int64.to_int (value w v) in
      Runtime.grant w.rt
        ps.(p mod Array.length ps)
        (match kind mod 3 with
        | 0 -> Capability.Cwrite { base = a; size = 64 }
        | 1 -> Capability.Ccall { target = a }
        | _ -> Capability.Cref { rtype = "pci_dev"; addr = a }))
    c.grants;
  let n = List.length c.decl.Annot.Registry.sl_params in
  let args = List.filteri (fun i _ -> i < n) (List.map (value w) c.args) in
  let ret = value w c.ret in
  observe w (fun () ->
      let mp =
        match c.dir with
        | Annot.Ast.K2M -> select w args
        | Annot.Ast.M2K -> ps.(c.caller mod Array.length ps)
      in
      phase w mp `Pre args ~ret;
      phase w mp `Post args ~ret;
      mp)

(* Marking gigabytes of kernel memory in the writer set takes seconds,
   compiled or not: a case whose caplists name a WRITE that large (a
   size parameter bound to an address, say) is left out. *)
let bounded config c =
  let w = world config in
  let env =
    {
      Annot_ref.params = c.decl.Annot.Registry.sl_params;
      args = List.map (value w) c.args;
      ret = Some (value w c.ret);
    }
  in
  let small = function Capability.Cwrite { size; _ } -> size <= 1 lsl 20 | _ -> true in
  List.for_all
    (function
      | Annot.Ast.Pre a | Annot.Ast.Post a -> (
          let _, cl, _ = Annot.Ast.leaf a in
          match Annot_ref.caps_of_caplist w.rt env cl with
          | caps -> List.for_all small caps
          | exception _ -> true)
      | Annot.Ast.Principal _ -> true)
    c.decl.sl_annot

let compiled config c =
  let cr = Runtime.crossing_of ~dir:c.dir c.decl in
  run config c
    ~select:(fun w args -> Runtime.select_principal w.rt w.mi cr args)
    ~phase:(fun w mp phase args ~ret -> Runtime.run_phase w.rt w.mi mp cr phase args ~ret)

let reference config c =
  run config c
    ~select:(fun w args -> Annot_ref.select_principal w.rt w.mi c.decl args)
    ~phase:(fun w mp phase args ~ret ->
      Annot_ref.run_phase w.rt w.mi mp ~dir:c.dir c.decl phase args ~ret)

(* Annotation shapes over the parameters p, len, buf and skb, with the
   names that do not resolve: the parameter [bogus], [return] in a pre
   or principal clause, struct [no_such], iterator [no_such_caps]. *)
let params = [ "p"; "len"; "buf"; "skb" ]

let gen_cexpr =
  QCheck.Gen.(
    sized_size (int_bound 6)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 ( 3,
                   map
                     (fun i -> Annot.Ast.Cint (Int64.of_int i))
                     (oneofl [ 0; 1; 8; 16; 64; -1; 0x7000 ]) );
                 (6, map (fun p -> Annot.Ast.Cparam p) (oneofl ("bogus" :: params)));
                 (1, return Annot.Ast.Creturn);
                 ( 1,
                   map
                     (fun s -> Annot.Ast.Csizeof s)
                     (oneofl [ "sk_buff"; "socket"; "pci_dev"; "no_such" ]) );
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (3, leaf);
                 ( 2,
                   map3
                     (fun op a b -> Annot.Ast.Cbin (op, a, b))
                     (oneofl
                        Annot.Ast.[ Oeq; One; Olt; Ole; Ogt; Oge; Oadd; Osub; Omul; Oand; Oor ])
                     (self (n / 2)) (self (n / 2)) );
                 (1, map (fun e -> Annot.Ast.Cneg e) (self (n / 2)));
               ]))

let gen_caplist =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun ct p s -> Annot.Ast.Inline (ct, p, s))
            (oneofl Annot.Ast.[ Write; Call; Ref "pci_dev"; Ref "io_port" ])
            gen_cexpr (option gen_cexpr) );
        ( 2,
          map2
            (fun name e -> Annot.Ast.Iter (name, [ e ]))
            (oneofl [ "skb_caps"; "kmalloc_caps"; "no_such_caps" ])
            gen_cexpr );
        (1, map2 (fun a b -> Annot.Ast.Iter ("range_caps", [ a; b ])) gen_cexpr gen_cexpr);
      ])

let gen_action =
  QCheck.Gen.(
    let leaf =
      map2
        (fun verb cl ->
          match verb with
          | 0 -> Annot.Ast.Copy cl
          | 1 -> Annot.Ast.Transfer cl
          | _ -> Annot.Ast.Check cl)
        (int_bound 2) gen_caplist
    in
    map2
      (fun guards a -> List.fold_right (fun c a -> Annot.Ast.Cif (c, a)) guards a)
      (list_size (int_bound 2) gen_cexpr)
      leaf)

let gen_annot =
  QCheck.Gen.(
    list_size (int_bound 4)
      (frequency
         [
           (3, map (fun a -> Annot.Ast.Pre a) gen_action);
           (3, map (fun a -> Annot.Ast.Post a) gen_action);
           ( 1,
             oneof
               [
                 return (Annot.Ast.Principal Annot.Ast.Pglobal);
                 return (Annot.Ast.Principal Annot.Ast.Pshared);
                 map (fun e -> Annot.Ast.Principal (Annot.Ast.Pexpr e)) gen_cexpr;
               ] );
         ]))

(* Every declared annotation under a seeded edit, when the edit still
   parses; forged past validation, so unresolved names reach the
   compiler. *)
let declared =
  lazy
    (Array.of_list (K.Ksys.slot_types @ List.map fst K.Ksys.kexports))

let gen_decl =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun a -> Annot.Registry.forge ~name:"gen.decl" ~params a) gen_annot);
        ( 1,
          map2
            (fun i e ->
              let decls = Lazy.force declared in
              let d = decls.(i mod Array.length decls) in
              let src = Hostile.apply_edit e (Annot.Ast.to_string d.sl_annot) in
              match Annot.Parser.parse src with
              | Ok a -> Annot.Registry.forge ~name:d.sl_name ~params:d.sl_params a
              | Error _ -> d)
            nat Hostile.gen_edit );
      ])

let gen_case =
  QCheck.Gen.(
    let index = frequency [ (4, int_bound 8); (1, int_bound 40) ] in
    map3
      (fun (decl, dir) (args, ret) (grants, caller) -> { decl; dir; args; ret; grants; caller })
      (pair gen_decl (oneofl [ Annot.Ast.K2M; Annot.Ast.M2K ]))
      (pair (list_repeat 6 index) index)
      (pair (list_size (int_bound 6) (triple (int_bound 3) index (int_bound 2))) (int_bound 3)))

let print_case c =
  Printf.sprintf "%s %s(%s) %S args=[%s] ret=%d grants=[%s] caller=%d"
    (match c.dir with Annot.Ast.K2M -> "K2M" | Annot.Ast.M2K -> "M2K")
    c.decl.sl_name
    (String.concat ", " c.decl.sl_params)
    (Annot.Ast.to_string c.decl.sl_annot)
    (String.concat "; " (List.map string_of_int c.args))
    c.ret
    (String.concat "; "
       (List.map (fun (p, v, k) -> Printf.sprintf "(%d,%d,%d)" p v k) c.grants))
    c.caller

let prop_compiled_equals_reference (name, config) =
  QCheck.Test.make ~count:400
    ~name:("compiled crossing = AST walker [" ^ name ^ "]")
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      QCheck.assume (bounded config c);
      let a = compiled config c and b = reference config c in
      if a = b then true
      else
        let outcome (o, d, _) =
          Printf.sprintf "%s; deltas %s" o (String.concat "," (List.map string_of_int d))
        in
        QCheck.Test.fail_reportf "compiled: %s@.reference: %s" (outcome a) (outcome b))

(* ------------------------------------------------------------------ *)
(* module_of = the module loaded under the owner's name.                *)
(* ------------------------------------------------------------------ *)

type op =
  | Load of int
  | Upgrade of int
  | Unload of int
  | Escalate of int
  | Quarantine of int * int
  | Instance of int * int

let mo_prog k version =
  let name = Printf.sprintf "mo%d" k in
  let open Mir.Builder in
  prog name ~imports:[] ~globals:[ global "g" 16 ]
    ~funcs:
      [
        func "entry" [ "x" ] ~export:"mo.entry" [ ret (ii version) ];
        (* stores where nothing grants WRITE: a contained violation *)
        func "bad" [ "x" ] ~export:"mo.entry" [ store64 (v "x") (ii 1); ret0 ];
      ]

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 25)
      (let m = int_bound 2 in
       frequency
         [
           (4, map (fun i -> Load i) m);
           (2, map (fun i -> Upgrade i) m);
           (2, map (fun i -> Unload i) m);
           (1, map (fun i -> Escalate i) m);
           (2, map2 (fun i k -> Quarantine (i, k)) m (int_bound 5));
           (2, map2 (fun i n -> Instance (i, n)) m (int_bound 3));
         ]))

let print_op = function
  | Load i -> Printf.sprintf "load %d" i
  | Upgrade i -> Printf.sprintf "upgrade %d" i
  | Unload i -> Printf.sprintf "unload %d" i
  | Escalate i -> Printf.sprintf "escalate %d" i
  | Quarantine (i, k) -> Printf.sprintf "quarantine %d/%d" i k
  | Instance (i, n) -> Printf.sprintf "instance %d/%d" i n

let prop_module_of_by_name =
  QCheck.Test.make ~count:150 ~name:"module_of = by-name lookup"
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map print_op ops)) gen_ops)
    (fun ops ->
      let sys = K.Ksys.boot Config.lxfi_quarantine in
      let rt = sys.K.Ksys.rt in
      ignore
        (Annot.Registry.define_exn rt.Runtime.registry ~name:"mo.entry" ~params:[ "x" ]
           ~annot_src:"principal(x)");
      let version = ref 0 in
      let seen = ref [] in
      let loaded i = Runtime.module_named rt (Printf.sprintf "mo%d" i) in
      let note mi = seen := mi.Runtime.mi_principals @ !seen in
      let step op =
        match op with
        | Load i -> (
            match loaded i with
            | Some _ -> ()
            | None ->
                incr version;
                note (fst (Loader.load rt (mo_prog i !version))))
        | Upgrade i ->
            Option.iter
              (fun mi ->
                incr version;
                let prog = mo_prog i !version in
                let im = Loader.link (Loader.check_env rt) rt.Runtime.config prog in
                note (fst (Loader.upgrade rt mi im)))
              (loaded i)
        | Unload i -> Option.iter (Loader.unload rt) (loaded i)
        | Escalate i ->
            Option.iter
              (fun mi ->
                for _ = 1 to 3 do
                  ignore (Quarantine.dispatch rt mi "bad" [ 0x9000L ])
                done;
                note mi)
              (loaded i)
        | Quarantine (i, k) ->
            Option.iter
              (fun mi ->
                let ps = mi.Runtime.mi_principals in
                let p = List.nth ps (k mod List.length ps) in
                Quarantine.quarantine_principal rt p ~reason:"test")
              (loaded i)
        | Instance (i, n) ->
            Option.iter
              (fun mi ->
                ignore (Runtime.find_or_create_instance rt mi ~name_ptr:(0x1000 + n));
                note mi)
              (loaded i)
      in
      let agrees () =
        List.for_all
          (fun (p : Principal.t) ->
            match (Runtime.module_of rt p, Runtime.module_named rt p.Principal.owner) with
            | Some a, Some b -> a == b
            | None, None -> true
            | _ -> false)
          !seen
      in
      List.for_all
        (fun op ->
          step op;
          agrees ())
        ops)

let () =
  Klog.quiet ();
  Alcotest.run "compiled"
    [
      ( "process",
        [
          Alcotest.test_case "campaign report independent of history" `Slow
            test_process_history;
        ] );
      ( "crossings",
        List.map QCheck_alcotest.to_alcotest
          (List.map prop_compiled_equals_reference
             [ ("lxfi", Config.lxfi); ("xfi", Config.xfi) ]) );
      ("principals", [ QCheck_alcotest.to_alcotest prop_module_of_by_name ]);
    ]
