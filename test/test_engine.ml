(* Differential test of the MIR engine ([Mir.Interp]) against a direct
   AST interpreter that lives only here.

   The oracle walks the AST on every call: string-keyed locals, names
   resolved when a node runs, callees looked up by name, and three
   separate counters (steps, pending cycles, fuel) advanced on every
   node.  It is the per-node semantics the compiled engine must keep,
   with one deliberate rule the engine enforces too: an [Alloca] whose
   size lies outside [0, stack_len] is a stack-overflow oops.

   Both run the same programs against identical simulated machines
   whose callbacks log every call with the cycle clock they observe.
   The comparison covers the result or exception of each call, the step
   count, the Module cycles, that log (external calls, guards,
   entry/exit hooks, trace events) and the final memory.  Inputs are
   fuzz-generated clean modules and their attack mutants, plus small
   hand-written programs run under every fuel budget from 1 up to
   completion, so exhaustion lands on every node, mid-expression and
   mid-argument-list included. *)

open Kernel_sim
open Mir.Ast

exception Denied of string

(* ------------------------------------------------------------------ *)
(* The simulated machine both sides run on.                            *)

let stack_len = 4096
let text_base = 0x4_1000_0000
let import_base = 0x1_0000_0000

type world = {
  kst : Kstate.t;
  prog : prog;
  log : Buffer.t;
  gaddr : (string, int) Hashtbl.t;  (** global name -> address *)
  stack_base : int;
  canary : int;  (** guarded stores into it are denied *)
  kbuf : int;
  mutable heap : int;  (** bump pointer of the [kmalloc] stub *)
  mutable reenter : string -> int64 list -> int64;
      (** runs a module function on the same engine, for [reenter] *)
  mutable steps : unit -> int;  (** the running side's step count *)
}

let func_addr prog name =
  let rec go i = function
    | [] -> raise Not_found
    | (f : func) :: rest -> if f.fname = name then text_base + (16 * i) else go (i + 1) rest
  in
  go 0 prog.funcs

let ext_addr prog name =
  let rec go i = function
    | [] -> raise (Kstate.Oops (Printf.sprintf "module %s: %s not imported" prog.pname name))
    | x :: rest -> if x = name then import_base + (16 * i) else go (i + 1) rest
  in
  go 0 prog.imports

let import_at prog addr =
  List.find_opt (fun name -> ext_addr prog name = addr) prog.imports

let global_addr w name =
  match Hashtbl.find_opt w.gaddr name with
  | Some a -> a
  | None -> raise (Kstate.Oops (Printf.sprintf "module %s: unknown global %s" w.prog.pname name))

let clock w =
  let c = w.kst.Kstate.cycles in
  Printf.sprintf "@%d/%d #%d" (Kcycles.total c) (Kcycles.module_ c) (w.steps ())

let logf w fmt = Printf.ksprintf (fun s -> Buffer.add_string w.log (s ^ clock w ^ "\n")) fmt

let args_string args = String.concat "," (List.map Int64.to_string args)

let make_world (prog : prog) =
  let kst = Kstate.boot () in
  let gaddr = Hashtbl.create 8 in
  List.iter
    (fun (g : glob) ->
      Hashtbl.replace gaddr g.gname (Kstate.alloc_module_area kst (max 16 g.gsize)))
    prog.globals;
  let mem = kst.Kstate.mem in
  List.iter
    (fun (g : glob) ->
      let base = Hashtbl.find gaddr g.gname in
      List.iter
        (function
          | Iword (off, w, v) -> Kmem.write mem ~addr:(base + off) ~size:(bytes_of_width w) v
          | Ifunc (off, f) -> Kmem.write_ptr mem (base + off) (func_addr prog f)
          | Iext (off, e) -> Kmem.write_ptr mem (base + off) (ext_addr prog e))
        g.ginit)
    prog.globals;
  let stack_base = Kstate.alloc_module_area kst stack_len in
  let canary = Slab.kmalloc kst.Kstate.slab 64 in
  let kbuf = Slab.kmalloc kst.Kstate.slab 256 in
  {
    kst;
    prog;
    log = Buffer.create 1024;
    gaddr;
    stack_base;
    canary;
    kbuf;
    heap = 0x2_8000_0000;
    reenter = (fun _ _ -> 0L);
    steps = (fun () -> 0);
  }

(* The callbacks charge cycles of their own, so a flush in the wrong
   place shows up in the clock the next callback logs. *)
let call_ext w addr args =
  logf w "ext %#x(%s)" addr (args_string args);
  Kcycles.charge w.kst.Kstate.cycles Kcycles.Kernel 5;
  match (import_at w.prog addr, args) with
  | Some "kmalloc", _ ->
      let p = w.heap in
      w.heap <- w.heap + 256;
      Int64.of_int p
  | Some "reenter", [ x ] -> w.reenter "cb" [ x ]
  | Some _, _ -> 0L
  | None, _ -> Int64.of_int (Hashtbl.hash (addr, args))

let guard_write w ~addr ~size =
  logf w "gw %#x+%d" addr size;
  Kcycles.charge w.kst.Kstate.cycles Kcycles.Guard 2;
  if addr + size > w.canary && addr < w.canary + 64 then raise (Denied "canary")

let guard_indcall w ~target =
  logf w "gi %#x" target;
  Kcycles.charge w.kst.Kstate.cycles Kcycles.Guard 2;
  let known =
    List.exists (fun (f : func) -> func_addr w.prog f.fname = target) w.prog.funcs
    || import_at w.prog target <> None
  in
  if not known then raise (Denied "indcall")

let on_entry w name =
  logf w "in %s" name;
  Kcycles.charge w.kst.Kstate.cycles Kcycles.Guard 1

let on_exit w name =
  logf w "out %s" name;
  Kcycles.charge w.kst.Kstate.cycles Kcycles.Guard 1

(* ------------------------------------------------------------------ *)
(* The oracle.                                                         *)

module Oracle = struct
  type t = {
    w : world;
    hooks_enabled : bool;
    mutable stack_ptr : int;
    mutable fuel : int;
    mutable steps : int;
    mutable pending : int;
    mutable watchdog : bool;
    mutable cur_fn : string;
  }

  exception Return of int64

  let oops t fmt =
    Printf.ksprintf (fun m -> raise (Kstate.Oops m)) ("module %s: " ^^ fmt) t.w.prog.pname

  let flush t =
    if t.pending > 0 then begin
      Kcycles.charge t.w.kst.Kstate.cycles Kcycles.Module t.pending;
      t.pending <- 0
    end

  let tick t =
    t.steps <- t.steps + 1;
    t.pending <- t.pending + 1;
    t.fuel <- t.fuel - 1;
    if t.fuel <= 0 then begin
      flush t;
      if t.watchdog then raise (Mir.Interp.Fuel_exhausted t.w.prog.pname)
      else raise (Kstate.Oops (Printf.sprintf "soft lockup in module %s" t.w.prog.pname))
    end

  let rec eval t env (e : expr) : int64 =
    tick t;
    match e with
    | Const n -> n
    | Var x -> (
        match Hashtbl.find_opt env x with Some v -> v | None -> oops t "unbound local %s" x)
    | Glob x -> Int64.of_int (global_addr t.w x)
    | Funcaddr x -> Int64.of_int (func_addr t.w.prog x)
    | Extaddr x -> Int64.of_int (ext_addr t.w.prog x)
    | Load (w, a) ->
        let addr = Int64.to_int (eval t env a) in
        Kmem.read t.w.kst.Kstate.mem ~addr ~size:(bytes_of_width w)
    | Binop (op, w, a, b) ->
        let x = eval t env a in
        let y = eval t env b in
        Mir.Interp.eval_binop op w x y
    | Call (Direct name, args) ->
        let vs = eval_args t env args in
        invoke t name vs
    | Call (Ext name, args) ->
        let vs = eval_args t env args in
        let addr = ext_addr t.w.prog name in
        flush t;
        call_ext t.w addr vs
    | Call (Indirect te, args) -> (
        let target = Int64.to_int (eval t env te) in
        let vs = eval_args t env args in
        match List.find_opt (fun (f : func) -> func_addr t.w.prog f.fname = target) t.w.prog.funcs with
        | Some f -> invoke t f.fname vs
        | None ->
            flush t;
            call_ext t.w target vs)

  and eval_args t env = function
    | [] -> []
    | a :: rest ->
        let v = eval t env a in
        v :: eval_args t env rest

  and invoke t name vs =
    match find_func t.w.prog name with
    | None -> oops t "no function %s" name
    | Some f ->
        let nparams = List.length f.params and nargs = List.length vs in
        if nparams <> nargs then oops t "%s arity mismatch (%d args, want %d)" name nargs nparams;
        let env = Hashtbl.create 8 in
        List.iter2 (Hashtbl.replace env) f.params vs;
        let saved_sp = t.stack_ptr in
        if t.hooks_enabled then begin
          flush t;
          on_entry t.w name
        end;
        if !Trace.on then begin
          flush t;
          Trace.emit (Trace.Mod_call name)
        end;
        let prev = t.cur_fn in
        t.cur_fn <- name;
        let finish () =
          t.cur_fn <- prev;
          t.stack_ptr <- saved_sp;
          if t.hooks_enabled then begin
            flush t;
            on_exit t.w name
          end
        in
        (match List.iter (exec t env) f.body with
        | () ->
            finish ();
            0L
        | exception Return v ->
            finish ();
            v
        | exception e ->
            finish ();
            raise e)

  and exec t env (s : stmt) =
    tick t;
    match s with
    | Let (x, e) -> Hashtbl.replace env x (eval t env e)
    | Alloca (x, n) ->
        if n < 0 || n > stack_len then oops t "stack overflow";
        let aligned = (n + 15) land lnot 15 in
        if t.stack_ptr + aligned > t.w.stack_base + stack_len then oops t "stack overflow";
        Hashtbl.replace env x (Int64.of_int t.stack_ptr);
        t.stack_ptr <- t.stack_ptr + aligned
    | Store (w, a, v) ->
        let addr = Int64.to_int (eval t env a) in
        let value = eval t env v in
        Kmem.write t.w.kst.Kstate.mem ~addr ~size:(bytes_of_width w) value
    | If (c, a, b) -> List.iter (exec t env) (if eval t env c <> 0L then a else b)
    | While (c, b) ->
        while eval t env c <> 0L do
          List.iter (exec t env) b
        done
    | Expr e -> ignore (eval t env e)
    | Return e -> raise (Return (eval t env e))
    | Guard (Gwrite (w, a)) ->
        let addr = Int64.to_int (eval t env a) in
        flush t;
        guard_write t.w ~addr ~size:(bytes_of_width w)
    | Guard (Gindcall a) ->
        let target = Int64.to_int (eval t env a) in
        flush t;
        guard_indcall t.w ~target

  let run t name args =
    match invoke t name args with
    | v ->
        flush t;
        v
    | exception e ->
        flush t;
        raise e
end

(* ------------------------------------------------------------------ *)
(* The two sides behind one interface.                                 *)

type side = {
  world : world;
  run : string -> int64 list -> int64;
  refuel : int -> unit;
  set_watchdog : bool -> unit;
  idle : unit -> bool;  (** stack pointer and current function restored *)
}

let engine_side ~hooks prog =
  let w = make_world prog in
  let ctx =
    Mir.Interp.create ~kst:w.kst ~prog ~global_addr:(global_addr w) ~func_addr:(func_addr prog)
      ~ext_addr:(ext_addr prog) ~call_ext:(call_ext w) ~guard_write:(guard_write w)
      ~guard_indcall:(guard_indcall w) ~on_entry:(on_entry w) ~on_exit:(on_exit w)
      ~hooks_enabled:hooks ~stack_base:w.stack_base ~stack_len
  in
  w.reenter <- Mir.Interp.run ctx;
  w.steps <- (fun () -> Mir.Interp.steps ctx);
  {
    world = w;
    run = Mir.Interp.run ctx;
    refuel = (fun fuel -> Mir.Interp.refuel ~fuel ctx);
    set_watchdog = (fun b -> ctx.Mir.Interp.watchdog <- b);
    idle = (fun () -> ctx.Mir.Interp.stack_ptr = w.stack_base && ctx.Mir.Interp.cur_fn = "");
  }

let oracle_side ~hooks prog =
  let w = make_world prog in
  let t =
    {
      Oracle.w;
      hooks_enabled = hooks;
      stack_ptr = w.stack_base;
      fuel = Mir.Interp.default_fuel;
      steps = 0;
      pending = 0;
      watchdog = false;
      cur_fn = "";
    }
  in
  w.reenter <- Oracle.run t;
  w.steps <- (fun () -> t.Oracle.steps);
  {
    world = w;
    run = Oracle.run t;
    refuel = (fun fuel -> t.Oracle.fuel <- fuel);
    set_watchdog = (fun b -> t.Oracle.watchdog <- b);
    idle = (fun () -> t.Oracle.stack_ptr = w.stack_base && t.Oracle.cur_fn = "");
  }

type arg = Canary | Kbuf | Int of int64

type drive = (string * arg list) list

(* Everything one side observably did over a drive: per call, the
   outcome, step count and Module cycles; then the callback and trace
   log, whether the engine came back idle, and every page of memory. *)
let observe ~trace ?fuel ?(watchdog = false) side (drive : drive) =
  side.set_watchdog watchdog;
  Option.iter side.refuel fuel;
  let w = side.world in
  let buf = Trace.make ~capacity:4096 () in
  if trace then
    Trace.attach buf
      ~clock:(fun () ->
        let c = w.kst.Kstate.cycles in
        (Kcycles.kernel c, Kcycles.module_ c, Kcycles.guard c))
      ~principal:(fun () -> "m");
  let calls =
    Fun.protect ~finally:(fun () -> if trace then Trace.detach ())
    @@ fun () ->
    List.map
      (fun (fname, args) ->
        let args =
          List.map
            (function
              | Canary -> Int64.of_int w.canary | Kbuf -> Int64.of_int w.kbuf | Int n -> n)
            args
        in
        let outcome =
          match side.run fname args with
          | v -> Printf.sprintf "= %Ld" v
          | exception e -> "raised " ^ Printexc.to_string e
        in
        Printf.sprintf "%s(%s) %s steps=%d module=%d" fname (args_string args) outcome
          (w.steps ()) (Kcycles.module_ w.kst.Kstate.cycles))
      drive
  in
  let events =
    Array.to_list (Trace.events buf) |> List.map (Format.asprintf "%a" Trace.pp_event)
  in
  let pages =
    Hashtbl.fold (fun idx b acc -> (idx, Bytes.to_string b) :: acc) w.kst.Kstate.mem.Kmem.pages []
    |> List.sort compare
  in
  (calls, Buffer.contents w.log, events, side.idle (), pages)

let check_same ~what ?(trace = false) ?fuel ?watchdog ?(hooks = true) prog drive =
  let e = observe ~trace ?fuel ?watchdog (engine_side ~hooks prog) drive in
  let o = observe ~trace ?fuel ?watchdog (oracle_side ~hooks prog) drive in
  let calls_e, log_e, ev_e, idle_e, pages_e = e and calls_o, log_o, ev_o, idle_o, pages_o = o in
  let fuel_s = match fuel with Some f -> Printf.sprintf " fuel=%d" f | None -> "" in
  let label = what ^ fuel_s in
  Alcotest.(check (list string)) (label ^ ": calls") calls_o calls_e;
  Alcotest.(check string) (label ^ ": callback log") log_o log_e;
  Alcotest.(check (list string)) (label ^ ": trace") ev_o ev_e;
  Alcotest.(check (pair bool bool)) (label ^ ": idle after") (true, true) (idle_o, idle_e);
  if pages_o <> pages_e then Alcotest.failf "%s: final memory differs" label;
  List.length calls_e

(* ------------------------------------------------------------------ *)
(* Hand-written programs: every node kind and every failure path.      *)

open Mir.Builder

let small =
  prog "small"
    ~imports:[ "kmalloc"; "kfree"; "reenter" ]
    ~globals:[ global "g" 64 ~init:[ init_func 0 "cb"; init_ext 8 "kfree" ] ]
    ~funcs:
      [
        func "cb" [ "x" ] [ ret (v "x" *: ii 3) ];
        func "add3" [ "a"; "b"; "c" ] [ ret (v "a" +: v "b" +: v "c") ];
        func "loop" [ "n" ]
          [
            let_ "i" (ii 0);
            let_ "s" (ii 0);
            while_ (v "i" <: v "n")
              [
                let_ "s" (add32 (v "s") (mul32 (v "i") (ii 0x9E3779B1)));
                if_ (v "i" %: ii 3 ==: ii 0) [ let_ "s" (v "s" ^: ii 0x55) ] [];
                let_ "i" (v "i" +: ii 1);
              ];
            ret (v "s");
          ];
        func "mem" [ "p" ]
          [
            alloca "buf" 48;
            store64 (v "buf") (v "p");
            store32 (v "buf" +: ii 8) (ii 0x1234_5678);
            store8 (v "buf" +: ii 12) (ii 0x1ff);
            store (W16) (v "buf" +: ii 14) (ii 0xabcdef);
            store64 (glob "g" +: ii 16) (load32 (v "buf" +: ii 8));
            ret (load64 (v "buf") +: load8 (v "buf" +: ii 12) +: load W16 (v "buf" +: ii 14));
          ];
        func "calls" [ "x" ]
          [
            (* a call nested in an argument list, between two others *)
            let_ "y" (call "add3" [ v "x"; call "cb" [ v "x" +: ii 1 ]; call "loop" [ ii 4 ] ]);
            let_ "p" (call_ext "kmalloc" [ ii 32; v "y" ]);
            store64 (v "p") (v "y");
            expr (call_ext "kfree" [ v "p" ]);
            let_ "z" (call_ind (load64 (glob "g")) [ v "y" ]);
            expr (call_ind (load64 (glob "g" +: ii 8)) [ v "z" ]);
            expr (call_ind (fn "cb") [ ext "kfree" ]);
            let_ "r" (call_ext "reenter" [ v "z" ]);
            ret (v "r" +: call "mem" [ v "z" ]);
          ];
        func "guarded" [ "p"; "t" ]
          [
            Guard (Gwrite (W64, v "p"));
            store64 (v "p") (ii 7);
            Guard (Gindcall (v "t"));
            ret (call_ind (v "t") [ ii 5 ]);
          ];
        func "fact" [ "n" ] [ if_ (v "n" <=: ii 1) [ ret (ii 1) ] [ ret (v "n" *: call "fact" [ v "n" -: ii 1 ]) ] ];
        func "deep" [ "n" ] [ alloca "b" 1024; ret (call "deep" [ v "n" ]) ];
        func "unbound" [] [ if_ (ii 0) [ let_ "u" (ii 1) ] []; ret (v "u" +: ii 1) ];
        func "arity" [] [ ret (call "cb" [ ii 1; ii 2 ]) ];
        func "nofn" [ "x" ] [ ret (v "x" +: call "missing" [ v "x"; ii 2 ]) ];
        func "noglob" [] [ ret (ii 1 +: glob "nowhere") ];
        func "noext" [] [ ret (call_ext "unimported" [ ii 1; ii 2 ]) ];
        func "divzero" [ "d" ] [ ret (ii 100 /: v "d") ];
        func "negalloca" [] [ let_ "x" (ii 1); alloca "b" (-4096); ret (v "x") ];
        func "bigalloca" [] [ alloca "b" (max_int - 7); ret0 ];
        func "spin" [] [ while_ (ii 1) []; ret0 ];
        func "fall" [ "x" ] [ store64 (glob "g" +: ii 24) (v "x") ];
      ]

let small_drive : drive =
  [
    ("loop", [ Int 10L ]);
    ("mem", [ Int 0x1122334455667788L ]);
    ("calls", [ Int 3L ]);
    ("guarded", [ Kbuf; Int (Int64.of_int (func_addr small "cb")) ]);
    ("guarded", [ Canary; Int (Int64.of_int (func_addr small "cb")) ]);
    ("guarded", [ Kbuf; Int 0x1234L ]);
    ("fact", [ Int 6L ]);
    ("unbound", []);
    ("arity", []);
    ("nofn", [ Int 1L ]);
    ("noglob", []);
    ("noext", []);
    ("divzero", [ Int 0L ]);
    ("divzero", [ Int 7L ]);
    ("negalloca", []);
    ("bigalloca", []);
    ("fall", [ Int 9L ]);
    ("missing", []);
    ("cb", []);
    ("deep", [ Int 1L ]);
  ]

let test_small () =
  ignore (check_same ~what:"small" small small_drive);
  ignore (check_same ~what:"small, no hooks" ~hooks:false small small_drive);
  ignore (check_same ~what:"small, traced" ~trace:true small small_drive);
  ignore (check_same ~what:"small, traced, no hooks" ~trace:true ~hooks:false small small_drive)

(* Steps a full run of [drive] takes: the sweep's upper bound. *)
let total_steps prog drive =
  let side = engine_side ~hooks:true prog in
  ignore (observe ~trace:false side drive);
  side.world.steps ()

let test_fuel_sweep () =
  let drive : drive =
    [ ("calls", [ Int 3L ]); ("fact", [ Int 4L ]); ("mem", [ Int 5L ]); ("loop", [ Int 3L ]) ]
  in
  let n = total_steps small drive in
  Alcotest.(check bool) "sweep covers a real run" true (n > 100);
  for fuel = 1 to n + 1 do
    ignore (check_same ~what:"sweep" ~fuel ~watchdog:(fuel mod 2 = 0) small drive)
  done;
  for fuel = 1 to 40 do
    ignore (check_same ~what:"sweep, traced" ~trace:true ~fuel small drive)
  done

let test_watchdog_spin () =
  let drive : drive = [ ("spin", []); ("loop", [ Int 2L ]); ("fact", [ Int 3L ]) ] in
  ignore (check_same ~what:"spin" ~fuel:5_000 ~watchdog:true small drive);
  ignore (check_same ~what:"spin" ~fuel:5_001 small drive)

(* ------------------------------------------------------------------ *)
(* Fuzz-generated modules, clean and mutated.                          *)

let instrumented prog = fst (Lxfi.Rewriter.instrument Lxfi.Config.lxfi prog)

let clean_drive (c : Fuzz.Gen.case) : drive =
  ("module_init", [])
  :: List.concat_map
       (fun n ->
         [
           ("entry", [ Int n ]);
           ("touch", [ Kbuf; Int n ]);
           ("peer", [ Int 0x7001L; Int n ]);
           ("peer", [ Int 0x7002L; Int n ]);
         ])
       c.Fuzz.Gen.c_inputs

let mutant_drive input (m : Fuzz.Mutate.mutant) : drive =
  let arg = function
    | Fuzz.Mutate.Acanary -> Canary
    | Fuzz.Mutate.Akbuf -> Kbuf
    | Fuzz.Mutate.Ainput -> Int input
  in
  let call (f, args) = (f, List.map arg args) in
  ("module_init", [])
  ::
  (match m.Fuzz.Mutate.m_drive with
  | Fuzz.Mutate.Dinvoke (f, args)
  | Fuzz.Mutate.Dcorrupt_kcall (f, args)
  | Fuzz.Mutate.Dflow (f, args) ->
      [ call (f, args) ]
  | Fuzz.Mutate.Dupgrade (a, b) -> [ call a; call b ])

let test_generated () =
  let rng = Random.State.make [| 17 |] in
  let canary_addr = (make_world small).canary in
  let calls = ref 0 in
  for i = 1 to 40 do
    let case = Fuzz.Gen.of_random_state () rng in
    let p = case.Fuzz.Gen.c_prog in
    let what = Printf.sprintf "case %d" i in
    calls := !calls + check_same ~what p (clean_drive case);
    calls := !calls + check_same ~what:(what ^ " instrumented") (instrumented p) (clean_drive case);
    let input = match case.Fuzz.Gen.c_inputs with n :: _ -> n | [] -> 0L in
    List.iter
      (fun cls ->
        let m = Fuzz.Mutate.apply ~canary_addr cls p in
        let what = Printf.sprintf "case %d %s" i (Fuzz.Mutate.name cls) in
        calls :=
          !calls
          + check_same ~what ~fuel:20_000 ~watchdog:true (instrumented m.Fuzz.Mutate.m_prog)
              (mutant_drive input m))
      Fuzz.Mutate.all
  done;
  Alcotest.(check bool) "calls compared" true (!calls > 1000)

let () =
  Alcotest.run "engine"
    [
      ( "oracle",
        [
          Alcotest.test_case "hand-written programs" `Quick test_small;
          Alcotest.test_case "every fuel budget" `Quick test_fuel_sweep;
          Alcotest.test_case "watchdog spin" `Quick test_watchdog_spin;
          Alcotest.test_case "fuzz cases and mutants" `Quick test_generated;
        ] );
    ]
