(** Labelled attack mutations over clean generated modules.  Each class
    is built so that exactly one guard family stands between the attack
    and kernel-state corruption; {!Harness.run_mutant} then checks the
    guard fires with the class's expected violation kind before the
    targeted canary changes. *)

open Mir.Builder

type mclass =
  | Store_oob
  | Forged_indcall
  | Use_after_transfer
  | Unowned_arg
  | Over_grant
  | Principal_confusion
  | Slot_corruption
  | Slot_type_confusion
  | Runaway_entry
  | Uncovered_param_store
  | Stale_cap_after_upgrade
  | Flow_reorder

let all =
  [
    Store_oob;
    Forged_indcall;
    Use_after_transfer;
    Unowned_arg;
    Over_grant;
    Principal_confusion;
    Slot_corruption;
    Slot_type_confusion;
    Runaway_entry;
    Uncovered_param_store;
    Stale_cap_after_upgrade;
    Flow_reorder;
  ]

let name = function
  | Store_oob -> "store-oob"
  | Forged_indcall -> "forged-indcall"
  | Use_after_transfer -> "use-after-transfer"
  | Unowned_arg -> "unowned-arg"
  | Over_grant -> "over-grant"
  | Principal_confusion -> "principal-confusion"
  | Slot_corruption -> "slot-corruption"
  | Slot_type_confusion -> "slot-type-confusion"
  | Runaway_entry -> "runaway-entry"
  | Uncovered_param_store -> "uncovered-param-store"
  | Stale_cap_after_upgrade -> "stale-capability-after-upgrade"
  | Flow_reorder -> "flow-reorder"

let expected_kind = function
  | Store_oob | Use_after_transfer | Over_grant | Uncovered_param_store
  | Stale_cap_after_upgrade ->
      Lxfi.Violation.Write_denied
  | Forged_indcall | Slot_corruption -> Lxfi.Violation.Call_denied
  | Unowned_arg -> Lxfi.Violation.Ref_denied
  | Principal_confusion -> Lxfi.Violation.Principal_denied
  | Slot_type_confusion -> Lxfi.Violation.Annot_mismatch
  | Runaway_entry -> Lxfi.Violation.Watchdog_expired
  | Flow_reorder -> Lxfi.Violation.Flow_violation

let guard_family = function
  | Store_oob -> "store guard (guard_write)"
  | Forged_indcall -> "module indirect-call guard (guard_indcall)"
  | Use_after_transfer -> "transfer revocation + store guard"
  | Unowned_arg -> "wrapper pre check(ref) action"
  | Over_grant -> "annotation grant bounds + store guard"
  | Principal_confusion -> "privileged runtime call (lxfi_princ_alias)"
  | Slot_corruption -> "kernel indirect-call writer-set/CALL check"
  | Slot_type_confusion -> "kernel indirect-call annotation-hash check"
  | Runaway_entry -> "entry watchdog"
  | Uncovered_param_store -> "static capflow + store guard"
  | Stale_cap_after_upgrade -> "upgrade restore filter (grant shrinking) + store guard"
  | Flow_reorder -> "syscall-flow automaton (registered flow graph)"

let statically_visible = function Uncovered_param_store -> true | _ -> false

type arg = Acanary | Akbuf | Ainput

type drive =
  | Dinvoke of string * arg list
  | Dcorrupt_kcall of string * arg list
  | Dupgrade of (string * arg list) * (string * arg list)
  | Dflow of string * arg list

type mutant = { m_class : mclass; m_prog : Mir.Ast.prog; m_drive : drive }

(** The hot-upgrade downgrade of a mutant program: [touch] loses its
    [fuzz.touch] export, so the new version's write surface no longer
    contains the slot whose annotation granted dynamic WRITEs — the
    upgrade's restore filter must then drop every restored WRITE
    capability (all-or-nothing grant shrinking). *)
let downgrade_of (p : Mir.Ast.prog) =
  {
    p with
    Mir.Ast.funcs =
      List.map
        (fun (f : Mir.Ast.func) ->
          if f.Mir.Ast.export = Some "fuzz.touch" then { f with Mir.Ast.export = None }
          else f)
        p.Mir.Ast.funcs;
  }

(* The audited call order of [flow_evil]: allocate, free, then take and
   release the lock.  Every per-call contract is identical to the evil
   body's — the two versions differ only in call {e order}. *)
let flow_benign_body =
  [
    let_ "q" (call_ext "kmalloc" [ ii 32 ]);
    when_ (v "q" ==: ii 0) [ ret0 ];
    expr (call_ext "kfree" [ v "q" ]);
    expr (call_ext "spin_lock" [ glob "lock" ]);
    expr (call_ext "spin_unlock" [ glob "lock" ]);
    ret0;
  ]

let benign_of (p : Mir.Ast.prog) =
  {
    p with
    Mir.Ast.funcs =
      List.map
        (fun (f : Mir.Ast.func) ->
          if f.Mir.Ast.fname = "flow_evil" then { f with Mir.Ast.body = flow_benign_body }
          else f)
        p.Mir.Ast.funcs;
  }

let prepend_to fname stmts (p : Mir.Ast.prog) =
  {
    p with
    Mir.Ast.funcs =
      List.map
        (fun (f : Mir.Ast.func) ->
          if f.Mir.Ast.fname = fname then { f with Mir.Ast.body = stmts @ f.Mir.Ast.body }
          else f)
        p.Mir.Ast.funcs;
  }

let add_import iname (p : Mir.Ast.prog) =
  if List.mem iname p.Mir.Ast.imports then p
  else { p with Mir.Ast.imports = p.Mir.Ast.imports @ [ iname ] }

let add_func f (p : Mir.Ast.prog) = { p with Mir.Ast.funcs = p.Mir.Ast.funcs @ [ f ] }

let add_global g (p : Mir.Ast.prog) =
  { p with Mir.Ast.globals = p.Mir.Ast.globals @ [ g ] }

let apply ~canary_addr mclass prog =
  let canary = ii canary_addr in
  let prog, drive =
    match mclass with
    | Store_oob ->
        (* out-of-arena store straight at a kernel object *)
        (prepend_to "entry" [ store64 canary (ii 0x5a5a5a5a) ] prog, Dinvoke ("entry", [ Ainput ]))
    | Forged_indcall ->
        (* indirect call to an address no CALL capability covers *)
        (prepend_to "entry" [ expr (call_ind canary [ ii 1 ]) ] prog, Dinvoke ("entry", [ Ainput ]))
    | Use_after_transfer ->
        (* kfree's pre(transfer) revoked the object; the second store
           must find the WRITE capability gone *)
        ( prepend_to "entry"
            [
              let_ "uaf" (call_ext "kmalloc" [ ii 64 ]);
              store64 (v "uaf") (ii 1);
              expr (call_ext "kfree" [ v "uaf" ]);
              store64 (v "uaf") (ii 2);
            ]
            prog,
          Dinvoke ("entry", [ Ainput ]) )
    | Unowned_arg ->
        (* pass a pointer the module holds no REF for into a kernel
           export whose annotation demands check(ref(...)) *)
        ( prepend_to "entry"
            [ expr (call_ext "detach_pid" [ canary ]) ]
            (add_import "detach_pid" prog),
          Dinvoke ("entry", [ Ainput ]) )
    | Over_grant ->
        (* first store just past the annotation's WRITE grant *)
        ( prepend_to "touch" [ store64 (v "buf" +: ii Gen.touch_grant) (ii 0x77) ] prog,
          Dinvoke ("touch", [ Akbuf; Ainput ]) )
    | Principal_confusion ->
        (* alias a principal name this module never created *)
        ( prepend_to "entry"
            [ expr (call_ext "lxfi_princ_alias" [ ii 0xDEAD; ii 0xBEEF ]) ]
            (add_import "lxfi_princ_alias" prog),
          Dinvoke ("entry", [ Ainput ]) )
    | Slot_corruption ->
        (* scribble a non-callable address into the kernel-held slot;
           the kernel's next call through it must be refused because a
           writer lacks CALL for the target *)
        ( prepend_to "entry" [ store64 (glob "kslot") canary ] prog,
          Dcorrupt_kcall ("entry", [ Ainput ]) )
    | Slot_type_confusion ->
        (* an own (hence CALL-capable) function of the wrong slot type:
           only the annotation-hash check can catch this one *)
        ( prepend_to "entry" [ store64 (glob "kslot") (fn "touch") ] prog,
          Dcorrupt_kcall ("entry", [ Ainput ]) )
    | Runaway_entry ->
        ( prepend_to "entry" [ while_ (ii 1) [ let_ "a" (ii 0) ] ] prog,
          Dinvoke ("entry", [ Ainput ]) )
    | Uncovered_param_store ->
        (* an entry that stores through a parameter its slot type grants
           nothing for — the one class the static checker must also
           flag before load (oracle 3) *)
        ( add_func
            (func "evil_store" [ "p"; "n" ] ~export:"fuzz.noop"
               [ store64 (v "p") (v "n"); ret0 ])
            prog,
          Dinvoke ("evil_store", [ Acanary; Ainput ]) )
    | Stale_cap_after_upgrade ->
        (* [touch] stashes the buffer pointer its annotation granted
           WRITE for; the harness then hot-upgrades to the downgraded
           version ([downgrade_of]: the stash global's contents survive
           the state transfer, but the shrunken write surface makes the
           restore filter drop the dynamic WRITE), and the victim's
           store through the stale pointer must find the capability
           gone.  A replay oracle for upgrade grant-shrinking: a naive
           restore would let the store land in the kernel buffer. *)
        ( add_func
            (* bails out when the stash was never planted, so the
               victim is clean on its own; Harness.run_without_upgrade
               additionally pins the violation on the swap itself *)
            (func "upgrade_victim" [ "p"; "n" ] ~export:"fuzz.noop"
               [
                 when_ (load64 (glob "stash") ==: ii 0) [ ret0 ];
                 store64 (load64 (glob "stash")) (v "n");
                 ret0;
               ])
            (add_global
               (global "stash" 8 ~section:Mir.Ast.Data)
               (prepend_to "touch" [ store64 (glob "stash") (v "buf") ] prog)),
          Dupgrade (("touch", [ Akbuf; Ainput ]), ("upgrade_victim", [ Acanary; Ainput ]))
        )
    | Flow_reorder ->
        (* kfree reordered into the locked region.  Every per-call
           contract still holds (the freed object is owned, the lock is
           taken then released, never recursively), so no capability or
           annotation guard can object — only the flow automaton,
           running the registered graph of {!benign_of}'s audited order
           (where a lock acquire is never followed by kfree), sees the
           skew.  The harness registers that graph before load. *)
        ( add_func
            (func "flow_evil" [ "p"; "n" ] ~export:"fuzz.noop"
               [
                 let_ "q" (call_ext "kmalloc" [ ii 32 ]);
                 when_ (v "q" ==: ii 0) [ ret0 ];
                 expr (call_ext "spin_lock" [ glob "lock" ]);
                 expr (call_ext "kfree" [ v "q" ]);
                 expr (call_ext "spin_unlock" [ glob "lock" ]);
                 ret0;
               ])
            prog,
          Dflow ("flow_evil", [ Acanary; Ainput ]) )
  in
  { m_class = mclass; m_prog = prog; m_drive = drive }

let select ~rand ~count =
  let n = List.length all in
  let count = max 0 (min count n) in
  let start = rand n in
  List.init count (fun i -> List.nth all ((start + i) mod n))
