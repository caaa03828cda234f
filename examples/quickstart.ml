(* Quickstart: isolate a tiny kernel module with LXFI in ~80 lines.

     dune exec examples/quickstart.exe

   We boot the simulated kernel, write a small module in MIR that uses
   the annotated kernel API correctly, load it under full LXFI
   enforcement, drive it — and then show what happens when the same
   module misbehaves (the spin_lock_init confused-deputy attack from
   the paper's introduction). *)

open Kernel_sim
open Kmodules
open Mir.Builder

let say fmt = Format.printf (fmt ^^ "@.")

(* A module that allocates a buffer, initialises a lock inside it, and
   exposes one operation to the kernel.  The [bench.entry] slot type is
   a trivial empty contract; real interfaces carry real contracts (see
   examples/annotation_tour.exe). *)
let good_module =
  prog "hello_mod"
    ~imports:[ "kmalloc"; "spin_lock_init"; "spin_lock"; "spin_unlock"; "printk" ]
    ~globals:[ global "state" 16 ~section:Mir.Ast.Bss ]
    ~funcs:
      [
        func "module_init" []
          [
            let_ "buf" (call_ext "kmalloc" [ ii 64 ]);
            store64 (glob "state") (v "buf");
            (* the lock lives inside our own buffer: the check on
               spin_lock_init passes because kmalloc's annotation
               granted us WRITE for it *)
            expr (call_ext "spin_lock_init" [ v "buf" ]);
            ret0;
          ];
        func "hello_op" [ "n" ]
          [
            let_ "buf" (load64 (glob "state"));
            expr (call_ext "spin_lock" [ v "buf" ]);
            store64 (v "buf" +: ii 8) (v "n" *: ii 2);
            let_ "r" (load64 (v "buf" +: ii 8));
            expr (call_ext "spin_unlock" [ v "buf" ]);
            ret (v "r");
          ]
          ~export:"bench.entry";
      ]

(* The same module, compromised: it passes the address of the current
   task's uid field to spin_lock_init, trying to become root by having
   the kernel write a zero there (paper §1). *)
let evil_module ~uid_addr =
  prog "evil_mod" ~imports:[ "spin_lock_init" ] ~globals:[]
    ~funcs:
      [
        func "module_init" [] [ ret0 ];
        func "evil_op" [ "n" ]
          [ expr (call_ext "spin_lock_init" [ ii uid_addr ]); ret0 ]
          ~export:"bench.entry";
      ]

let () =
  Klog.quiet ();
  say "== LXFI quickstart ==";
  say "";
  say "Booting the simulated kernel with full LXFI enforcement...";
  let sys = Ksys.boot Lxfi.Config.lxfi in
  ignore
    (Annot.Registry.define_exn sys.Ksys.rt.Lxfi.Runtime.registry ~name:"bench.entry"
       ~params:[ "n" ] ~annot_src:"");

  say "Loading hello_mod (rewriter inserts guards, loader grants initial caps)...";
  let mi, report = Ksys.load sys good_module in
  say "  rewriter: %s" (Fmt.str "%a" Lxfi.Rewriter.pp_report report);
  ignore (Lxfi.Loader.init_call sys.Ksys.rt mi "module_init" []);

  say "Kernel invokes the module's operation through its wrapper:";
  let r = Lxfi.Runtime.invoke_module_function sys.Ksys.rt mi "hello_op" [ 21L ] in
  say "  hello_op 21 = %Ld  (lock taken and released, stores checked)" r;
  say "  guards so far: %s" (Fmt.str "%a" Lxfi.Stats.pp sys.Ksys.rt.Lxfi.Runtime.stats);
  say "";

  say "Now the confused-deputy attack from the paper's introduction:";
  say "  the module passes &current->uid to spin_lock_init, hoping the";
  say "  kernel will write 0 (root) there on its behalf.";
  let kst = sys.Ksys.kst in
  let uid_addr = Task.field_addr kst.Kstate.current "uid" in
  let emi, _ = Ksys.load sys (evil_module ~uid_addr) in
  (match Lxfi.Runtime.invoke_module_function sys.Ksys.rt emi "evil_op" [ 0L ] with
  | _ -> say "  !!! the attack went through (this should not happen under LXFI)"
  | exception Lxfi.Violation.Violation v ->
      say "  LXFI: %s" (Fmt.str "%a" Lxfi.Violation.pp v));
  say "  current uid is still %d" (Kstate.current_uid kst);
  say "";
  say "Same attack on a stock kernel:";
  let sys = Ksys.boot Lxfi.Config.stock in
  ignore
    (Annot.Registry.define_exn sys.Ksys.rt.Lxfi.Runtime.registry ~name:"bench.entry"
       ~params:[ "n" ] ~annot_src:"");
  let kst = sys.Ksys.kst in
  let uid_addr = Task.field_addr kst.Kstate.current "uid" in
  let emi, _ = Ksys.load sys (evil_module ~uid_addr) in
  ignore (Lxfi.Runtime.invoke_module_function sys.Ksys.rt emi "evil_op" [ 0L ]);
  say "  current uid is now %d — root. That is why modules need API integrity."
    (Kstate.current_uid kst)
