(* Prints the extracted kernel-API flow graph ([Check.Apiflow.render])
   of every catalog module and of the first 50 cases of fuzz seed 1,
   each case followed by its twelve mutants and the flow-reorder
   mutant's audited counterpart ([Fuzz.Mutate.benign_of]), so every
   node, start and edge is pinned byte for byte.  All graphs are
   extracted under one freshly booted lxfi system's checker view. *)

open Kmodules

let () =
  Kernel_sim.Klog.quiet ();
  let sys = Ksys.boot Lxfi.Config.lxfi in
  let env = Lxfi.Loader.check_env sys.Ksys.rt in
  let print title prog =
    Fmt.pr "# %s@.%s" title (Check.Apiflow.render (Check.Apiflow.extract env prog))
  in
  List.iter
    (fun (spec : Mod_common.spec) ->
      let prog = spec.Mod_common.make sys in
      print ("catalog " ^ prog.Mir.Ast.pname) prog)
    Catalog.all;
  let canary_addr = Lazy.force Fuzz.Harness.canary_addr in
  for i = 1 to 50 do
    let rng = Fuzz.Rng.create ~seed:(Fuzz.Rng.derive 1 i) in
    let prog = (Fuzz.Gen.case_of_rand (Fuzz.Rng.rand rng)).Fuzz.Gen.c_prog in
    print (Printf.sprintf "case %d" i) prog;
    List.iter
      (fun cls ->
        let m = Fuzz.Mutate.apply ~canary_addr cls prog in
        let name = Fuzz.Mutate.name cls in
        print (Printf.sprintf "case %d mutant %s" i name) m.Fuzz.Mutate.m_prog;
        if cls = Fuzz.Mutate.Flow_reorder then
          print
            (Printf.sprintf "case %d benign_of %s" i name)
            (Fuzz.Mutate.benign_of m.Fuzz.Mutate.m_prog))
      Fuzz.Mutate.all
  done
