(* Prints every struct layout a freshly booted system registers, sorted
   by name, so the layouts' offsets and sizes are pinned byte for byte. *)

open Kernel_sim

let () =
  let sys = Kmodules.Ksys.boot Lxfi.Config.lxfi in
  Ktypes.all (Kmodules.Ksys.types sys)
  |> List.sort (fun a b -> String.compare a.Ktypes.s_name b.Ktypes.s_name)
  |> List.iter (Fmt.pr "%a@." Ktypes.pp_struct)
