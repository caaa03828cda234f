(** Runtime introspection: the /proc-style view of LXFI's state —
    modules, principals, capability populations, writer-set size,
    shadow-stack depth.  Used by the CLI ([lxfi_sim state]), the
    examples, and debugging sessions. *)

(* The name pointers resolving to [p], in address order. *)
let aliases (mi : Runtime.module_info) (p : Principal.t) =
  Kernel_sim.Inttbl.fold
    (fun name q acc -> if q.Principal.id = p.Principal.id then name :: acc else acc)
    mi.Runtime.mi_aliases []
  |> List.sort compare

let pp_principal mi ppf (p : Principal.t) =
  let caps = p.Principal.caps in
  Fmt.pf ppf "  %-32s write=%d call=%d ref=%d%s@." (Principal.describe p)
    (Captable.write_count caps) (Captable.call_count caps) (Captable.ref_count caps)
    ((match aliases mi p with
     | [] -> ""
     | l ->
         Printf.sprintf " names:[%s]" (String.concat ", " (List.map (Printf.sprintf "0x%x") l)))
    ^
    match p.Principal.quarantined with
    | None -> ""
    | Some r -> " [QUARANTINED: " ^ r ^ "]")

let pp_module ppf (mi : Runtime.module_info) =
  Fmt.pf ppf "@.module %s (%d functions, %d globals)%s@." mi.Runtime.mi_name
    (List.length mi.Runtime.mi_prog.Mir.Ast.funcs)
    (List.length mi.Runtime.mi_prog.Mir.Ast.globals)
    (match mi.Runtime.mi_dead with None -> "" | Some r -> " [DEAD: " ^ r ^ "]");
  List.iter
    (fun (name, base, len) -> Fmt.pf ppf "  section %-8s 0x%x +%d@." name base len)
    mi.Runtime.mi_sections;
  List.iter (pp_principal mi ppf)
    (List.sort
       (fun (a : Principal.t) b -> compare a.Principal.id b.Principal.id)
       mi.Runtime.mi_principals)

let pp ppf (rt : Runtime.t) =
  Fmt.pf ppf "LXFI state (mode %s, executing %s)@."
    (Config.mode_name rt.Runtime.config.Config.mode)
    (match rt.Runtime.current with None -> "(kernel)" | Some p -> Principal.describe p);
  Fmt.pf ppf "  writer set: %d marked lines; shadow stack depth %d@."
    (Writer_set.marked_lines rt.Runtime.wset)
    (Shadow_stack.depth rt.Runtime.sstack);
  Fmt.pf ppf "  %a@." Stats.pp rt.Runtime.stats;
  List.iter (fun d -> Fmt.pf ppf "  %a@." Diag.pp d) rt.Runtime.quarantine_log;
  Hashtbl.fold (fun _ mi acc -> mi :: acc) rt.Runtime.modules []
  |> List.sort (fun (a : Runtime.module_info) b -> compare a.Runtime.mi_name b.Runtime.mi_name)
  |> List.iter (pp_module ppf)

let to_string rt = Fmt.str "%a" pp rt
