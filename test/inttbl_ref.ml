(* The table [Kernel_sim.Inttbl] replaced: the standard library's
   [Hashtbl.Make] over the same hash.  Inttbl keeps this functor's
   bucket discipline, so the two answer alike and fold alike;
   test_inttbl.ml holds them to that. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x2545_F491_4F6C_DD1D in
    h lxor (h lsr 32)
end)
