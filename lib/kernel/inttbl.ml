include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x2545_F491_4F6C_DD1D in
    h lxor (h lsr 32)
end)
