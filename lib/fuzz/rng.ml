(** The fuzzer's stream is {!Kernel_sim.Finject}'s splitmix64 stream:
    tiny, fast, and plenty for statement-shape choices. *)

open Kernel_sim

type t = Finject.t

let create = Finject.create

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (Finject.next t) 1) (Int64.of_int n))

let rand t = int t

let derive seed i =
  let r = create ~seed:(seed lxor (i * 0x632BE59B)) in
  Int64.to_int (Int64.shift_right_logical (Finject.next r) 2)
