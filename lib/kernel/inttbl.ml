(* The bucket discipline is the standard library's [Hashtbl.Make]'s,
   step for step: a power-of-two bucket array of at least 16, growth by
   doubling once the size exceeds twice the bucket count, head
   insertion, and an order-preserving rehash.  Only the hash and the key
   comparison differ in how they are reached: written out here, they
   cost no call through the functor's closures.  Keeping the discipline
   keeps every [fold] order, which the snapshots and reports read. *)

type 'a bucket = Empty | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable size : int;
  mutable data : 'a bucket array;
  mutable initial_size : int;
      (** bucket count of a fresh table; negated while a [fold] runs *)
}

let[@inline] hash k =
  let h = k * 0x2545_F491_4F6C_DD1D in
  h lxor (h lsr 32)

(* The bucket of [k]; always in bounds, as the count is a power of 2. *)
let[@inline] index t k = hash k land (Array.length t.data - 1)

let rec power_2_above x n =
  if x >= n then x else if x * 2 > Sys.max_array_length then x else power_2_above (x * 2) n

let create n =
  let s = power_2_above 16 n in
  { size = 0; data = Array.make s Empty; initial_size = s }

let reset t =
  let s = abs t.initial_size in
  t.size <- 0;
  if Array.length t.data = s then Array.fill t.data 0 s Empty else t.data <- Array.make s Empty

let length t = t.size

(* A fold in progress holds the old bucket array, so a table resized
   under it must copy its cells rather than relink them. *)
let ongoing_traversal t = t.initial_size < 0

(* Double the buckets.  Each old bucket is walked head to tail and its
   cells appended to their new buckets, so bindings that share a new
   bucket keep their relative order. *)
let resize t =
  let odata = t.data in
  let nsize = Array.length odata * 2 in
  if nsize < Sys.max_array_length then begin
    let ndata = Array.make nsize Empty and tails = Array.make nsize Empty in
    let inplace = not (ongoing_traversal t) in
    t.data <- ndata;
    let rec insert = function
      | Empty -> ()
      | Cons { key; data; next } as cell ->
          let cell = if inplace then cell else Cons { key; data; next = Empty } in
          let i = index t key in
          (match tails.(i) with Empty -> ndata.(i) <- cell | Cons tail -> tail.next <- cell);
          tails.(i) <- cell;
          insert next
    in
    Array.iter insert odata;
    if inplace then
      Array.iter (function Empty -> () | Cons tail -> tail.next <- Empty) tails
  end

let[@inline] one_more t =
  t.size <- t.size + 1;
  if t.size > Array.length t.data lsl 1 then resize t

let add t key data =
  let i = index t key in
  t.data.(i) <- Cons { key; data; next = t.data.(i) };
  one_more t

(* Overwrite [key]'s binding in place; [false] when the bucket has none. *)
let rec replace_in key data = function
  | Empty -> false
  | Cons c -> if c.key = key then (c.data <- data; true) else replace_in key data c.next

let replace t key data =
  let i = index t key in
  let l = t.data.(i) in
  if not (replace_in key data l) then begin
    t.data.(i) <- Cons { key; data; next = l };
    one_more t
  end

let rec remove_in t i key prec = function
  | Empty -> ()
  | Cons { key = k; next; _ } as c ->
      if k = key then begin
        t.size <- t.size - 1;
        match prec with Empty -> t.data.(i) <- next | Cons p -> p.next <- next
      end
      else remove_in t i key c next

let remove t key =
  let i = index t key in
  remove_in t i key Empty t.data.(i)

let rec find_in key = function
  | Empty -> raise Not_found
  | Cons { key = k; data; next } -> if k = key then data else find_in key next

let find t key = find_in key (Array.unsafe_get t.data (index t key))

let rec find_opt_in key = function
  | Empty -> None
  | Cons { key = k; data; next } -> if k = key then Some data else find_opt_in key next

let find_opt t key = find_opt_in key (Array.unsafe_get t.data (index t key))

let rec find_or_in key default = function
  | Empty -> default
  | Cons { key = k; data; next } -> if k = key then data else find_or_in key default next

let find_or t key ~default = find_or_in key default (Array.unsafe_get t.data (index t key))

let rec mem_in key = function
  | Empty -> false
  | Cons { key = k; next; _ } -> k = key || mem_in key next

let mem t key = mem_in key (Array.unsafe_get t.data (index t key))

let fold f t init =
  let rec bucket b acc =
    match b with Empty -> acc | Cons { key; data; next } -> bucket next (f key data acc)
  in
  let outer = ongoing_traversal t in
  let flip () = if not outer then t.initial_size <- -t.initial_size in
  flip ();
  Fun.protect ~finally:flip (fun () -> Array.fold_left (fun acc b -> bucket b acc) init t.data)
