(** Per-principal capability tables (§5, "Capability table").

    One table per capability type.  WRITE page slots and CALL targets
    live in int-keyed tables ({!Kernel_sim.Inttbl}); REF capabilities
    in an ordinary hash table keyed by (type, address).

    WRITE capabilities are identified by an address {e range}, and the
    hot check ("does some capability cover [addr, addr+size)?") must be
    constant time.  Following the paper, a WRITE capability is inserted
    into {e every} hash slot its range covers after masking the low 12
    bits of the address, so a lookup only consults the one bucket for
    the queried address's page.  (The paper chose this over a balanced
    tree because kernel-module objects rarely exceed a page.) *)

module Inttbl = Kernel_sim.Inttbl

let slot_shift = 12

(** Ranges covering more than this many pages are kept on a short
    linear list instead of being inserted per page slot.  The only such
    range in practice is the blanket user-space WRITE capability every
    module holds (uaccess helpers write to user memory on the module's
    behalf); per-page insertion of a 2 GB range would be absurd, and
    the paper's observation that "kernel modules do not usually
    manipulate memory objects larger than a page" still holds for the
    hashed population. *)
let big_range_pages = 64

type wentry = { base : int; size : int }

type t = {
  writes : wentry list Inttbl.t;  (** page slot -> covering entries *)
  mutable big : wentry list;  (** oversized ranges, checked linearly *)
  calls : unit Inttbl.t;
  refs : (string * int, unit) Hashtbl.t;
  mutable last_hit : wentry;
      (** last covering WRITE range (guard-write fast path), or
          [no_hit]; sound because adding capabilities never shrinks a
          range, so the cache only needs dropping when a revocation
          could remove it (it intersects the revoked range) or on
          clear *)
}

(* The empty cache.  Compared physically: no (addr, size) query may
   match it, whatever its fields. *)
let no_hit = { base = 0; size = 0 }

let create () =
  {
    writes = Inttbl.create 32;
    big = [];
    calls = Inttbl.create 16;
    refs = Hashtbl.create 16;
    last_hit = no_hit;
  }

let slots_of ~base ~size =
  let first = base lsr slot_shift and last = (base + size - 1) lsr slot_shift in
  (first, last)

let is_big ~base ~size =
  let first, last = slots_of ~base ~size in
  last - first >= big_range_pages

(* The entries hashed into page slot [s].  An absent slot is common
   (most principals hold nothing on a given page, many nothing hashed
   at all), so this asks [find_opt], whose only allocation is the
   option around a present slot, rather than [find], whose [Not_found]
   costs several times that. *)
let slot t s =
  if Inttbl.length t.writes = 0 then []
  else match Inttbl.find_opt t.writes s with Some l -> l | None -> []

let same_range e ~base ~size = e.base = base && e.size = size

let rec mem_range ~base ~size = function
  | [] -> false
  | e :: rest -> same_range e ~base ~size || mem_range ~base ~size rest

(** {1 WRITE} *)

let add_write t ~base ~size =
  if size <= 0 then invalid_arg "Captable.add_write: size <= 0";
  let e = { base; size } in
  if is_big ~base ~size then begin
    if not (mem_range ~base ~size t.big) then t.big <- e :: t.big
  end
  else begin
    let first, last = slots_of ~base ~size in
    for s = first to last do
      let cur = slot t s in
      (* Idempotent: an identical entry is not duplicated. *)
      if not (mem_range ~base ~size cur) then Inttbl.replace t.writes s (e :: cur)
    done
  end

let covers e ~addr ~size = e.base <= addr && addr + size <= e.base + e.size

(* The first entry of [l] covering [addr, addr+size), or [no_hit]. *)
let rec covering ~addr ~size = function
  | [] -> no_hit
  | e :: rest -> if covers e ~addr ~size then e else covering ~addr ~size rest

(** [has_write_uncached t ~addr ~size] — the cache-free covering-range
    query (reference semantics; the property suite checks the cached
    path against it). *)
let has_write_uncached t ~addr ~size =
  List.exists (fun e -> covers e ~addr ~size) (slot t (addr lsr slot_shift))
  || List.exists (fun e -> covers e ~addr ~size) t.big

(** [has_write t ~addr ~size] — is [addr, addr+size) covered by a single
    WRITE capability?  Consults the last covering range first: guarded
    module stores cluster heavily (the same skb / stack buffer written
    field by field), so this hits far more often than the bucket scan,
    which allocates no closure and no option of its own. *)
let has_write t ~addr ~size =
  let e = t.last_hit in
  if e != no_hit && covers e ~addr ~size then true
  else
    let e = covering ~addr ~size (slot t (addr lsr slot_shift)) in
    let e = if e == no_hit then covering ~addr ~size t.big else e in
    if e == no_hit then false
    else begin
      t.last_hit <- e;
      true
    end

let intersects e ~base ~size = e.base < base + size && base < e.base + e.size

(* The first entry of [l] intersecting [base, base+size), or [no_hit]. *)
let rec intersecting ~base ~size = function
  | [] -> no_hit
  | e :: rest -> if intersects e ~base ~size then e else intersecting ~base ~size rest

let contained e ~base ~size = e.base >= base && e.base + e.size <= base + size

let rec any_contained ~base ~size = function
  | [] -> false
  | e :: rest -> contained e ~base ~size || any_contained ~base ~size rest

(* [l] without the entries of [v]'s range; shares the tail after the
   last one. *)
let rec without v l =
  match l with
  | [] -> l
  | e :: rest ->
      let rest' = without v rest in
      if same_range e ~base:v.base ~size:v.size then rest'
      else if rest' == rest then l
      else e :: rest'

(* Remove [v] from every slot its range covers. *)
let remove_entry t v =
  let vf, vl = slots_of ~base:v.base ~size:v.size in
  for s = vf to vl do
    match without v (slot t s) with
    | [] -> Inttbl.remove t.writes s
    | kept -> Inttbl.replace t.writes s kept
  done

(** [remove_write_intersecting t ~base ~size] removes every WRITE entry
    that overlaps [base, base+size); returns how many distinct entries
    were removed.  Used by transfer actions, which revoke from {e all}
    principals so that no copies survive (§3.3).  A table holding
    nothing in the range is only probed, never rebuilt, and keeps its
    cached range unless that range intersects the revoked one (only
    intersecting entries are ever removed). *)
let remove_write_intersecting t ~base ~size =
  if t.last_hit != no_hit && intersects t.last_hit ~base ~size then t.last_hit <- no_hit;
  (* An entry leaves all its slots at once, so none is counted twice. *)
  let hashed = ref 0 in
  for s = base lsr slot_shift to (base + size - 1) lsr slot_shift do
    let v = ref (intersecting ~base ~size (slot t s)) in
    while !v != no_hit do
      remove_entry t !v;
      incr hashed;
      v := intersecting ~base ~size (slot t s)
    done
  done;
  (* A big (blanket) range is only revoked when the revocation range
     contains it entirely: a transfer of one small object must not
     strip a module's user-space window. *)
  if any_contained ~base ~size t.big then begin
    let gone, kept = List.partition (fun e -> contained e ~base ~size) t.big in
    t.big <- kept;
    !hashed + List.length gone
  end
  else !hashed

(** Distinct WRITE entries (each range counted once). *)
let fold_writes t f acc =
  let seen = Hashtbl.create 16 in
  let acc =
    Inttbl.fold
      (fun _ entries acc ->
        List.fold_left
          (fun acc e ->
            if Hashtbl.mem seen (e.base, e.size) then acc
            else begin
              Hashtbl.replace seen (e.base, e.size) ();
              f acc ~base:e.base ~size:e.size
            end)
          acc entries)
      t.writes acc
  in
  List.fold_left (fun acc e -> f acc ~base:e.base ~size:e.size) acc t.big

let write_count t = fold_writes t (fun n ~base:_ ~size:_ -> n + 1) 0

(** {1 CALL} *)

let add_call t ~target = Inttbl.replace t.calls target ()
let has_call t ~target = Inttbl.mem t.calls target
let remove_call t ~target = Inttbl.remove t.calls target
let call_count t = Inttbl.length t.calls

let fold_calls t f acc =
  Inttbl.fold (fun target () acc -> f acc ~target) t.calls acc

(** {1 REF} *)

let add_ref t ~rtype ~addr = Hashtbl.replace t.refs (rtype, addr) ()
let has_ref t ~rtype ~addr = Hashtbl.mem t.refs (rtype, addr)
let remove_ref t ~rtype ~addr = Hashtbl.remove t.refs (rtype, addr)
let ref_count t = Hashtbl.length t.refs

let fold_refs t f acc =
  Hashtbl.fold (fun (rtype, addr) () acc -> f acc ~rtype ~addr) t.refs acc

(** [clear t] drops every capability of every type — the quarantine
    revocation primitive. *)
let clear t =
  t.last_hit <- no_hit;
  Inttbl.reset t.writes;
  t.big <- [];
  Inttbl.reset t.calls;
  Hashtbl.reset t.refs
