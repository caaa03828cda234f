(** Block layer + device-mapper substrate, enough to host the paper's
    three dm modules (dm-crypt, dm-zero, dm-snapshot).

    A device-mapper target module registers a [target_type] whose
    constructor/destructor/map pointers live in module memory; the core
    calls them indirectly per table-create and per-bio.  Each mapped
    device is a natural module {e principal} (paper §3.1: "device mapper
    modules provide a layered block device abstraction that can be
    instantiated for a particular block device"). *)

let tt_layout =
  Ktypes.layout "target_type"
    [
      ("ctr", 8, Ktypes.Funcptr "target_type.ctr");
      ("dtr", 8, Ktypes.Funcptr "target_type.dtr");
      ("map", 8, Ktypes.Funcptr "target_type.map");
    ]

let ti_layout =
  Ktypes.layout "dm_target"
    [
      ("private", 8, Ktypes.Pointer);
      ("begin", 8, Ktypes.Scalar);
      ("len", 8, Ktypes.Scalar);
      ("error", 4, Ktypes.Scalar);
    ]

let bio_layout =
  Ktypes.layout "bio"
    [
      ("sector", 8, Ktypes.Scalar);
      ("data", 8, Ktypes.Pointer);
      ("size", 4, Ktypes.Scalar);
      ("rw", 4, Ktypes.Scalar);  (* 0 read, 1 write *)
      ("status", 4, Ktypes.Scalar);
    ]

let layouts = [ tt_layout; ti_layout; bio_layout ]
let define_layout types = List.iter (Ktypes.add types) layouts

let tt_ctr = Ktypes.offset_of tt_layout "ctr"
let tt_dtr = Ktypes.offset_of tt_layout "dtr"
let tt_map = Ktypes.offset_of tt_layout "map"
let ti_len = Ktypes.offset_of ti_layout "len"
let b_sector = Ktypes.offset_of bio_layout "sector"
let b_data = Ktypes.offset_of bio_layout "data"
let b_size = Ktypes.offset_of bio_layout "size"
let b_rw = Ktypes.offset_of bio_layout "rw"

(* dm map return codes *)
let dm_mapio_submitted = 0L
let dm_mapio_remapped = 1L

type t = {
  kst : Kstate.t;
  targets : (string, int) Hashtbl.t;  (** target name -> target_type addr *)
  mutable mapped : (string * int * int) list;
      (** mapped devices: (dm name, dm_target addr, target_type addr) *)
  mutable backing_io : int;  (** bios that reached the "backing device" *)
}

let create kst = { kst; targets = Hashtbl.create 8; mapped = []; backing_io = 0 }

(** [register_target t ~name ~tt] — exported to dm modules. *)
let register_target t ~name ~tt =
  if Hashtbl.mem t.targets name then -17L
  else begin
    Hashtbl.replace t.targets name tt;
    0L
  end

let unregister_target t ~name = Hashtbl.remove t.targets name

(** [dm_create t ~target ~name ~len ~arg] builds a mapped device over
    the named target: allocates the [dm_target] and runs the module's
    constructor through the ctr slot.  Returns the dm_target address or
    an error. *)
let dm_create t ~target ~name ~len ~arg =
  let kst = t.kst in
  match Hashtbl.find_opt t.targets target with
  | None -> Error "no such target"
  | Some tt ->
      Kcycles.charge kst.cycles Kcycles.Kernel 150;
      let ti = Slab.kmalloc kst.slab ti_layout.Ktypes.s_size in
      Kmem.write_u64 kst.mem (ti + ti_len) (Int64.of_int len);
      let slot = tt + tt_ctr in
      let ret =
        Kstate.call_ptr kst ~slot ~ftype:"target_type.ctr"
          [ Int64.of_int ti; Int64.of_int arg ]
      in
      if ret <> 0L then Error (Printf.sprintf "ctr failed: %Ld" ret)
      else begin
        t.mapped <- (name, ti, tt) :: t.mapped;
        Ok ti
      end

let dm_destroy t ~name =
  match List.find_opt (fun (n, _, _) -> n = name) t.mapped with
  | None -> ()
  | Some (_, ti, tt) ->
      let slot = tt + tt_dtr in
      ignore (Kstate.call_ptr t.kst ~slot ~ftype:"target_type.dtr" [ Int64.of_int ti ]);
      t.mapped <- List.filter (fun (n, _, _) -> n <> name) t.mapped

(** [alloc_bio t ~sector ~size ~rw] allocates a bio with a data buffer. *)
let alloc_bio t ~sector ~size ~rw =
  let kst = t.kst in
  let bio = Slab.kmalloc kst.slab bio_layout.Ktypes.s_size in
  let data = Slab.kmalloc kst.slab (max size 1) in
  Kmem.write_u64 kst.mem (bio + b_sector) (Int64.of_int sector);
  Kmem.write_ptr kst.mem (bio + b_data) data;
  Kmem.write_u32 kst.mem (bio + b_size) size;
  Kmem.write_u32 kst.mem (bio + b_rw) rw;
  bio

let bio_data t bio = Kmem.read_ptr t.kst.mem (bio + b_data)
let bio_size t bio = Kmem.read_u32 t.kst.mem (bio + b_size)

let free_bio t bio =
  let data = bio_data t bio in
  if data <> 0 && Slab.is_live t.kst.slab data then Slab.kfree t.kst.slab data;
  Slab.kfree t.kst.slab bio

(** [submit_bio t ~name bio] routes a bio through the named mapped
    device: the module's [map] runs via the map slot; a REMAPPED result
    sends the bio on to the backing device (counted). *)
let submit_bio t ~name bio =
  let kst = t.kst in
  match List.find_opt (fun (n, _, _) -> n = name) t.mapped with
  | None -> Error "no such mapped device"
  | Some (_, ti, tt) ->
      Kcycles.charge kst.cycles Kcycles.Kernel 120;
      let slot = tt + tt_map in
      let ret =
        Kstate.call_ptr kst ~slot ~ftype:"target_type.map"
          [ Int64.of_int ti; Int64.of_int bio ]
      in
      if ret = dm_mapio_remapped || ret = dm_mapio_submitted then begin
        t.backing_io <- t.backing_io + 1;
        Ok ret
      end
      else Error (Printf.sprintf "map failed: %Ld" ret)
