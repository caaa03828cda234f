(** The three capability types of paper §3.2; the type is {!Trace.cap}. *)

type t = Trace.cap =
  | Cwrite of { base : int; size : int }
      (** may write any values to [base, base+size) and pass interior
          addresses to kernel routines that require writable memory *)
  | Cref of { rtype : string; addr : int }
      (** may pass [addr] where the API demands a REF of type [rtype]
          (object ownership without write access); [rtype] is usually a
          struct name but can be a special type such as [io_port]
          (Guideline 3) *)
  | Ccall of { target : int }  (** may call or jump to [target] *)

val to_string : t -> string  (** {!Trace.pp_cap}'s text *)
