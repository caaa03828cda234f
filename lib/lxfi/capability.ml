(** The three capability types of §3.2, defined as {!Trace.cap} so
    trace events carry the values.

    - [Cwrite (ptr, size)] — may write any values to
      [ptr, ptr+size) and pass interior addresses to kernel routines
      that require writable memory.
    - [Cref (t, a)] — may pass [a] where the API demands a REF of type
      [t] (object ownership without write access).
    - [Ccall a] — may call or jump to address [a]. *)

type t = Trace.cap =
  | Cwrite of { base : int; size : int }
  | Cref of { rtype : string; addr : int }
  | Ccall of { target : int }

let to_string c = Fmt.str "%a" Trace.pp_cap c
