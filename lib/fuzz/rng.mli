(** Deterministic random stream for the fuzzer: the splitmix64 stream
    of {!Kernel_sim.Finject}.  Every campaign artefact — the generated
    modules, the mutation schedule, the JSON report — derives from one
    integer seed through this stream, which is what makes two runs with
    the same seed byte-identical. *)

type t = Kernel_sim.Finject.t

val create : seed:int -> t

val rand : t -> int -> int
(** The stream as the [int -> int] closure {!Gen} consumes. *)

val derive : int -> int -> int
(** [derive seed i] — mix a per-case seed out of the campaign seed, so
    case [i]'s stream is independent of how many cases ran before
    it. *)
