(** Dense bit vectors over contiguous atom ids (see {!Interned}).

    Models and partial assignments are represented as byte buffers instead
    of balanced [AtomSet] trees: membership is a shift-and-mask, copying is
    a [Bytes.copy], and deduplication hashes the raw buffer content. *)

type t

val create : int -> t
(** [create n] is an all-false vector able to hold bits [0 .. n-1]. *)

val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val copy : t -> t

val extend : t -> int -> t
(** [extend b n] is a copy of [b] able to hold bits [0 .. n-1]; bits past
    [b]'s own are false. [n] must be at least [b]'s size. *)

val reset : t -> unit
(** Clear every bit in place. *)

val equal : t -> t -> bool
val hash : t -> int
(** Content hash, suitable for keying a [Hashtbl]. *)

val cardinal : t -> int

val iter_true : (int -> unit) -> t -> unit
(** Visit set bits in increasing id order. *)
