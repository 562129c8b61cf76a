(** Compact fixed-size bitsets.

    Used to track quorum membership: which replicas have acknowledged a
    prepare/accept or confirmed a read. *)

type t

val create : int -> t
(** [create n] is an empty set over the universe [0 .. n-1]. *)

val capacity : t -> int
val set : t -> int -> unit
val mem : t -> int -> bool
val cardinal : t -> int
val is_empty : t -> bool
val clear : t -> unit
val copy : t -> t
val union : t -> t -> t
val inter : t -> t -> t
val iter : (int -> unit) -> t -> unit
val to_list : t -> int list
val of_list : int -> int list -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
