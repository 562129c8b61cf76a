(** Array-backed binary min-heap, functorized over the element order.

    Used as the event queue of the discrete-event simulator, where the
    common operations are [add] and [pop_min] plus lazy deletion of
    cancelled timers. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (Elt : ORDERED) : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val is_empty : t -> bool
  val add : t -> Elt.t -> unit
  val pop_min : t -> Elt.t option
  (** Remove and return the smallest element. *)

  val clear : t -> unit
end
