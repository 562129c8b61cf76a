(** A Wing–Gong linearizability checker for small concurrent histories.

    The replicated service should be linearizable from the clients' point
    of view: every completed operation appears to take effect atomically
    between its invocation and its response. The checker searches for a
    legal sequential witness; it is exponential in the worst case and
    intended for test-suite histories (tens of operations, small
    concurrency). *)

(** A sequential model. Results compare with structural equality. *)
module type MODEL = sig
  type state
  type op
  type result

  val initial : state
  val step : state -> op -> state * result
end

type ('op, 'res) event = {
  client : int;
  op : 'op;
  result : 'res;
  invoked_at : float;
  responded_at : float;
}

module Make (M : MODEL) : sig
  type history = (M.op, M.result) event list

  val check : history -> bool
  (** [true] iff the history is linearizable with respect to the model. *)
end

(** Ready-made model for the replicated counter service. *)
module Counter_model : sig
  type state = int
  type op = Get | Add of int
  type result = int

  val initial : state
  val step : state -> op -> state * result
end

module Counter : module type of Make (Counter_model)

(** Ready-made model for the key-value store. *)
module Kv_model : sig
  module Smap : Map.S with type key = string

  type state = string Smap.t
  type op = Put of string * string | Get of string | Del of string
  type result = Ok | Found of string option

  val initial : state
  val step : state -> op -> state * result
end

module Kv : module type of Make (Kv_model)
