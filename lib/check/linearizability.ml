(** A Wing–Gong linearizability checker for small concurrent histories.

    The replicated service should be linearizable from the clients' point
    of view: every completed operation appears to take effect atomically
    between its invocation and its response. The checker searches for a
    legal sequential witness by trying, at each step, every {e minimal}
    pending operation (one whose invocation precedes the earliest pending
    response) against a sequential model.

    Exponential in the worst case; intended for the test suite's
    histories (tens of operations, small concurrency). *)

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

module Make (M : MODEL) = struct
  type history = (M.op, M.result) event list

  (* An operation [e] is minimal in the pending set if no other pending
     operation responded before [e] was invoked. *)
  let minimal pending =
    let earliest_response =
      List.fold_left (fun acc e -> Float.min acc e.responded_at) infinity pending
    in
    List.filter (fun e -> e.invoked_at <= earliest_response) pending

  let rec search state pending =
    match pending with
    | [] -> true
    | _ ->
      List.exists
        (fun e ->
          let state', result = M.step state e.op in
          result = e.result
          && search state' (List.filter (fun e' -> e' != e) pending))
        (minimal pending)

  (** [check history] is [true] iff the history is linearizable with
      respect to the model. *)
  let check (history : history) = search M.initial history
end

(** Ready-made model for the replicated counter service. *)
module Counter_model = struct
  type state = int
  type op = Get | Add of int
  type result = int

  let initial = 0
  let step s = function Get -> (s, s) | Add n -> (s + n, s + n)
end

module Counter = Make (Counter_model)

(** Ready-made model for the key-value store. *)
module Kv_model = struct
  module Smap = Map.Make (String)

  type state = string Smap.t
  type op = Put of string * string | Get of string | Del of string
  type result = Ok | Found of string option

  let initial = Smap.empty

  let step s = function
    | Put (k, v) -> (Smap.add k v s, Ok)
    | Get k -> (s, Found (Smap.find_opt k s))
    | Del k -> (Smap.remove k s, Ok)
end

module Kv = Make (Kv_model)
