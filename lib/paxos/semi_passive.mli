(** Semi-passive replication (Défago, Schiper & Sergent, SRDS 1998) —
    the §5 related-work baseline whose "practical implementation and
    performance remains uninvestigated" per the paper.

    Like the paper's protocol, each consensus instance decides the tuple
    ⟨request, resulting state⟩, so nondeterministic services replicate
    safely. Unlike it, there is {e no leader election service}: each
    instance runs a Chandra–Toueg-style ◇S consensus with a rotating
    coordinator. Round 0's coordinator is fixed (replica 0), so in
    failure-free runs it acts as a de-facto primary; when it is suspected
    (round timeout), the next round's coordinator takes over — {e lazy
    execution} means only the coordinator that actually proposes executes
    the request.

    Message pattern per instance, failure-free:
    client broadcast → coordinator executes → [Propose] → majority
    [Ack] → reply + [Decide]; the same 2M + E + 2m latency as the
    basic protocol, but fail-over costs one round timeout instead of a
    full election + multi-instance prepare.

    The baseline runs only on the simulator, so its messages, timer,
    inputs and actions are its own types and have no wire codec. A
    client's traffic travels wrapped in [Client], so the unchanged
    client engine drives it. *)

type msg =
  | Client of Types.msg
      (** a client's [Client_req] to a replica, or a replica's
          [Reply_msg] to a client; replicas ignore any other payload *)
  | Estimate of {
      instance : int;
      round : int;
      estimate : (Types.proposal * int) option;  (** locked value and its round *)
    }
      (** a replica that suspects round [round - 1]'s coordinator reports
          its estimate to round [round]'s *)
  | Propose of { instance : int; round : int; proposal : Types.proposal }
  | Ack of { instance : int; round : int }
  | Decide of { instance : int; proposal : Types.proposal }

type timer = Round_timeout of { instance : int; round : int }
(** The suspicion timeout of one round of one instance. *)

type input = Receive of { src : int; msg : msg } | Timer of timer
type action = Send of { dst : int; msg : msg } | After of { delay : float; timer : timer }

module Make (S : Service_intf.S) : sig
  type t

  val create : cfg:Config.t -> id:int -> ?seed:int -> unit -> t
  (** [cfg.suspicion_ms] is used as the per-round suspicion timeout. *)

  val bootstrap : t -> action list
  val handle : t -> now:float -> input -> action list

  (** {1 Introspection} *)

  val id : t -> int
  val state : t -> S.state
  val committed_updates : t -> (int * Types.request list * string) list
  (** Requires [cfg.record_history]. *)
end
