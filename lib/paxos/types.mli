(** Protocol types shared by every engine in [grid_paxos]: ballots,
    requests, replies, state updates, wire messages, and the input/action
    vocabulary of the pure step machines.

    Engines never touch a clock, a socket or an RNG directly: they consume
    {!input} values and emit {!action} values, and a driver (simulator,
    TCP runtime, or model checker) interprets them. *)

(** Ballot numbers: lexicographically ordered (round, holder) pairs, so
    ballots of distinct replicas never collide. *)
module Ballot : sig
  type t = { round : int; holder : int }

  val zero : t
  val make : round:int -> holder:int -> t
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val encode : Grid_codec.Wire.Encoder.t -> t -> unit
  val decode : Grid_codec.Wire.Decoder.t -> t
end

(** Proposal numbers: (ballot, instance), ordered lexicographically — the
    order the paper uses for replica logs (§3.3). *)
module Pnum : sig
  type t = { ballot : Ballot.t; instance : int }

  val make : ballot:Ballot.t -> instance:int -> t
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

(** How a request wants to be coordinated. [Read] uses X-Paxos, [Write]
    the basic protocol, [Original] no coordination at all (the paper's
    unreplicated baseline). Transactional requests carry a per-client
    transaction number; their coordination is deferred to the commit
    (T-Paxos). [Txn_prepare] is the 2PC prepare vote for a cross-shard
    transaction (DESIGN.md §16): the participant group commits it as a
    consensus instance with the transaction branch re-encoded into the
    payload, making the YES vote crash-safe.

    The [Reshard_*] requests are the elastic-resharding control plane
    (DESIGN.md §17), each carrying the epoch of the map transition it
    belongs to: FREEZE locks the moving key range at the source group,
    INSTALL delivers the shipped range snapshot at the target, COMMIT
    activates the successor partition map, ABORT cancels an in-flight
    transition. All four commit as consensus instances, so the migration
    state machine survives any minority of crashes in either group. *)
type rtype =
  | Read
  | Write
  | Original
  | Txn_op of int
  | Txn_commit of int
  | Txn_abort of int
  | Txn_prepare of int
  | Reshard_freeze of int
  | Reshard_install of int
  | Reshard_commit of int
  | Reshard_abort of int

val rtype_tag : rtype -> int

val rtype_label : rtype -> string
(** ["read"], ["txn_commit"], …: a constant string per constructor. *)

val carries_op : rtype -> bool
(** The payload is an encoded service op: [Read], [Write], [Original],
    [Txn_op]. The other payloads are protocol envelopes (op counts,
    prepared branches, reshard envelopes and maps). *)

val changes_state : rtype -> bool
(** A committed request of this type applies its op to the service
    state: [Write], [Original], [Txn_op]. *)

val pp_rtype : Format.formatter -> rtype -> unit
val encode_rtype : Grid_codec.Wire.Encoder.t -> rtype -> unit
val decode_rtype : Grid_codec.Wire.Decoder.t -> rtype

(** Causal trace context carried inside the request across process
    boundaries: the trace id shared by every span of one end-to-end
    request and the span id the next hop parents its spans under.
    [tid = 0] means untraced. *)
type trace_ctx = { tid : int; parent : string }

val no_trace : trace_ctx

(** A client request. [payload] is the service operation, already encoded
    by the service codec; the replication layer never interprets it. *)
type request = {
  id : Grid_util.Ids.Request_id.t;
  rtype : rtype;
  payload : string;
  trace : trace_ctx;
}

val pp_request : Format.formatter -> request -> unit
val encode_request : Grid_codec.Wire.Encoder.t -> request -> unit
val decode_request : Grid_codec.Wire.Decoder.t -> request

type status =
  | Ok
  | Txn_aborted
      (** transaction rolled back (explicit abort, conflict, or leader switch) *)
  | Txn_conflict  (** first-committer-wins conflict at commit *)
  | Retry
      (** the replica lost leadership while holding this request; the
          client should retransmit (it will reach the new leader) rather
          than wait out its retry timer *)
  | Overloaded of { retry_after_ms : float }
      (** the leader's admission window is full and the request was shed
          before entering the queue; the client should back off for at
          least [retry_after_ms] before retransmitting *)
  | Wrong_epoch of { epoch : int; map : string }
      (** the request touched a key this group no longer (or does not
          yet) own: the partition map moved under the client. [map] is
          the group's current encoded partition map at [epoch]; the
          router adopts it and re-routes (DESIGN.md §17). Final — a
          retransmission to the same group can never succeed *)

val pp_status : Format.formatter -> status -> unit
val status_tag : status -> int

(** Whether a reply with this status completes the request at the client.
    [Retry] and [Overloaded] are pushback: the request stays pending and
    will be retransmitted, so checkers must not count such replies as
    completions. *)
val status_is_final : status -> bool
val encode_status : Grid_codec.Wire.Encoder.t -> status -> unit
val decode_status : Grid_codec.Wire.Decoder.t -> status

type reply = { req : Grid_util.Ids.Request_id.t; status : status; payload : string }

val pp_reply : Format.formatter -> reply -> unit
val encode_reply : Grid_codec.Wire.Encoder.t -> reply -> unit
val decode_reply : Grid_codec.Wire.Decoder.t -> reply

(** The state shipped inside an accepted proposal (§3.3). [Full] carries
    the whole encoded service state; [Delta] a service-specific diff
    against the previous committed state; [Witness] only the
    determinization information needed to re-execute the request
    deterministically at every replica (the paper's first
    overhead-reduction option). *)
type state_update = Full of string | Delta of string | Witness of string

val pp_state_update : Format.formatter -> state_update -> unit
val state_update_size : state_update -> int
val encode_state_update : Grid_codec.Wire.Encoder.t -> state_update -> unit
val decode_state_update : Grid_codec.Wire.Decoder.t -> state_update

(** One value proposed/accepted in a consensus instance: the request
    batch (singleton outside T-Paxos), the state after executing it, and
    the replies produced. This tuple is the paper's [<req, state>]; we
    additionally replicate the replies so that after a leader switch the
    new leader can re-answer duplicate requests it never executed. *)
type proposal = { requests : request list; update : state_update; replies : reply list }

val encode_proposal : Grid_codec.Wire.Encoder.t -> proposal -> unit
val decode_proposal : Grid_codec.Wire.Decoder.t -> proposal

(** A log entry carried in recovery messages. *)
type recovery_entry = { instance : int; ballot : Ballot.t; proposal : proposal }

type msg =
  | Client_req of request
  | Reply_msg of reply
  | Prepare of { ballot : Ballot.t; commit_point : int }
      (** New leader's multi-instance prepare; [commit_point] tells
          replicas which entries the leader already knows committed. *)
  | Prepare_ack of {
      ballot : Ballot.t;
      commit_point : int;  (** the follower's committed prefix *)
      snapshot : string option;
          (** encoded snapshot, present iff the follower is ahead of the
              leader's [commit_point] *)
      accepted : recovery_entry list;
          (** accepted-but-not-committed entries above both commit points *)
    }
  | Accept of { ballot : Ballot.t; instance : int; proposal : proposal }
  | Accept_ack of { ballot : Ballot.t; instance : int }
  | Reject of { promised : Ballot.t }
      (** Nack carrying the higher promise that caused the rejection. *)
  | Commit of { ballot : Ballot.t; instance : int }
  | Read_confirm of {
      ballot : Ballot.t;
      req : Grid_util.Ids.Request_id.t;
      lease_anchor : float;
    }
      (** X-Paxos: follower confirms leadership to the highest-ballot
          holder it has accepted, naming the read it saw. [lease_anchor]
          piggybacks a lease renewal: the [sent_at] of the leader
          heartbeat the sender's current grant is anchored to ([nan] when
          it holds no grant or leases are disabled). *)
  | Heartbeat of {
      round_seen : int;
      commit_point : int;
      promised : Ballot.t;
      sent_at : float;
          (** sender's local clock at send time; followers anchor lease
              grants to the leader's [sent_at] so expiry can be compared
              leader-clock against leader-clock *)
      lease_anchor : float;
          (** grant echo, as in [Read_confirm]; [nan] when none *)
    }
  | Catchup_req of { from_instance : int }
  | Catchup of { snapshot : string }
  | Sp_estimate of {
      instance : int;
      round : int;
      estimate : (proposal * int) option;  (** locked value and its round *)
    }
      (** Semi-passive replication (Défago et al., §5 related work): lazy
          consensus with a rotating coordinator, per instance. *)
  | Sp_propose of { instance : int; round : int; proposal : proposal }
  | Sp_ack of { instance : int; round : int }
  | Sp_decide of { instance : int; proposal : proposal }

val msg_tag : msg -> int
(** Stable on-wire constructor tag, shared by every codec version;
    never renumbered. *)

(** The message codec, wire protocol version 1: the seed's unversioned
    encoding, kept byte-identical so every build since the seed can talk
    to this one. The TCP transport reaches it through {!Wire_codec},
    which adds typed decode errors. *)

val encode_msg : Grid_codec.Wire.Encoder.t -> msg -> unit
val decode_msg : Grid_codec.Wire.Decoder.t -> msg

(** Approximate wire sizes, for the simulator's bandwidth model: payload
    bytes plus a small fixed header per field. *)

val request_size : request -> int
val reply_size : reply -> int
val proposal_size : proposal -> int
val msg_size : msg -> int

val msg_kind : msg -> string
(** Short stable tag per constructor, for metrics and message counting. *)

val all_msg_kinds : string list
(** Every {!msg_kind} value, in tag order — for metric registration. *)

val pp_msg : Format.formatter -> msg -> unit

(** Timers a replica can arm. Timers are never cancelled explicitly:
    handlers re-check state and ignore stale firings, which keeps driver
    plumbing trivial. *)
type timer =
  | Hb_tick  (** periodic heartbeat broadcast *)
  | Suspicion_tick  (** periodic liveness evaluation *)
  | Stability_check of int
      (** candidate hold-down started while observing this round *)
  | Accept_retry of int  (** instance number *)
  | Prepare_retry of int  (** ballot round *)
  | Exec_done of int  (** execution-cost token *)
  | Client_retry of int  (** client-side retransmission, by sequence *)
  | Sp_round_timeout of int * int
      (** semi-passive replication: (instance, round) suspicion timeout *)

val pp_timer : Format.formatter -> timer -> unit

type input = Receive of { src : int; msg : msg } | Timer of timer

(** Node-id convention: replicas occupy [0 .. n-1] within their group
    (shifted by a per-group node base when several groups share one
    network); client [c] is node [client_node_base + c]. Drivers and
    engines share this mapping. *)

val client_node_base : int
val client_node : Grid_util.Ids.Client_id.t -> int
val node_is_client : int -> bool
val client_of_node : int -> Grid_util.Ids.Client_id.t

type action =
  | Send of { dst : int; msg : msg }
  | After of { delay : float; timer : timer }
  | Note of string  (** trace hint; drivers may log or ignore *)

val send : dst:int -> msg -> action
val after : delay:float -> timer -> action
val pp_action : Format.formatter -> action -> unit
