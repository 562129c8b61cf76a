(** Request-lifecycle analysis over recorded {!Span.event} traces.

    Reconstructs per-request timelines and the paper's latency
    decomposition (§3.4): [M] = client→leader WAN hop, [E] = execution
    at the leader, [2m] = the propose→accept-quorum LAN round trip.
    Basic writes cost 2M + E + 2m; X-Paxos reads skip the accept round
    entirely (their timelines have no [Propose]/[Accept_quorum] phases),
    matching 2M + max(E, m). *)

module Ids := Grid_util.Ids

type protocol = Basic | Xpaxos_read | Leased_read | Tpaxos | Unreplicated | Unknown

val protocol_name : protocol -> string

type timeline = {
  req : Ids.Request_id.t;
  protocol : protocol;
  spans : Span.event list;  (** this request's span events, in time order *)
  phases : (Span.phase * float) list;
      (** first occurrence time of each recorded phase, lifecycle order *)
}

type breakdown = {
  m_wan : float;  (** M: client_send → leader_receive; [nan] if unrecorded *)
  exec : float;  (** E: leader_receive → apply; [nan] if unrecorded *)
  m_lan2 : float;  (** 2m: propose → accept_quorum; [nan] for reads *)
  total : float;  (** client_send → reply *)
}

val timelines : Span.event list -> timeline list
(** Group a trace into per-request timelines, ordered by first
    appearance. *)

val find : Span.event list -> Ids.Request_id.t -> timeline option
val phase_time : timeline -> Span.phase -> float option
val completed : timeline -> bool

val breakdown : timeline -> breakdown option
(** [None] unless both [Client_send] and [Reply] were recorded. *)

type phase_stats = {
  protocol : protocol;
  count : int;
  mean_m_wan : float;
  mean_exec : float;
  mean_m_lan2 : float;
  mean_total : float;
}

val phase_stats : Span.event list -> phase_stats list
(** Mean per-phase latency by protocol class, over completed requests.
    Component means skip requests that never recorded that component. *)

val slowest : ?n:int -> Span.event list -> (timeline * breakdown) list
(** The [n] (default 10) completed requests with the largest total
    latency, slowest first. *)

val message_counts : Span.event list -> (string * string * int) list
(** [(actor, msg kind, count)] triples, sorted by actor then kind. *)

(** {1 Stitched trace trees}

    One causal trace = every span event sharing a nonzero trace id,
    across shard/actor boundaries; edges come from the recorded
    [parent] span ids. *)

type tree = { event : Span.event; id : string; children : tree list }

val trace_id_of : Span.event list -> Ids.Request_id.t -> int option
(** The trace id of a request, from its first traced span. *)

val trace_tree : Span.event list -> tid:int -> tree list
(** The stitched tree(s) of one trace: spans time-sorted, children
    attached to the first event bearing their parent's span id; spans
    whose parent is empty or unresolvable become roots. *)

(** {1 Tail attribution} *)

type attribution = {
  a_protocol : protocol;
  a_count : int;  (** completed requests of this class *)
  a_tail : int;  (** requests at/above the threshold *)
  a_threshold : float;  (** the [pct] percentile of total latency, ms *)
  a_segments : (string * float) list;
      (** consecutive phase-to-phase segment -> mean duration (ms) over
          the tail requests, largest first *)
}

val tail_attribution : ?pct:float -> Span.event list -> attribution list
(** Which segment dominates tail latency per protocol class: over the
    completed requests whose total latency is at or above the [pct]
    (default 99) percentile for their class. *)

val pp_breakdown : Format.formatter -> breakdown -> unit
val pp_timeline : Format.formatter -> timeline -> unit
val pp_phase_stats : Format.formatter -> phase_stats list -> unit
val pp_tree : Format.formatter -> tree list -> unit
val pp_attribution : Format.formatter -> attribution list -> unit
