(** Randomized-schedule state-space exploration of the protocol engines,
    with a cross-layer nemesis.

    A scheduler owns the message pool (FIFO per directed pair, as with
    TCP) and the timer set, and drives the replicas through interleavings
    far more adversarial than latency-ordered simulation. On top of the
    schedule itself, a {!nemesis} injects:

    - {b crashes and recoveries} at any step — recovery is
      crash-consistent: the replica is rebuilt from its persisted image
      via {!Grid_paxos.Replica.Make.load}, not from the in-memory object;
    - {b torn persists}: a crash can instead be armed to strike inside
      the victim's next storage write ({!Grid_paxos.Storage.Crashed}),
      so the record is lost and the engine step never completes;
    - {b metadata loss}: commit-point and snapshot records silently
      dropped on the way to disk (always repairable);
    - {b duplication}: a delivered message is re-enqueued at its
      channel's tail, arriving again later (a retransmission);
    - {b reordering}: a delivery taken from the middle of its channel
      instead of the head (FIFO escape);
    - {b clock drift}: a replica's local clock jumps to a bounded offset
      from virtual time, attacking the leader-lease skew assumption
      (timers are unaffected — they measure durations).

    Client requests travel through the same schedulable channels as
    protocol messages, so the nemesis applies to them too.

    Every fault that fires is recorded in a {!plan} keyed by scheduler
    step. Scheduling choices and fault dice draw from separate RNG
    streams, so {!Make.replay} of a recorded plan rolls no dice and
    reproduces the run exactly; {!Make.shrink} then greedily drops plan
    events to find a minimal failing schedule. *)

(** {1 Fault plans} *)

type fault_event =
  | Crash_at of { step : int; victim : int; torn : bool }
  | Recover_at of { step : int; victim : int }
  | Duplicate_at of { step : int }
  | Reorder_at of { step : int; depth : int }
      (** the delivery at [step] took the element [depth] places behind
          the channel head *)
  | Drift_at of { step : int; victim : int; offset_ms : float }
      (** the victim's clock becomes virtual time + [offset_ms] *)

type plan = fault_event list

val pp_plan : Format.formatter -> plan -> unit

type nemesis = {
  crash_prob : float;
      (** per-step probability of a crash; recovery triggers in the
          [\[crash_prob, 2*crash_prob)] window of the same roll *)
  torn_frac : float;  (** fraction of crashes that are torn persists *)
  dup_prob : float;  (** per-delivery duplication probability *)
  reorder_prob : float;  (** per-delivery FIFO-escape probability *)
  meta_drop_prob : float;
      (** per-persist probability of silently losing a commit-point or
          snapshot record (see {!Grid_paxos.Storage.fault_ctl}) *)
  drift_prob : float;
      (** per-step probability that one replica's clock jumps to a fresh
          offset; dice for it roll only when positive, so plans recorded
          without drift replay unchanged *)
  drift_max_ms : float;  (** drifted offsets are uniform in [-max, +max] *)
}

val shrink_plan : still_fails:(plan -> bool) -> plan -> plan
(** Greedy event removal to a fixed point: drop any event whose removal
    keeps [still_fails] true. The predicate should replay the schedule
    deterministically (see {!Make.replay}). *)

(** {1 Outcomes} *)

type outcome = {
  replies : Grid_paxos.Types.reply list;
  violations : Agreement.violation list;
  durability : string list;
      (** crash-recovery invariant breaches: a revived replica whose
          reloaded state disagrees with the committed prefix the group
          observed, or conflicting committed values across incarnations *)
  stale_reads : string list;
      (** reads whose first reply matches no committed state at or after
          the read's issue-time watermark — i.e. the reply misses writes
          that were committed before the read was issued. This is the
          invariant the leader-lease read fast path must preserve under
          clock drift and leader failovers. *)
  lost_admitted : string list;
      (** admitted-loss oracle breaches: writes acknowledged [Ok] that no
          replica (across incarnations) ever observed committed. A shed
          request never receives [Ok], so admission control cannot mask a
          loss; a non-empty list means pushback broke durability. *)
  admitted_latencies : float array;
      (** virtual-time latency (first injection to first final reply) of
          every request that completed, in completion order. [Overloaded]
          pushback rounds are folded into the eventual completion's
          latency, so a percentile over this array bounds what an
          admitted client actually waited. *)
  committed : int array;  (** commit point per replica at the end *)
  delivered : int;
  timer_fires : int;
  all_replied : bool;
      (** every injected request got a reply by the end of the drain *)
  plan : plan;  (** the faults that actually fired, in order *)
  crashes : int;
  torn_persists : int;
  meta_dropped : int;
  duplicated : int;
  reordered : int;
  drifted : int;  (** clock-drift injections that fired *)
  shed : int;
      (** [Overloaded] replies leaders pushed back (0 unless the config
          bounds admission via [max_inflight]/[max_queue]) *)
  wire_errors : string list;
      (** wire-codec oracle breaches: a delivered message that failed
          the encode → decode roundtrip through
          {!Grid_paxos.Wire_codec}. Every delivery of every run goes
          through the codec, and the destination receives the decoded
          message; non-empty fails the run. *)
  watchdog_violations : int;
      (** online invariant checks ({!Grid_obs.Watchdog}) that fired inside
          the replicas during the run — the runtime mirror of the offline
          oracles, asserted silent on green schedules *)
  watchdog_detail : string list;  (** one line per violation, firing order *)
}

val failed : outcome -> bool
(** Agreement or durability violated, a stale read observed, an admitted
    write lost, or a wire-codec roundtrip failure. *)

module Make (S : Grid_paxos.Service_intf.S) : sig
  module R : module type of Grid_paxos.Replica.Make (S)

  val request : int -> S.op -> int * Grid_paxos.Types.rtype * string
  (** [request client op] builds a typed request triple for [requests]:
      the class comes from [S.classify] and the payload from
      [S.encode_op], so callers never construct wire strings. *)

  val explore :
    ?obs:Grid_obs.Span.Recorder.t ->
    ?seed:int ->
    ?steps:int ->
    ?max_down:int ->
    ?nemesis:nemesis ->
    ?disable_dedup:bool ->
    ?cfg_tweak:(Grid_paxos.Config.t -> Grid_paxos.Config.t) ->
    ?requests:(int * Grid_paxos.Types.rtype * string) list ->
    unit ->
    outcome
  (** Explore one schedule over a 3-replica group. [obs] receives the
      replicas' lifecycle spans, timed on the scheduler's virtual clock —
      deterministic for a given seed. [requests] are
      (client id, rtype, payload) triples; each client's requests are
      injected in order (closed loop) and retransmitted until answered.
      After [steps] scheduling choices the nemesis stops, every replica
      is recovered from storage, and the system is drained so liveness
      can be asserted. [disable_dedup] plants the double-commit bug the
      request-dedup table exists to prevent (for validating that the
      checkers and shrinker catch it). [cfg_tweak] edits the group's
      {!Grid_paxos.Config.t} before the replicas are built — e.g. to
      enable leader leases ([lease_ms]) for the stale-read oracle. *)

  val replay :
    ?obs:Grid_obs.Span.Recorder.t ->
    ?seed:int ->
    ?steps:int ->
    ?max_down:int ->
    ?meta_drop_prob:float ->
    ?disable_dedup:bool ->
    ?cfg_tweak:(Grid_paxos.Config.t -> Grid_paxos.Config.t) ->
    ?requests:(int * Grid_paxos.Types.rtype * string) list ->
    plan:plan ->
    unit ->
    outcome
  (** Re-run a schedule applying faults from [plan] instead of dice.
      With the plan and parameters of a recorded run, the replay is
      exact; with a shrunk plan it is best-effort (events whose
      preconditions no longer hold are skipped). *)

  val shrink :
    ?seed:int ->
    ?steps:int ->
    ?max_down:int ->
    ?meta_drop_prob:float ->
    ?disable_dedup:bool ->
    ?cfg_tweak:(Grid_paxos.Config.t -> Grid_paxos.Config.t) ->
    ?requests:(int * Grid_paxos.Types.rtype * string) list ->
    plan:plan ->
    unit ->
    plan
  (** [shrink ~plan ()] greedily minimizes a failing plan under
      {!replay} with the same parameters, using {!failed} as the
      predicate. *)

  val run :
    ?obs:Grid_obs.Span.Recorder.t ->
    ?seed:int ->
    ?steps:int ->
    ?crash_prob:float ->
    ?max_down:int ->
    ?cfg_tweak:(Grid_paxos.Config.t -> Grid_paxos.Config.t) ->
    ?requests:(int * Grid_paxos.Types.rtype * string) list ->
    unit ->
    outcome
  (** [explore] with only (clean) crash/recovery faults — the historical
      entry point used by the schedule-exploration tests. *)
end
