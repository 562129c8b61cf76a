(** The replicated-service process: one engine implementing the paper's
    three coordination paths plus leader election and recovery.

    - {b Basic protocol} (§3.3) for [Write] requests: the leader executes
      the request, then runs the accept phase for the tuple
      ⟨request, resulting state⟩; pipeline depth is one (instance [i] is
      proposed only after [i−1] commits), so the chosen sequence has no
      gaps. Requests that queue while an instance is in flight are
      folded into the next instance as a batch (bounded by
      [Config.max_batch]) — the decided value is ⟨batch, state after the
      batch⟩, preserving the no-gap rule while letting throughput scale
      with concurrent clients. Followers adopt the shipped state when
      the instance commits.
    - {b X-Paxos} (§3.4) for [Read] requests: every replica that receives
      the read sends a confirm to the holder of the highest ballot it has
      accepted; the leader executes the read against its latest committed
      state in parallel and replies once a majority (counting itself) has
      confirmed. With [Config.lease_ms > 0] a lease fast path sits on
      top: followers grant a time-bounded lease on heartbeat receipt and
      piggyback renewals on their own heartbeats and read-confirms; while
      the leader holds unexpired grants from a majority it answers reads
      after execution alone — zero protocol messages — falling back to
      the confirm round when the lease lapses. Granting followers refuse
      to promise to other candidates until their grant expires (and a
      recovered replica sits out one full lease), which is what makes the
      local read linearizable under the configured clock-skew bound.
    - {b T-Paxos} (§3.5) for transactions: operations inside a
      transaction execute immediately on a leader-local branch and are
      answered without coordination; the commit rebases the branch onto
      the current committed state (deterministic replay via witnesses),
      checks first-committer-wins conflicts on service footprints, and
      runs one accept phase for the whole batch. A leader switch aborts
      in-flight transactions (§3.6).
    - [Original] requests are the unreplicated baseline: executed and
      answered by the leader with no coordination.

    Leader election is Ω-style: heartbeats, a suspicion timeout, and a
    stability hold-down before a takeover. A new leader runs a
    multi-instance prepare: followers return their accepted-but-
    uncommitted entries and (if ahead) a snapshot; the leader installs
    the highest snapshot, re-proposes surviving entries under its ballot,
    and only then serves new requests.

    The engine is a pure step machine: all I/O happens through the
    returned {!Types.action} lists, and all nondeterminism comes from the
    seeded RNG and the [~now] argument. *)

module Make (S : Service_intf.S) : sig
  type t

  val create :
    cfg:Config.t ->
    id:int ->
    ?storage:Storage.t ->
    ?seed:int ->
    ?obs:Grid_obs.Span.Recorder.t ->
    ?actor:string ->
    ?watchdog:Grid_obs.Watchdog.t ->
    unit ->
    t
  (** [seed] initializes the replica-local RNG handed to the service
      (defaults to a function of [id]). [obs] receives request-lifecycle
      spans ({!Grid_obs.Span.phase}); defaults to the shared disabled
      recorder, in which case instrumentation costs one branch per site.
      [actor] overrides the span label (default ["r<id>"]; sharded
      runtimes pass ["s<g>/r<id>"]). [watchdog] is the shared sink the
      replica's online invariant checks (duplicate commit, lost ack,
      stale read, lease mutual exclusion) report to; defaults to the
      disabled sink, one branch per check. *)

  val bootstrap : t -> Types.action list
  (** Initial timers (heartbeat and suspicion ticks). Call once before
      feeding inputs. *)

  val handle : t -> now:float -> Types.input -> Types.action list
  (** A client request whose payload the service cannot decode is
      refused on arrival with a final [Txn_aborted] reply; it takes no
      queue slot and no dedup entry. *)

  val restart : t -> now:float -> Types.action list
  (** Simulate a crash-recovery that loses volatile state: leadership,
      candidacies, pending reads and transactions are dropped; the log,
      promise and committed state (the durable part) survive. Returns the
      bootstrap timers. *)

  val load : t -> Storage.persisted -> unit
  (** Install a persisted image (from {!Storage.file} or
      {!Storage.memory}) into a freshly created replica. *)

  (** {1 Introspection} *)

  val id : t -> int
  val is_leader : t -> bool
  val ballot : t -> Types.Ballot.t
  val promised : t -> Types.Ballot.t
  val commit_point : t -> int
  val state : t -> S.state
  (** Latest committed service state. *)

  val leader_view : t -> int option
  (** Whom this replica would confirm reads to (holder of its promise). *)

  val holds_lease : t -> now:float -> bool
  (** Leader only: unexpired lease grants from a majority (counting
      itself) at [now] on its own clock — reads dispatched now take the
      local fast path. Always [false] when [Config.lease_ms = 0]. *)

  val committed_requests : t -> Types.request list
  (** Requests in committed instance order (requires
      [cfg.record_history]; empty otherwise). *)

  val committed_updates : t -> (int * Types.request list * string) list
  (** Per committed instance: the requests and the encoded service state
      after applying it (requires [cfg.record_history]). For the
      agreement checker. *)

  val stats_shed : t -> int * int
  (** Requests shed with [Overloaded] while leading: [(reads, writes)].
      Both [0] unless [Config.max_inflight]/[max_queue] bound admission. *)

  val queue_depth : t -> int
  (** Leader only: writes and transaction commits waiting in the pending
      queue ([0] on followers). The admission window compares this
      against [Config.max_queue]. *)

  val prepared_txns : t -> int list
  (** Cross-shard transaction ids whose 2PC prepare committed in this
      group's log but whose commit/abort decision has not, ascending.
      Replica-level (followers track it too): a failover leader honours
      the votes of its predecessor. *)

  val txn_outcome : t -> int -> bool option
  (** Decision tombstone for a cross-shard transaction id: [Some true] if
      the commit decision committed here, [Some false] for an abort,
      [None] if undecided (or pruned long after deciding). *)

  val reads_inflight : t -> int
  (** Leader only: reads held awaiting confirmation or execution ([0] on
      followers). Compared against [Config.max_inflight]. *)

  (** {2 Elastic resharding (DESIGN.md §17)} *)

  val reshard_epoch : t -> int
  (** Highest committed partition-map epoch ([0] before any reshard). *)

  val reshard_phase : t -> string
  (** Migration phase as derived from committed instances: ["idle"],
      ["frozen"] (a committed FREEZE awaits its decision) or
      ["installing"] (a committed INSTALL awaits its decision). *)

  val moved_ranges : t -> int
  (** Key ranges this group handed away — requests touching them are
      answered with [Wrong_epoch]. *)

  val imported_items : t -> int
  (** Total service items absorbed through committed INSTALLs (the
      [export_range] counts), for admin/metrics. *)
end
