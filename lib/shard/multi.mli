(** The sharded runtime: k independent replica groups over one shared
    simulation, and a router dispatching each client request to the group
    owning its footprint keys.

    Each group runs the full single-group protocol stack unchanged
    (basic / X-Paxos / T-Paxos); groups never exchange messages. The
    router rejects cross-shard operations with a typed error — the
    single-shard restriction (DESIGN.md §11). *)

module Make (S : Grid_paxos.Service_intf.S) : sig
  module Group : module type of Grid_runtime.Runtime.Make (S)

  type t

  type client
  (** A logical client: one protocol engine per group (each with a
      globally unique client id), closed loop across all of them. *)

  val create :
    ?seed:int ->
    ?trace:bool ->
    ?trace_capacity:int ->
    ?spec:Partition.spec ->
    ?route:(S.op -> string list) ->
    ?watchdog:Grid_obs.Watchdog.t ->
    cfg:Grid_paxos.Config.t ->
    scenario:Grid_runtime.Scenario.t ->
    shards:int ->
    unit ->
    t
  (** Build [shards] groups of [scenario.n] replicas each on one shared
      engine/network. Group [g] occupies global nodes
      [g*n .. g*n + n - 1]; its spans are tagged ["s<g>/"] in the shared
      recorder and its counters live in a per-group registry
      ({!metrics}). [route] maps an operation to its partition keys and
      defaults to [S.footprint]; services whose footprint understates
      routing (e.g. a global read with an empty conflict footprint)
      supply their own (see {!Grid_services.Kv_store.route}).

      [watchdog] (default: a fresh enabled sink) is shared by every
      group, so one violation count covers the whole sharded service and
      the lease mutual-exclusion view spans shards. *)

  (** {1 Accessors} *)

  val engine : t -> Grid_sim.Engine.t
  val network : t -> Grid_paxos.Types.msg Grid_sim.Network.t
  val obs : t -> Grid_obs.Span.Recorder.t

  val watchdog : t -> Grid_obs.Watchdog.t
  (** The shared online-invariant sink (zero on green runs). *)

  val partition : t -> Partition.t
  val shards : t -> int

  val group : t -> int -> Group.t
  (** The underlying single-group runtime for shard [g] — replicas,
      leader, message counts, everything the single-group API exposes. *)

  val metrics : t -> shard:int -> Grid_obs.Metrics.t
  val now : t -> float

  (** {1 Clients and routing} *)

  val add_client :
    t ->
    id:int ->
    ?machine_share:int ->
    ?on_reply:(Grid_paxos.Types.reply -> unit) ->
    unit ->
    client
  (** Register a logical client. Logical ids must be unique; the
      underlying per-group client ids are [id * shards + g]. *)

  val set_on_reply : t -> client -> (Grid_paxos.Types.reply -> unit) -> unit

  type submit_error = [ Partition.error | `Busy ]

  val pp_submit_error : Format.formatter -> submit_error -> unit

  val try_submit_item :
    t -> client -> S.op Grid_runtime.Runtime.item -> (int, submit_error) result
  (** Route the item by its footprint keys and submit it to the owning
      group; returns that group's shard id. Empty footprints route to
      shard 0 (deviation: the op conflicts with nothing, so any single
      group may serve it). Transaction items pin their [tid] to the
      first operation's shard; commit/abort follow the pin. Cross-shard
      operations return [`Cross_shard]/[`All_shards] without submitting
      anything.

      When the shared recorder is enabled, each successful submit records
      a router [Route] span with a deterministic nonzero trace id
      ([logical id * 1e6 + submission count + 1]) and threads it into the
      per-shard protocol client, so every span of the request — router,
      client, leader, followers — shares one trace id and parents into
      one tree ({!Grid_obs.Lifecycle.trace_tree}). *)

  val submit_item : t -> client -> S.op Grid_runtime.Runtime.item -> int
  (** {!try_submit_item}, raising [Invalid_argument] on any error. *)

  val try_submit_op : t -> client -> S.op -> (int, submit_error) result
  val submit_op : t -> client -> S.op -> int

  val pinned_txns : client -> int
  (** Open-transaction pins held by the router for this logical client.
      Bounded by the number of genuinely open transactions: commits and
      aborts release their pin once submitted. Each pin also records the
      partition-map epoch at pin time: if the map moves while the
      transaction is open, further ops follow the pin (the pinned group
      completes the transaction against the old epoch or answers
      [Wrong_epoch] at commit) rather than straddling epochs. *)

  val redirect_count : client -> int
  (** Transparent [Wrong_epoch] resubmissions performed on this client's
      behalf. A redirected request counts once per hop; the caller saw
      none of them. *)

  (** {1 Cross-shard transactions (2PC over per-group T-Paxos)}

      The coordinator is client-side and unreplicated; crash safety
      comes from both the prepare votes and the final decision being
      consensus instances in each participant group's log (DESIGN.md
      §16). The home group — lowest participant shard — is the commit
      point: the transaction committed iff the COMMIT decision committed
      there. *)

  type xresult = X_committed | X_aborted | X_conflict

  val pp_xresult : Format.formatter -> xresult -> unit

  val cross_tid_base : int
  (** Cross-shard transaction ids live at and above this value — a
      namespace disjoint from per-client single-shard tids, allocated
      from a monotone per-runtime counter. *)

  val is_cross_tid : int -> bool

  val alloc_cross_tid : t -> int

  val submit_cross_txn :
    ?tid:int ->
    t ->
    client ->
    ops:S.op list ->
    on_done:(xresult -> unit) ->
    int
  (** Run one cross-shard transaction over [ops] (routed per op by
      footprint; at least one op required) and return its tid. Phases:
      per-shard branch execution, prepare fan-out, then the decision
      ([drive_decision] order: home first on commit). [on_done] fires
      once every participant has acknowledged the decision. The client's
      per-shard handles must all be idle; its [on_reply] callback is
      borrowed for the duration and restored before [on_done]. Raises
      [Invalid_argument] on an unroutable op, an empty [ops], or a busy
      handle. *)

  val recover_cross_txn :
    t -> client -> tid:int -> shards:int list -> on_done:(xresult -> unit) -> unit
  (** Presumed-abort recovery for an abandoned coordinator: probe the
      home (lowest) shard with an abort; [Ok] back means the COMMIT
      decision had already committed there, so the commit is completed
      at the remaining participants — anything else aborts them. Safe to
      race with the original coordinator (decision tombstones resolve
      the loser); use a fresh logical client. *)

  (** Raw per-shard submissions for deterministic engine-level tests:
      the caller places ops and drives phases itself. *)

  val submit_txn_op :
    t -> client -> shard:int -> tid:int -> S.op -> [ `Busy | `Submitted ]

  val submit_prepare :
    t -> client -> shard:int -> tid:int -> ops:int -> [ `Busy | `Submitted ]

  val submit_decision :
    t -> client -> shard:int -> tid:int -> commit:bool -> [ `Busy | `Submitted ]

  (** {1 Elastic resharding (DESIGN.md §17)}

      Online shard split/merge with snapshot handoff. The migration
      coordinator is client-side and unreplicated, like the 2PC
      coordinator above; crash safety comes from every protocol step
      being a consensus instance in a participant group's log. The
      {e source} group is the commit point: the reshard committed iff
      the COMMIT decision committed in the source's log. Clients that
      hit a moved range receive a typed [Wrong_epoch] redirect carrying
      the committed map; the router adopts it and transparently
      resubmits plain operations (see {!redirect_count}). *)

  type rresult = R_committed | R_aborted of string

  val split_shard :
    t ->
    client ->
    cut:string ->
    target:int ->
    on_done:(rresult -> unit) ->
    (unit, Partition.reshard_error) result
  (** Insert [cut] into the owning interval and migrate the right half
      [[cut, hi)] to group [target]: FREEZE at the source, export the
      committed slice, INSTALL at the target, COMMIT at the source (the
      commit point — the router adopts the successor map here), COMMIT
      at the target. [on_done] fires when the target acknowledged its
      COMMIT (commit path) or the source acknowledged the rollback ABORT
      (abort path). [Error] means the plan itself is invalid (hash map,
      bad cut, bad target) and nothing was submitted. The client's
      handles must all be idle; they are borrowed for the duration.
      Raises [Invalid_argument] on a busy handle. *)

  val merge_shards :
    t ->
    client ->
    cut:string ->
    on_done:(rresult -> unit) ->
    (unit, Partition.reshard_error) result
  (** Remove the cut point [cut]; the left interval's owner absorbs the
      right interval via the same FREEZE/INSTALL/COMMIT protocol. When
      both sides already share an owner the epoch still advances but no
      data moves: the map is adopted directly and [on_done R_committed]
      fires synchronously. *)

  val recover_reshard :
    t ->
    client ->
    epoch:int ->
    source:int ->
    target:int ->
    on_done:(rresult -> unit) ->
    unit
  (** Presumed-abort recovery for an abandoned reshard coordinator:
      probe the source with an ABORT for [epoch]. If the source already
      committed the epoch it answers [Ok] carrying the committed map —
      the reshard committed, so the COMMIT is completed at the target
      and the router adopts the map. Anything else rolls the freeze
      back. Safe to race with the original coordinator (epoch
      tombstones make the loser's requests idempotent); use a fresh
      logical client. *)

  val submit_reshard :
    t ->
    client ->
    shard:int ->
    Grid_paxos.Types.rtype ->
    payload:string ->
    [ `Busy | `Submitted ]
  (** Raw reshard-instance submission for deterministic engine-level
      tests: the caller drives FREEZE/INSTALL/COMMIT/ABORT itself (and
      the router's map is not touched). *)

  (** {1 Failure control (per group)} *)

  val crash_replica : t -> shard:int -> int -> unit
  val recover_replica : t -> shard:int -> int -> unit
  val replica_up : t -> shard:int -> int -> bool

  (** {1 Running} *)

  val run_until : t -> float -> unit

  val await_leaders : ?max_wait:float -> t -> int array option
  (** Step the engine until every group has a leader; [None] if any
      group fails within [max_wait] simulated ms (default 10 s per
      group). *)

  (** {1 Aggregate closed-loop workload}

      All logical clients start at the same instant; each keeps one
      request outstanding. The router spreads requests across groups, so
      k disjoint keyspaces drive k depth-one pipelines concurrently. *)

  type record = {
    rec_client : int;
    rec_shard : int;  (** group that served the request *)
    rec_seq : int;
    rec_rtype : Grid_paxos.Types.rtype;
    rec_status : Grid_paxos.Types.status;
    rec_latency : float;
  }

  type results = {
    records : record list;
    started_at : float;
    finished_at : float;
    total_completed : int;
  }

  val latencies : ?filter:(record -> bool) -> results -> float array
  val throughput_rps : results -> float

  val run_closed_loop :
    ?max_sim_ms:float ->
    clients:int ->
    requests_per_client:int ->
    gen:(client:int -> unit -> S.op Grid_runtime.Runtime.item option) ->
    t ->
    results
  (** Raises [Failure] if a generator yields an unroutable item or the
      system stalls past [max_sim_ms] (default 600 s) of simulated
      time. *)
end
