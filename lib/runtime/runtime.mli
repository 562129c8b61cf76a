(** Simulation runtime: wires replica and client step machines into the
    discrete-event simulator, drives closed-loop workloads, and exposes
    crash/recovery controls. One [Make (S)] instantiation simulates one
    replicated service; all randomness derives from the creation seed,
    so runs are reproducible. *)

(** A typed request: what {!Make.submit_item} and the [_ops] workload
    drivers consume instead of raw [(rtype, payload)] pairs. Encoding to
    the wire representation happens inside the runtime, so services and
    workloads never touch payload strings. *)
type 'op item =
  | Do of 'op  (** replicate; coordination class from [S.classify] *)
  | Unreplicated of 'op  (** the paper's uncoordinated baseline *)
  | In_txn of int * 'op  (** T-Paxos: operation inside transaction [tid] *)
  | Commit_txn of { tid : int; ops : int }
      (** close transaction [tid] after [ops] operations *)
  | Abort_txn of int

module Make (S : Grid_paxos.Service_intf.S) : sig
  module R : module type of Grid_paxos.Replica.Make (S)

  type t

  val create :
    ?seed:int ->
    ?trace:bool ->
    ?trace_capacity:int ->
    ?attach:Grid_sim.Engine.t * Grid_paxos.Types.msg Grid_sim.Network.t ->
    ?obs:Grid_obs.Span.Recorder.t ->
    ?node_base:int ->
    ?shard:int ->
    ?watchdog:Grid_obs.Watchdog.t ->
    cfg:Grid_paxos.Config.t ->
    scenario:Scenario.t ->
    unit ->
    t
  (** Build the cluster described by [scenario] (its replica count
      overrides [cfg.n]), register the replicas on the simulated network
      and arm their bootstrap timers. With [trace:true] every replica and
      client records request-lifecycle spans, message sends and notes into
      one shared {!Grid_obs.Span.Recorder} (ring buffer of
      [trace_capacity] events, default 65536).

      [attach] hosts this group on an existing engine/network instead of
      creating its own — the sharded runtime places k groups on one
      simulation this way. [node_base] (default 0) offsets the group's
      replica ids in the shared node space; [shard] tags the group's
      span actors with an ["s<k>/"] prefix; [obs] shares a recorder
      across groups (overriding [trace]/[trace_capacity]).

      [watchdog] is the sink for the replicas' online invariant checks
      ({!Grid_obs.Watchdog}); by default the runtime creates its own,
      registered in {!metrics} and honouring
      [cfg.watchdog_fail_stop]. The sharded runtime passes one sink to
      all groups so the lease mutual-exclusion view spans shards. *)

  (** {1 Accessors} *)

  val engine : t -> Grid_sim.Engine.t
  val network : t -> Grid_paxos.Types.msg Grid_sim.Network.t
  val config : t -> Grid_paxos.Config.t
  val scenario : t -> Scenario.t

  val obs : t -> Grid_obs.Span.Recorder.t
  (** The structured event stream: lifecycle spans, message events and
      notes. Empty unless created with [~trace:true] (or an enabled
      [obs]). *)

  val metrics : t -> Grid_obs.Metrics.t
  (** Registry with request/reply/message counters and the closed-loop
      latency histogram; always live (metrics are cheap). *)

  val watchdog : t -> Grid_obs.Watchdog.t
  (** The online invariant sink the replicas report to. Green runs keep
      every counter at zero; a planted bug (e.g. [cfg.disable_dedup])
      fires it. *)

  val replica : t -> int -> R.t
  val node_base : t -> int
  val now : t -> float

  (** {1 Clients} *)

  val add_client :
    t ->
    id:int ->
    ?machine_share:int ->
    ?light:bool ->
    ?on_reply:(Grid_paxos.Types.reply -> unit) ->
    unit ->
    Grid_paxos.Client.t
  (** Register a client node. [machine_share] scales its per-message CPU
      costs to model several client processes sharing one host. Client
      ids must be unique across every group sharing one network.

      [light:true] (default false) registers the client in O(1) for
      session pools: zero per-message CPU cost and no per-replica link
      records — its messages ride the network's default latency, which
      {!Session.Make.create} points at the scenario's client link. *)

  val set_on_reply : t -> Grid_paxos.Client.t -> (Grid_paxos.Types.reply -> unit) -> unit

  val submit :
    t ->
    Grid_paxos.Client.t ->
    ?trace:int * string ->
    Grid_paxos.Types.rtype ->
    payload:string ->
    [ `Busy | `Submitted ]
  (** Issue a pre-encoded request through the client engine. The client
      is closed-loop: if it still has a request outstanding the submit
      returns [`Busy] and nothing is sent — drivers react (defer, pick
      another session, count a drop) instead of crashing. Prefer
      {!submit_op}/{!submit_item}, which keep payload encoding inside
      the runtime.

      [trace] is an upstream [(trace id, parent span id)] — the shard
      router passes its [Route] span here so the whole cross-shard
      request stitches into one tree. *)

  val submit_op : t -> Grid_paxos.Client.t -> S.op -> [ `Busy | `Submitted ]
  (** Typed entry point: classify via [S.classify], encode via
      [S.encode_op], and submit. Equivalent to [submit_item t c (Do op)]. *)

  val submit_item :
    t -> Grid_paxos.Client.t -> ?trace:int * string -> S.op item -> [ `Busy | `Submitted ]

  val try_submit_item :
    t -> Grid_paxos.Client.t -> ?trace:int * string -> S.op item -> [ `Busy | `Submitted ]
  (** Alias of {!submit_item}. *)

  (** {1 Failure control} *)

  val crash_replica : t -> int -> unit
  val recover_replica : t -> int -> unit
  (** Restart the replica's volatile state and re-arm its timers; timers
      from the previous incarnation are discarded. *)

  val replica_up : t -> int -> bool

  (** {1 Running} *)

  val run_until : t -> float -> unit
  val leader : t -> int option
  (** First live replica that believes it leads. *)

  val await_leader : ?max_wait:float -> t -> int option
  (** Step the engine until a leader exists (or [max_wait] simulated ms
      pass; default 10 s). *)

  (** {1 Closed-loop workloads}

      Mirrors the paper's methodology (§4): after the leader is elected,
      all clients start at the same instant and each sends its next
      request only after receiving the reply to the previous one. *)

  type record = {
    rec_client : int;
    rec_seq : int;  (** per-client completion index, 1-based *)
    rec_rtype : Grid_paxos.Types.rtype;
    rec_status : Grid_paxos.Types.status;
    rec_latency : float;  (** ms *)
  }

  type results = {
    records : record list;  (** completion order *)
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
    gen:
      (client:int -> unit -> (Grid_paxos.Types.rtype * string) option) ->
    t ->
    results
  (** Run the workload to completion. [gen ~client] is invoked once per
      client and must yield that client's successive requests; it must
      supply at least [requests_per_client] items. Raises [Failure] if
      the system stalls past [max_sim_ms] (default 600 s) of simulated
      time. *)

  val run_closed_loop_ops :
    ?max_sim_ms:float ->
    clients:int ->
    requests_per_client:int ->
    gen:(client:int -> unit -> S.op item option) ->
    t ->
    results
  (** Typed-generator front end to {!run_closed_loop}: items are encoded
      by the runtime, so generators deal only in [S.op]. *)

  (** {1 Introspection} *)

  val message_counts : t -> (string * int) list
  (** Messages sent by engine actions, by {!Grid_paxos.Types.msg_kind},
      since creation or the last {!reset_message_counts}. *)

  val reset_message_counts : t -> unit
end
