(** TCP runtime: hosts the same pure protocol engines that run on the
    simulator over real sockets.

    Each node is one thread: its event loop [select]s on the listener,
    every connection and a self-pipe, and owns all socket I/O. Sockets
    are nonblocking, each with an input buffer and an output queue.
    Other threads (a {!Make.call_op} caller, test accessors) reach the
    loop through a thunk queue and the self-pipe. Peers are dialed
    lazily; sends to a node use its newest connection, and replies to
    clients travel back over the connection the client dialed in on.

    [select] cannot watch an fd at or above FD_SETSIZE (1024): a
    connection accepted onto one is closed and counted in
    [grid_net_fd_limit_closed_total], and a dial that gets one fails.
    Per replica, perfbench uses 2 peer connections plus the load
    process's 2 sessions, and [bin/client.exe] uses 1.

    Every connection opens with a hello each way (dialer first, listener
    answering) carrying the node id and the highest wire version the
    sender speaks; this build advertises 1 and speaks the one codec
    {!Grid_paxos.Wire_codec} (DESIGN.md §15). The dialer queues its
    frames behind its hello, and the first frame it reads back must be
    the listener's hello, so no read waits on a handshake. A dial whose
    hello has not come back within 1 s fails: the loop closes it, and
    the frames queued behind the hello go with it.

    A failed dial puts the peer on exponential backoff (doubling from
    20 ms to [backoff_cap_ms], default 2 s, jittered per node), so a dead
    peer costs one connect attempt per backoff window instead of one per
    outgoing message, and a restarting replica is not reconnected by
    every peer in the same instant. A dial succeeds when the peer's hello
    arrives, which resets its backoff; losing an established connection
    never delays the first redial. Each node's metrics registry exposes
    the live per-peer delay as [grid_net_backoff_ms_peer_<id>] gauges
    (0 = healthy).

    Transport byte accounting: [grid_net_bytes_total] counts on-wire
    bytes in both directions (frame header and CRC included), split as
    [grid_net_bytes_sent_total]/[grid_net_bytes_received_total] and by
    message kind as [grid_net_bytes_total_<kind>]. Corrupt or
    undecodable frames increment [grid_net_decode_errors_total] and
    drop the connection (a byte stream cannot be resynchronized after a
    bad frame); the next send redials.

    A message whose frame would exceed {!Framing.max_frame} is dropped
    before it is queued and counted in
    [grid_net_oversized_dropped_total]; the connection and the event
    loop carry on. Creating a node sets SIGPIPE to ignored, so a write
    to a peer that died fails with [EPIPE] and drops only that
    connection.

    Each replica's listening port doubles as a plaintext admin endpoint.
    An accepted connection stays unsniffed while its buffered bytes could
    still start [GET ], [HEAD] or [POST]; any other byte makes it a
    protocol peer. The loop answers the request line itself, queues the
    HTTP/1.0 response and closes the connection once it has flushed: no
    thread per request, no extra port. [GET /metrics] serves the node's
    registry in Prometheus exposition format, [GET /health] a one-line
    JSON summary (role, ballot, commit point, lease, admission queue
    depths, watchdog violations, reshard state), and [GET /flightrec]
    the node's bounded always-on flight recorder as JSONL (readable back
    with {!Grid_obs.Span.load_string}).

    This is the backend for [bin/replica.exe] and [bin/client.exe], and
    for the loopback integration tests. The evaluation itself uses the
    simulator (DESIGN.md §2) — this module demonstrates that the engines
    are transport-agnostic. *)

module Make (S : Grid_paxos.Service_intf.S) : sig
  module R : module type of Grid_paxos.Replica.Make (S)

  type replica_handle

  val start_replica :
    cfg:Grid_paxos.Config.t ->
    id:int ->
    port:int ->
    peers:(int * Unix.sockaddr) list ->
    ?storage:Grid_paxos.Storage.t ->
    ?obs:Grid_obs.Span.Recorder.t ->
    ?backoff_cap_ms:float ->
    unit ->
    replica_handle
  (** Bind [port], bootstrap the replica engine, and serve until
      {!stop_replica}; the same port answers admin HTTP requests
      ([/metrics], [/health], [/flightrec]). [peers] maps the other
      replica ids to their addresses. [obs] receives the engine's
      lifecycle spans and the transport's message events, timed on the
      wall clock (ms since the epoch); when omitted, the node keeps its
      own always-on flight recorder over the last 2048 events. The
      replica also reports to an online invariant watchdog
      ({!Grid_obs.Watchdog}) whose counters are served by [GET /metrics]
      and which honours [cfg.watchdog_fail_stop]. [backoff_cap_ms] caps
      the reconnect backoff toward dead peers (default 2000). *)

  val replica_is_leader : replica_handle -> bool
  val replica_commit_point : replica_handle -> int
  val replica_state : replica_handle -> S.state

  val stop_replica : replica_handle -> unit
  (** Stop the loop, close the listener and connections, and release the
      per-peer gauges from the node's registry. *)

  type client_handle

  val start_client :
    id:int ->
    replicas:(int * Unix.sockaddr) list ->
    ?retry_ms:float ->
    ?obs:Grid_obs.Span.Recorder.t ->
    ?backoff_cap_ms:float ->
    unit ->
    client_handle
  (** Connect to every replica. The client keeps no listening socket;
      replies arrive on the dialed connections. [obs] and
      [backoff_cap_ms] are as for {!start_replica}. *)

  val call_op :
    client_handle ->
    ?unreplicated:bool ->
    S.op ->
    timeout_s:float ->
    Grid_paxos.Types.reply option
  (** Synchronous typed request: broadcast to all replicas and wait for
      the leader's reply, with protocol-level retransmission. The caller
      sleeps until the client's loop thread hands it the reply, or until
      [timeout_s] has passed on that loop, which returns [None].

      The client is closed-loop, so a request whose call returned [None]
      stays outstanding and is retransmitted until a replica answers it.
      Until then the client is busy, and a new call returns [None] at
      once without sending anything or waiting out its timeout. A call
      completes only with the reply to the request it submitted itself:
      the late reply to an abandoned request is absorbed and never
      returned. A handle serves one call at a time; a call started while
      another thread's call is in flight ends that call with [None].

      The request class comes from [S.classify] (or [Original] when
      [unreplicated] is set) and the payload from [S.encode_op] — there
      is no raw [rtype ~payload] entry point; callers never construct
      wire strings. *)

  val client_metrics : client_handle -> Grid_obs.Metrics.t

  val stop_client : client_handle -> unit
  (** Stop the loop; a call in flight returns [None]. *)
end
