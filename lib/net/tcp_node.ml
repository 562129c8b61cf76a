open Grid_paxos.Types
module Rng = Grid_util.Rng
module Span = Grid_obs.Span
module Metrics = Grid_obs.Metrics

let now_ms () = Unix.gettimeofday () *. 1000.0

(* Transport counters, one registry per node. Unlike the simulator's
   metrics these count real socket traffic: dial attempts and failures
   feed the backoff story, sent/received feed throughput sanity checks,
   and the byte counters price the wire format itself. *)
type net_meters = {
  registry : Metrics.t;
  nm_sent : Metrics.counter;
  nm_received : Metrics.counter;
  nm_bytes : Metrics.counter;  (* both directions, frame overhead included *)
  nm_bytes_sent : Metrics.counter;
  nm_bytes_received : Metrics.counter;
  nm_bytes_by_kind : (string, Metrics.counter) Hashtbl.t;
      (* per message kind, both directions *)
  nm_decode_errors : Metrics.counter;
  nm_oversized : Metrics.counter;
  nm_fd_limit : Metrics.counter;
  nm_dials : Metrics.counter;
  nm_dial_failures : Metrics.counter;
  nm_conns : Metrics.gauge;
  nm_backoff : (int, Metrics.gauge) Hashtbl.t;
      (* per-peer current reconnect delay, 0 when healthy *)
}

(* Per-peer backoff gauges: one gauge per peer, its id in the name. *)
let backoff_gauge_name p = Printf.sprintf "grid_net_backoff_ms_peer_%d" p

let make_meters ~peers () =
  let registry = Metrics.create () in
  let counter name help = Metrics.counter registry name ~help in
  let table f keys =
    let t = Hashtbl.create 16 in
    List.iter (fun k -> Hashtbl.replace t k (f k)) keys;
    t
  in
  {
    registry;
    nm_sent = counter "grid_net_messages_sent_total" "Protocol messages written to peer sockets";
    nm_received = counter "grid_net_messages_received_total" "Protocol messages read off peer sockets";
    nm_bytes =
      counter "grid_net_bytes_total" "On-wire bytes, both directions, frame overhead included";
    nm_bytes_sent = counter "grid_net_bytes_sent_total" "On-wire bytes written to peer sockets";
    nm_bytes_received = counter "grid_net_bytes_received_total" "On-wire bytes read off peer sockets";
    nm_bytes_by_kind =
      table
        (fun kind ->
          counter ("grid_net_bytes_total_" ^ kind)
            "On-wire bytes carrying this message kind, both directions")
        Grid_paxos.Types.all_msg_kinds;
    nm_decode_errors =
      counter "grid_net_decode_errors_total"
        "Frames dropped as corrupt or undecodable (connection closed)";
    nm_oversized =
      counter "grid_net_oversized_dropped_total"
        "Outgoing messages dropped for exceeding the frame size limit";
    nm_fd_limit =
      counter "grid_net_fd_limit_closed_total"
        "Accepted connections closed because select cannot watch their fd";
    nm_dials = counter "grid_net_dials_total" "Outbound connection attempts";
    nm_dial_failures =
      counter "grid_net_dial_failures_total" "Failed dials (peer enters reconnect backoff)";
    nm_conns =
      Metrics.gauge registry "grid_net_connections" ~help:"Currently established peer connections";
    nm_backoff =
      table
        (fun p ->
          Metrics.gauge registry (backoff_gauge_name p)
            ~help:"Current reconnect backoff delay toward this peer (0 = healthy)")
        peers;
  }

let set_backoff_gauge meters peer v =
  Option.iter (fun g -> Metrics.set g v) (Hashtbl.find_opt meters.nm_backoff peer)

(* One message of [n] on-wire bytes, sent or received as [msgs] and
   [bytes] tell. *)
let count_msg meters ~msgs ~bytes msg n =
  Metrics.inc msgs;
  Metrics.inc ~by:n bytes;
  Metrics.inc ~by:n meters.nm_bytes;
  Option.iter (Metrics.inc ~by:n) (Hashtbl.find_opt meters.nm_bytes_by_kind (msg_kind msg))

(* Release the per-peer gauges when the node stops: their names embed
   peer ids, so a node restarted against a different peer set must not
   inherit stale series from the previous incarnation. *)
let release_meters meters =
  Hashtbl.iter (fun p _ -> Metrics.unregister meters.registry (backoff_gauge_name p)) meters.nm_backoff;
  Hashtbl.reset meters.nm_backoff

(* Reconnect backoff: without it, a dead peer costs one connect syscall
   per outgoing message (heartbeats: every few ms). *)
let backoff_base_ms = 20.0
let default_backoff_cap_ms = 2000.0

(* A dial whose peer sends no hello within this long fails, and the
   backoff redials: frames sent meanwhile queue behind the hello. *)
let hello_timeout_ms = 1000.0

(* The size of a replica's always-on flight recorder. *)
let flight_capacity = 2048

(* ------------------------------------------------------------------ *)
(* Generic event loop: one thread per node owns all socket I/O; other
   threads reach it only through the thunk queue and the self-pipe. *)

(* A client's synchronous call: the request it submitted, its deadline on
   the wall clock, and its result. The caller sleeps on the core's
   [call_done]; the loop thread completes the call with the reply to that
   request, or with [None] once the deadline passes. *)
type call_state = Waiting | Done of reply option

type pending_call = {
  mutable req : Grid_util.Ids.Request_id.t option;  (* None until submitted *)
  due_ms : float;
  mutable state : call_state;
}

(* What a connection is known to be. An inbound one stays [Unsniffed]
   while its bytes could still be an admin request; a connection whose
   first frame must be a hello is [Hello (Some p)] when this node dialed
   peer [p], [Hello None] when it was accepted. *)
type role =
  | Unsniffed
  | Hello of int option
  | Peer of int
  | Closing  (* admin response queued; closed once it has flushed *)
  | Closed

type conn = {
  fd : Unix.file_descr;
  mutable role : role;
  input : Framing.decoder;
  output : string Queue.t;  (* whole frames or responses, oldest first *)
  mutable written : int;  (* bytes of [output]'s head already on the wire *)
  hello_due : float;  (* a dial's hello deadline (ms); infinity otherwise *)
}

type core = {
  node_id : int;
  mutex : Mutex.t;  (* guards [thunks] and [call]; only the loop touches the rest *)
  thunks : (unit -> unit) Queue.t;  (* injected work, run on the loop thread *)
  mutable timers : (float * timer) list;  (* sorted by due time *)
  conns : (Unix.file_descr, conn) Hashtbl.t;  (* every open connection *)
  peers : (int, conn) Hashtbl.t;  (* the connection sends to a node use: the newest *)
  mutable stop : bool;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  addresses : (int * Unix.sockaddr) list;
  backoff_cap_ms : float;
  (* peer -> (earliest next dial in ms, current backoff delay in ms) *)
  backoff : (int, float * float) Hashtbl.t;
  rng : Rng.t;  (* jitter *)
  obs : Span.Recorder.t;  (* spans timed on the wall clock (ms) *)
  actor : string;
  meters : net_meters;
  (* A client core's call in flight (at most one). *)
  mutable call : pending_call option;
  call_done : Condition.t;  (* also signals a finished [run_on_loop] *)
}

let create_core ?(obs = Span.Recorder.disabled)
    ?(backoff_cap_ms = default_backoff_cap_ms) ~node_id ~actor ~addresses () =
  (* A write to a peer that died must surface as EPIPE, which drops that
     connection; the default SIGPIPE action would kill the whole process
     instead. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  {
    node_id;
    mutex = Mutex.create ();
    thunks = Queue.create ();
    timers = [];
    conns = Hashtbl.create 16;
    peers = Hashtbl.create 16;
    stop = false;
    pipe_r;
    pipe_w;
    addresses;
    backoff_cap_ms;
    backoff = Hashtbl.create 8;
    rng = Rng.of_int (0x7cb1 + node_id);
    obs;
    actor;
    meters = make_meters ~peers:(List.map fst addresses) ();
    call = None;
    call_done = Condition.create ();
  }

let wake core = try ignore (Unix.write_substring core.pipe_w "x" 0 1) with _ -> ()

let with_lock core f =
  Mutex.lock core.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock core.mutex) f

(* Under [mutex]: end the call in flight and wake its caller. *)
let finish_call core pc result =
  pc.state <- Done result;
  core.call <- None;
  Condition.broadcast core.call_done

let is_pending core pc =
  match core.call with Some p -> p == pc | None -> false

let inject core thunk =
  with_lock core (fun () -> Queue.add thunk core.thunks);
  wake core

(* Run [f] on the node's loop thread and wait for its result: engine
   access is confined to that thread, so test accessors synchronize
   through the thunk queue. *)
let run_on_loop core f =
  let result = ref None in
  inject core (fun () ->
      let r = f () in
      with_lock core (fun () ->
          result := Some r;
          Condition.broadcast core.call_done));
  with_lock core (fun () ->
      while Option.is_none !result do
        Condition.wait core.call_done core.mutex
      done);
  Option.get !result

(* [Unix.select] cannot watch an fd at or above FD_SETSIZE (1024): it
   fails with EINVAL. Ask it before the loop takes a socket on. *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (EINVAL, _, _) -> false

let refresh_conns_gauge core =
  Metrics.set core.meters.nm_conns
    (float_of_int
       (Hashtbl.fold (fun _ c n -> match c.role with Peer _ -> n + 1 | _ -> n) core.peers 0))

let note_corrupt core ~peer err =
  Metrics.inc core.meters.nm_decode_errors;
  if Span.Recorder.enabled core.obs then
    Span.Recorder.note core.obs ~time:(now_ms ()) ~actor:core.actor
      (Format.asprintf "drop conn to %d: %a" peer Framing.pp_read_error err)

let dial_failed core peer =
  Metrics.inc core.meters.nm_dial_failures;
  let prev = match Hashtbl.find_opt core.backoff peer with Some (_, d) -> d | None -> 0.0 in
  let next = Float.min core.backoff_cap_ms (Float.max backoff_base_ms (prev *. 2.0)) in
  (* Jitter in [next/2, next): consecutive retries stay spread out even
     when every peer noticed the death together. *)
  let wait = next *. (0.5 +. Rng.float core.rng 0.5) in
  Hashtbl.replace core.backoff peer (now_ms () +. wait, next);
  set_backoff_gauge core.meters peer next

(* Close a connection; [err] is why its input ended. A dial that ends
   before the peer's hello arrived failed; a corrupt stream from a
   protocol peer is counted and noted. The next send to the peer redials. *)
let close_conn ?(err = Framing.Eof) core c =
  if c.role <> Closed then begin
    (match (c.role, err) with
    | Hello (Some p), _ -> dial_failed core p
    | Hello None, Framing.Corrupt _ -> note_corrupt core ~peer:(-1) err
    | Peer p, Framing.Corrupt _ -> note_corrupt core ~peer:p err
    | _ -> ());
    (match c.role with
    | Hello (Some p) | Peer p -> (
      match Hashtbl.find_opt core.peers p with
      | Some newest when newest == c -> Hashtbl.remove core.peers p
      | _ -> ())
    | _ -> ());
    c.role <- Closed;
    Hashtbl.remove core.conns c.fd;
    refresh_conns_gauge core;
    try Unix.close c.fd with _ -> ()
  end

(* Write what the socket takes now; [select] says when it takes more. *)
let flush core c =
  try
    while not (Queue.is_empty c.output) do
      let s = Queue.peek c.output in
      c.written <- c.written + Unix.write_substring c.fd s c.written (String.length s - c.written);
      if c.written = String.length s then begin
        ignore (Queue.pop c.output);
        c.written <- 0
      end
    done;
    if c.role = Closing then close_conn core c
  with
  | Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error _ -> close_conn core c

let enqueue core c s =
  Queue.add s c.output;
  if Queue.length c.output = 1 then flush core c

let add_conn core fd role =
  Unix.set_nonblock fd;
  Unix.setsockopt fd TCP_NODELAY true;
  let hello_due =
    match role with Hello (Some _) -> now_ms () +. hello_timeout_ms | _ -> infinity
  in
  let c =
    { fd; role; input = Framing.decoder (); output = Queue.create (); written = 0; hello_due }
  in
  Hashtbl.replace core.conns fd c;
  c

(* Dial without waiting: the connection is registered at once with its
   hello queued first, so frames sent meanwhile queue behind it. *)
let dial core peer addr =
  Metrics.inc core.meters.nm_dials;
  match Unix.socket PF_INET SOCK_STREAM 0 with
  | exception Unix.Unix_error _ ->
    dial_failed core peer;
    None
  | fd ->
    let c = add_conn core fd (Hello (Some peer)) in
    (match if selectable fd then Unix.connect fd addr else raise Exit with
    | () | (exception Unix.Unix_error (EINPROGRESS, _, _)) ->
      Hashtbl.replace core.peers peer c;
      enqueue core c (Framing.hello ~node_id:core.node_id)
    | exception (Exit | Unix.Unix_error _) -> close_conn core c);
    if c.role = Closed then None else Some c

(* The connection sends to [peer] use; None if unreachable or still
   backing off after a failed dial. *)
let connection core peer =
  match (Hashtbl.find_opt core.peers peer, List.assoc_opt peer core.addresses) with
  | (Some _ as c), _ -> c
  | None, None -> None
  | None, Some addr -> (
    match Hashtbl.find_opt core.backoff peer with
    | Some (not_before, _) when now_ms () < not_before -> None
    | _ -> dial core peer addr)

let send_msg core ~dst msg =
  if Span.Recorder.enabled core.obs then
    Span.Recorder.msg core.obs ~time:(now_ms ()) ~actor:core.actor
      ~kind:(msg_kind msg) ~dst;
  match connection core dst with
  | None -> ()  (* unreachable peer: retransmission recovers *)
  | Some c -> (
    match Framing.frame (Grid_paxos.Wire_codec.encode msg) with
    | frame ->
      count_msg core.meters ~msgs:core.meters.nm_sent ~bytes:core.meters.nm_bytes_sent msg
        (String.length frame);
      enqueue core c frame
    | exception Framing.Too_large _ ->
      (* Refused before any byte was queued, so the stream is intact:
         drop only this message and keep the connection. *)
      Metrics.inc core.meters.nm_oversized)

let arm_timer core ~due timer =
  core.timers <- List.merge (fun (a, _) (b, _) -> Float.compare a b) core.timers [ (due, timer) ]

let run_actions core actions =
  List.iter
    (function
      | Send { dst; msg } -> send_msg core ~dst msg
      | After { delay; timer } -> arm_timer core ~due:(now_ms () +. delay) timer
      | Note s ->
        if Span.Recorder.enabled core.obs then
          Span.Recorder.note core.obs ~time:(now_ms ()) ~actor:core.actor s)
    actions

(* ------------------------------------------------------------------ *)
(* Admin endpoint: a minimal HTTP/1.0 responder on the replica's protocol
   port. A hello frame opens with a little-endian length (tiny, so never
   printable ASCII) and an HTTP request with a method name, so a buffered
   prefix that could still start a method waits for more bytes. One
   request line in, one Content-Length response out, connection closed. *)

let http_methods = [ "GET "; "HEAD"; "POST" ]

(* Answer once the request line is in (or 4 KiB arrived without one);
   headers and body are irrelevant to the admin surface. *)
let serve_http core routes c =
  let head = Framing.peek c.input 4097 in
  if String.contains head '\n' || String.length head > 4096 then begin
    let path =
      match String.split_on_char ' ' (List.hd (String.split_on_char '\n' head)) with
      | _meth :: path :: _ -> String.trim path
      | _ -> "/"
    in
    let status, content_type, body =
      match routes path with
      | Some (content_type, body) -> ("200 OK", content_type, body)
      | None -> ("404 Not Found", "text/plain", "not found\n")
    in
    c.role <- Closing;
    enqueue core c
      (Printf.sprintf
         "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
         status content_type (String.length body) body)
  end

(* Act on what [c] has buffered, as far as its role allows. *)
let rec step core handle routes c =
  let frame k =
    match Framing.next c.input with
    | Ok (Some payload) -> k payload
    | Ok None -> ()
    | Error err -> close_conn ~err core c
  in
  match c.role with
  | Unsniffed ->
    let head = Framing.peek c.input 4 in
    let n = String.length head in
    if not (List.exists (fun m -> String.sub m 0 n = head) http_methods) then begin
      c.role <- Hello None;
      step core handle routes c
    end
    else if n = 4 then serve_http core routes c
  | Hello dialed ->
    frame (fun payload ->
        match Framing.parse_hello payload with
        | Error err -> close_conn ~err core c
        | Ok id ->
          let p = Option.value dialed ~default:id in
          c.role <- Peer p;
          Hashtbl.replace core.peers p c;
          refresh_conns_gauge core;
          if dialed = None then enqueue core c (Framing.hello ~node_id:core.node_id)
          else begin
            Hashtbl.remove core.backoff p;
            set_backoff_gauge core.meters p 0.0
          end;
          step core handle routes c)
  | Peer src ->
    frame (fun payload ->
        match Framing.decode_msg payload with
        | Error err -> close_conn ~err core c
        | Ok (msg, n) ->
          count_msg core.meters ~msgs:core.meters.nm_received
            ~bytes:core.meters.nm_bytes_received msg n;
          run_actions core (handle ~now:(now_ms ()) (Receive { src; msg }));
          step core handle routes c)
  | Closing | Closed -> ()

let on_readable core handle routes c =
  match Framing.fill c.input c.fd with
  | open_ ->
    step core handle routes c;
    (* A client may half-close after its request: its response still
       flushes. *)
    if (not open_) && c.role <> Closing then close_conn ~err:(Framing.at_eof c.input) core c
  | exception Unix.Unix_error _ -> close_conn core c

(* Fail the dials still waiting for their hello past its deadline;
   return the earliest deadline left. *)
let expire_hellos core now =
  let expired, next =
    Hashtbl.fold
      (fun _ c (expired, next) ->
        match c.role with
        | Hello (Some _) when c.hello_due <= now -> (c :: expired, next)
        | Hello (Some _) -> (expired, Float.min next c.hello_due)
        | _ -> (expired, next))
      core.conns ([], infinity)
  in
  List.iter (close_conn core) expired;
  next

let on_acceptable core listener =
  match Unix.accept listener with
  | exception Unix.Unix_error _ -> ()
  | fd, _ when not (selectable fd) ->
    Metrics.inc core.meters.nm_fd_limit;
    Unix.close fd
  | fd, _ -> ignore (add_conn core fd Unsniffed)

(* The main loop: [handle] processes one input and returns actions;
   [routes] answers admin requests on [listener]'s connections. *)
let event_loop ?listener ?(routes = fun _ -> None) core handle =
  let pipe_buf = Bytes.create 4096 in
  while not core.stop do
    let thunks, call_due =
      with_lock core (fun () ->
          let thunks = List.of_seq (Queue.to_seq core.thunks) in
          Queue.clear core.thunks;
          (* A call whose deadline has passed ends here; a live one bounds
             the sleep like a timer does. *)
          let call_due =
            match core.call with
            | Some pc when pc.due_ms <= now_ms () ->
              finish_call core pc None;
              infinity
            | Some pc -> pc.due_ms
            | None -> infinity
          in
          (thunks, call_due))
    in
    List.iter (fun thunk -> thunk ()) thunks;
    let now = now_ms () in
    let due, later = List.partition (fun (d, _) -> d <= now) core.timers in
    core.timers <- later;
    List.iter (fun (_, timer) -> run_actions core (handle ~now:(now_ms ()) (Timer timer))) due;
    let hello_due = expire_hellos core (now_ms ()) in
    (* Work done this turn may have armed a timer that is already due:
       poll the sockets and come straight back. *)
    let timeout =
      let next_due =
        Float.min hello_due
          (match core.timers with [] -> call_due | (d, _) :: _ -> Float.min d call_due)
      in
      if thunks <> [] || due <> [] then 0.0
      else if next_due = infinity then 0.1 (* s *)
      else Float.max 0.0 ((next_due -. now_ms ()) /. 1000.0)
    in
    let reads, writes =
      Hashtbl.fold
        (fun fd c (r, w) ->
          ( (if c.role = Closing then r else fd :: r),
            if Queue.is_empty c.output then w else fd :: w ))
        core.conns
        (core.pipe_r :: Option.to_list listener, [])
    in
    match Unix.select reads writes [] timeout with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, writable, _ ->
      (* Look every ready fd up before acting on any: acting may close a
         connection and a new one may reuse its number. *)
      let ready fds = List.filter_map (Hashtbl.find_opt core.conns) fds in
      let readable_conns = ready readable and writable_conns = ready writable in
      List.iter (fun c -> if c.role <> Closed then flush core c) writable_conns;
      List.iter (fun c -> if c.role <> Closed then on_readable core handle routes c) readable_conns;
      Option.iter (fun l -> if List.mem l readable then on_acceptable core l) listener;
      (* Wake-ups left unread keep the pipe readable for the next turn. *)
      if List.mem core.pipe_r readable then
        try ignore (Unix.read core.pipe_r pipe_buf 0 4096) with Unix.Unix_error _ -> ()
  done;
  Option.iter Unix.close listener;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with _ -> ()) core.conns

(* End the loop and wait for it; a call in flight returns [None]. *)
let shutdown core loop =
  core.stop <- true;
  wake core;
  with_lock core (fun () -> Option.iter (fun pc -> finish_call core pc None) core.call);
  (try Thread.join loop with _ -> ());
  release_meters core.meters

(* ------------------------------------------------------------------ *)

module Make (S : Grid_paxos.Service_intf.S) = struct
  module R = Grid_paxos.Replica.Make (S)
  module Client = Grid_paxos.Client

  type replica_handle = {
    r_core : core;
    replica : R.t;
    r_loop : Thread.t;
  }

  let start_replica ~cfg ~id ~port ~peers ?storage ?obs ?backoff_cap_ms () =
    let actor = "r" ^ string_of_int id in
    (* Flight recorder: unless the caller supplies a recorder, keep a
       bounded always-on one — the last [flight_capacity] events are a
       crash-scene record dumped by the admin endpoint, at ring-buffer
       cost. *)
    let obs =
      match obs with
      | Some o -> o
      | None -> Span.Recorder.create ~capacity:flight_capacity ~enabled:true ()
    in
    let core =
      create_core ~obs ?backoff_cap_ms ~node_id:id ~actor ~addresses:peers ()
    in
    (* Online invariant checks: counted in this node's registry and noted
       into the flight recorder, so /metrics and /flightrec both carry the
       violation story. *)
    let watchdog =
      Grid_obs.Watchdog.create
        ~fail_stop:cfg.Grid_paxos.Config.watchdog_fail_stop
        ~metrics:core.meters.registry
        ~on_violation:(fun ~check ~detail ->
          Span.Recorder.note obs ~time:(now_ms ()) ~actor
            (Printf.sprintf "watchdog %s: %s" check detail))
        ()
    in
    let replica = R.create ~cfg ~id ?storage ~obs ~actor ~watchdog () in
    let listener = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.setsockopt listener SO_REUSEADDR true;
    Unix.bind listener (ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen listener 64;
    Unix.set_nonblock listener;
    (* Engine access is confined to the loop thread; bootstrap through an
       injected thunk. *)
    inject core (fun () -> run_actions core (R.bootstrap replica));
    (* Resharding visibility (DESIGN.md §17): gauges track the replica's
       partition-map epoch and migration progress; refreshed after every
       handled input (four stores, no lookup). *)
    let reshard_epoch_g =
      Metrics.gauge core.meters.registry "grid_reshard_epoch"
        ~help:"Partition-map epoch this replica has committed"
    in
    let reshard_migrating_g =
      Metrics.gauge core.meters.registry "grid_reshard_migrating"
        ~help:"1 while a split/merge holds this replica frozen or installing"
    in
    let reshard_moved_g =
      Metrics.gauge core.meters.registry "grid_reshard_moved_ranges"
        ~help:"Key ranges handed to another group and not yet received back"
    in
    let reshard_imported_g =
      Metrics.gauge core.meters.registry "grid_reshard_imported_items"
        ~help:"Items adopted from shipped migration snapshots"
    in
    let refresh_reshard () =
      Metrics.set reshard_epoch_g (Float.of_int (R.reshard_epoch replica));
      Metrics.set reshard_migrating_g
        (if R.reshard_phase replica = "idle" then 0.0 else 1.0);
      Metrics.set reshard_moved_g (Float.of_int (R.moved_ranges replica));
      Metrics.set reshard_imported_g (Float.of_int (R.imported_items replica))
    in
    refresh_reshard ();
    let handle ~now input =
      let acts = R.handle replica ~now input in
      refresh_reshard ();
      acts
    in
    let health () =
      let now = now_ms () in
          let b = R.ballot replica in
          let shed_reads, shed_writes = R.stats_shed replica in
          Printf.sprintf
            {|{"node":%d,"role":"%s","ballot":{"round":%d,"holder":%d},"commit_point":%d,"holds_lease":%b,"queue_depth":%d,"reads_inflight":%d,"shed_reads":%d,"shed_writes":%d,"watchdog_violations":%d,"reshard":{"epoch":%d,"phase":"%s","moved_ranges":%d,"imported_items":%d}}|}
            id
            (if R.is_leader replica then "leader" else "follower")
            b.Grid_paxos.Types.Ballot.round b.Grid_paxos.Types.Ballot.holder
            (R.commit_point replica)
            (R.holds_lease replica ~now)
            (R.queue_depth replica) (R.reads_inflight replica) shed_reads
            shed_writes
            (Grid_obs.Watchdog.violations watchdog)
            (R.reshard_epoch replica) (R.reshard_phase replica)
            (R.moved_ranges replica) (R.imported_items replica)
    in
    let routes path =
      match path with
      | "/metrics" ->
        Some ("text/plain; version=0.0.4", Metrics.expose core.meters.registry)
      | "/health" -> Some ("application/json", health () ^ "\n")
      | "/flightrec" -> Some ("application/jsonl", Span.dump_string (Span.Recorder.events obs))
      | _ -> None
    in
    let r_loop = Thread.create (fun () -> event_loop ~listener ~routes core handle) () in
    { r_core = core; replica; r_loop }

  (* Engine introspection must also run on the loop thread. *)
  let on_loop h f = run_on_loop h.r_core f
  let replica_is_leader h = on_loop h (fun () -> R.is_leader h.replica)
  let replica_commit_point h = on_loop h (fun () -> R.commit_point h.replica)
  let replica_state h = on_loop h (fun () -> R.state h.replica)

  let stop_replica h = shutdown h.r_core h.r_loop

  type client_handle = { c_core : core; client : Client.t; c_loop : Thread.t }

  let start_client ~id ~replicas ?(retry_ms = 200.0) ?obs ?backoff_cap_ms () =
    let cid = Grid_util.Ids.Client_id.of_int id in
    let client =
      Client.create ~id:cid ~replicas:(List.map fst replicas) ~retry_ms ?obs ()
    in
    let core =
      create_core ?obs ?backoff_cap_ms ~node_id:(client_node cid) ~actor:("c" ^ string_of_int id)
        ~addresses:replicas ()
    in
    (* [Client.handle] yields a reply only for its outstanding request,
       which may be one an earlier call gave up on: complete the call in
       flight only with the reply to the request it submitted. *)
    let handle ~now input =
      let actions, reply = Client.handle client ~now input in
      Option.iter
        (fun (r : reply) ->
          with_lock core (fun () ->
              match core.call with
              | Some ({ req = Some id; _ } as pc)
                when Grid_util.Ids.Request_id.equal id r.req ->
                finish_call core pc (Some r)
              | _ -> ()))
        reply;
      actions
    in
    let c_loop = Thread.create (fun () -> event_loop core handle) () in
    { c_core = core; client; c_loop }

  (* Internal: the raw rtype/payload request path. Exposed only through
     {!call_op}, which derives both from the service signature — callers
     never build wire payloads by hand. The call is armed on the loop
     before the request is submitted there, so its deadline runs from
     here; the caller then sleeps until the loop completes it. *)
  let call h rtype ~payload ~timeout_s =
    let core = h.c_core in
    let pc = { req = None; due_ms = now_ms () +. (timeout_s *. 1000.0); state = Waiting } in
    with_lock core (fun () ->
        if core.stop then pc.state <- Done None
        else begin
          (* One call at a time: a call still in flight from another
             thread ends with [None] rather than waiting forever. *)
          Option.iter (fun old -> finish_call core old None) core.call;
          core.call <- Some pc
        end);
    inject core (fun () ->
        if with_lock core (fun () -> is_pending core pc) then
          match Client.submit h.client ~now:(now_ms ()) rtype ~payload with
          | `Sent actions ->
            pc.req <- Option.map (fun (r : request) -> r.id) (Client.outstanding h.client);
            run_actions core actions
          | `Busy ->
            (* An earlier call's request is still outstanding: fail now
               instead of waiting for a reply that cannot be ours. *)
            with_lock core (fun () -> if is_pending core pc then finish_call core pc None));
    with_lock core (fun () ->
        let rec wait () =
          match pc.state with
          | Done result -> result
          | Waiting ->
            Condition.wait core.call_done core.mutex;
            wait ()
        in
        wait ())

  (* Typed entrypoint: classification and encoding stay inside the
     library. *)
  let call_op h ?(unreplicated = false) op ~timeout_s =
    let rtype : rtype =
      if unreplicated then Original
      else match S.classify op with `Read -> Read | `Write -> Write
    in
    call h rtype ~payload:(S.encode_op op) ~timeout_s

  let client_metrics h = h.c_core.meters.registry

  let stop_client h = shutdown h.c_core h.c_loop
end
