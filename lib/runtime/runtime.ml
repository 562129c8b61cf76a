(** Wires replica and client step machines into the discrete-event
    simulator: interprets their actions (sends, timers, notes), drives
    closed-loop workloads, and exposes crash/recovery controls.

    One [Make (S)] instantiation simulates one replicated service. All
    randomness derives from the seed passed to {!create}, so every run is
    reproducible.

    Several groups can share one engine/network (the sharded runtime in
    [lib/shard]): each group occupies the node range
    [node_base .. node_base + n - 1], and the dispatcher translates
    between the engines' local replica ids and the global node space at
    the send/receive boundary. Client nodes ([>= client_node_base]) are
    global and pass through untranslated. *)

module Engine = Grid_sim.Engine
module Network = Grid_sim.Network
module Span = Grid_obs.Span
module Metrics = Grid_obs.Metrics
module Watchdog = Grid_obs.Watchdog
module Rng = Grid_util.Rng
module Ids = Grid_util.Ids
module Config = Grid_paxos.Config
module Client = Grid_paxos.Client
open Grid_paxos.Types

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

module Make (S : Grid_paxos.Service_intf.S) = struct
  module R = Grid_paxos.Replica.Make (S)

  type client_slot = {
    client : Client.t;
    actor : string;  (* precomputed node label for event recording *)
    mutable on_reply : reply -> unit;
  }

  (* The handles the runtime updates on its hot paths; registered once at
     creation so an update is a single store. *)
  type meters = {
    m_requests : Metrics.counter;
    m_replies : Metrics.counter;
    m_msgs : Metrics.counter;
    m_latency : Grid_util.Stats.Histogram.h;
  }

  type t = {
    eng : Engine.t;
    net : msg Network.t;
    cfg : Config.t;
    scenario : Scenario.t;
    node_base : int;  (* global node id of replica 0 *)
    actor_prefix : string;  (* "s<k>/" when hosting shard k, else "" *)
    replicas : R.t array;
    clients : (int, client_slot) Hashtbl.t;  (* node id -> slot *)
    down : bool array;
    incarnation : int array;
        (* bumped on recovery so timers armed in a previous life die *)
    msg_counts : (string, int) Hashtbl.t;  (* sends by message kind *)
    mutable load_applied : float;  (* server load factor currently in force *)
    obs : Span.Recorder.t;
    replica_actors : string array;  (* precomputed "r<i>" labels *)
    metrics : Metrics.t;
    meters : meters;
    watchdog : Watchdog.t;  (* online invariant checks, shared sink *)
    mutable next_client_id : int;  (* fresh ids for successive workloads *)
  }

  let engine t = t.eng
  let network t = t.net
  let config t = t.cfg
  let scenario t = t.scenario
  let obs t = t.obs
  let metrics t = t.metrics
  let watchdog t = t.watchdog
  let replica t i = t.replicas.(i)
  let node_base t = t.node_base
  let now t = Engine.now t.eng

  (* A replica's local clock: engine time plus any injected drift
     ({!Grid_sim.Fault.Clock_drift}). Timers stay on engine time — drift
     skews time readings (the lease arithmetic), not durations. *)
  let rnow t i = Engine.now t.eng +. Network.clock_offset t.net (t.node_base + i)

  (* Local replica id <-> global node id. Client nodes are global. *)
  let out_node t dst = if node_is_client dst then dst else t.node_base + dst
  let in_node t src = if node_is_client src then src else src - t.node_base

  let count_msg t msg =
    Metrics.inc t.meters.m_msgs;
    let k = msg_kind msg in
    Hashtbl.replace t.msg_counts k (1 + Option.value ~default:0 (Hashtbl.find_opt t.msg_counts k))

  let rec dispatch_replica t i actions = List.iter (run_action t i) actions

  and run_action t i = function
    | Send { dst; msg } ->
      count_msg t msg;
      Span.Recorder.msg t.obs ~time:(Engine.now t.eng) ~actor:t.replica_actors.(i)
        ~kind:(msg_kind msg) ~dst:(out_node t dst);
      Network.send t.net ~src:(t.node_base + i) ~dst:(out_node t dst) msg
    | After { delay; timer } ->
      let armed_in = t.incarnation.(i) in
      ignore
        (Engine.schedule t.eng ~delay (fun () ->
             (* Timers armed before a crash must not fire into the next
                incarnation: recovery re-bootstraps its own timers. *)
             if (not t.down.(i)) && t.incarnation.(i) = armed_in then
               dispatch_replica t i
                 (R.handle t.replicas.(i) ~now:(rnow t i) (Timer timer))))
    | Note s ->
      Span.Recorder.note t.obs ~time:(Engine.now t.eng) ~actor:t.replica_actors.(i) s

  let rec dispatch_client t node actions reply =
    List.iter
      (fun action ->
        match (action, Hashtbl.find_opt t.clients node) with
        | Send { dst; msg }, slot ->
          count_msg t msg;
          (match slot with
          | Some s ->
            Span.Recorder.msg t.obs ~time:(Engine.now t.eng) ~actor:s.actor
              ~kind:(msg_kind msg) ~dst:(out_node t dst)
          | None -> ());
          Network.send t.net ~src:node ~dst:(out_node t dst) msg
        | After { delay; timer }, _ ->
          ignore
            (Engine.schedule t.eng ~delay (fun () ->
                 match Hashtbl.find_opt t.clients node with
                 | None -> ()
                 | Some slot ->
                   let actions, reply =
                     Client.handle slot.client ~now:(Engine.now t.eng) (Timer timer)
                   in
                   dispatch_client t node actions reply))
        | Note s, slot ->
          let actor =
            match slot with Some sl -> sl.actor | None -> Printf.sprintf "n%d" node
          in
          Span.Recorder.note t.obs ~time:(Engine.now t.eng) ~actor s)
      actions;
    match (reply, Hashtbl.find_opt t.clients node) with
    | Some r, Some slot -> slot.on_reply r
    | _ -> ()

  let create ?(seed = 42) ?(trace = false) ?trace_capacity ?attach ?obs ?(node_base = 0)
      ?shard ?watchdog ~cfg ~scenario:(sc : Scenario.t) () =
    let cfg = sc.tune (Config.with_n cfg sc.n) in
    let root = Rng.of_int seed in
    let eng, net =
      match attach with
      | Some (eng, net) -> (eng, net)
      | None ->
        let eng = Engine.create () in
        (eng, Network.create eng (Rng.split root))
    in
    let obs =
      match obs with
      | Some o -> o
      | None -> Span.Recorder.create ?capacity:trace_capacity ~enabled:trace ()
    in
    let actor_prefix =
      match shard with Some k -> "s" ^ string_of_int k ^ "/" | None -> ""
    in
    let metrics = Metrics.create () in
    let watchdog =
      match watchdog with
      | Some w -> w
      | None -> Watchdog.create ~fail_stop:cfg.watchdog_fail_stop ~metrics ()
    in
    let replicas =
      Array.init cfg.n (fun i ->
          R.create ~cfg ~id:i ~seed:(Int64.to_int (Rng.bits64 root) land 0xFFFFFF) ~obs
            ~actor:(actor_prefix ^ "r" ^ string_of_int i)
            ~watchdog ())
    in
    let meters =
      {
        m_requests =
          Metrics.counter metrics "grid_requests_total" ~help:"Requests submitted by clients";
        m_replies =
          Metrics.counter metrics "grid_replies_total" ~help:"Replies delivered to clients";
        m_msgs =
          Metrics.counter metrics "grid_messages_sent_total"
            ~help:"Protocol messages handed to the network";
        m_latency =
          Metrics.histogram metrics "grid_request_latency_ms"
            ~help:"Closed-loop request latency (simulated ms)" ~lo:0.01 ~hi:100_000.0
            ~bins:64;
      }
    in
    let t =
      {
        eng;
        net;
        cfg;
        scenario = sc;
        node_base;
        actor_prefix;
        replicas;
        clients = Hashtbl.create 16;
        down = Array.make cfg.n false;
        incarnation = Array.make cfg.n 0;
        msg_counts = Hashtbl.create 16;
        load_applied = 1.0;
        obs;
        replica_actors =
          Array.init cfg.n (fun i -> actor_prefix ^ "r" ^ string_of_int i);
        metrics;
        meters;
        watchdog;
        next_client_id = 0;
      }
    in
    for i = 0 to cfg.n - 1 do
      Network.add_node net ~id:(node_base + i) ~recv_cost:sc.replica_recv_cost
        ~send_cost:sc.replica_send_cost (fun ~src msg ->
          if not t.down.(i) then
            dispatch_replica t i
              (R.handle t.replicas.(i) ~now:(rnow t i)
                 (Receive { src = in_node t src; msg })))
    done;
    for i = 0 to cfg.n - 1 do
      for j = 0 to cfg.n - 1 do
        if i <> j then
          Network.set_link net ~src:(node_base + i) ~dst:(node_base + j)
            (sc.replica_link i j)
      done
    done;
    Array.iteri (fun i r -> dispatch_replica t i (R.bootstrap r)) replicas;
    t

  (** Add a closed-loop client. [machine_share] models how many clients
      share this client's physical machine: per-message CPU costs scale
      with it (the paper runs up to 16 client processes per host).

      [light:true] registers a session-pool client in O(1): no per-replica
      link records (the network's default latency applies — see
      {!Session.Make.create}, which points it at the scenario's client
      link) and no per-message CPU cost, so a simulation can hold 10^5+
      concurrent clients without the per-client setup dominating. *)
  let add_client t ~id ?(machine_share = 1) ?(light = false) ?(on_reply = fun _ -> ())
      () =
    if id >= t.next_client_id then t.next_client_id <- id + 1;
    let cid = Ids.Client_id.of_int id in
    let actor = t.actor_prefix ^ "c" ^ string_of_int id in
    let client =
      Client.create ~id:cid
        ~replicas:(Config.replica_ids t.cfg)
        ~retry_ms:t.cfg.client_retry_ms ~obs:t.obs ~actor ()
    in
    let node = Client.node client in
    let slot = { client; actor; on_reply } in
    Hashtbl.replace t.clients node slot;
    let share = if light then 0.0 else Float.of_int machine_share in
    Network.add_node t.net ~id:node
      ~recv_cost:(t.scenario.client_recv_cost *. share)
      ~send_cost:(t.scenario.client_send_cost *. share)
      (fun ~src msg ->
        let actions, reply =
          Client.handle slot.client ~now:(Engine.now t.eng)
            (Receive { src = in_node t src; msg })
        in
        dispatch_client t node actions reply);
    if not light then
      for r = 0 to t.cfg.n - 1 do
        Network.set_link_sym t.net node (t.node_base + r) (t.scenario.client_link r)
      done;
    client

  (** Sends by message kind since creation (or the last reset). *)
  let message_counts t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.msg_counts [] |> List.sort compare

  let reset_message_counts t = Hashtbl.reset t.msg_counts

  let set_on_reply t client f =
    match Hashtbl.find_opt t.clients (Client.node client) with
    | Some slot -> slot.on_reply <- f
    | None -> invalid_arg "Runtime.set_on_reply: unknown client"

  let submit t client ?trace rtype ~payload =
    match Client.submit client ~now:(Engine.now t.eng) ?trace rtype ~payload with
    | `Busy -> `Busy
    | `Sent actions ->
      Metrics.inc t.meters.m_requests;
      dispatch_client t (Client.node client) actions None;
      `Submitted

  (* Typed submission: classify and encode inside the runtime, so
     workloads and examples never build payload strings. The commit
     payload carries the op count on the wire (the replica's T-Paxos path
     never decodes it, but the byte size matters to the network model). *)
  let encode_item = function
    | Do op ->
      ((match S.classify op with `Read -> Read | `Write -> Write), S.encode_op op)
    | Unreplicated op -> (Original, S.encode_op op)
    | In_txn (tid, op) -> (Txn_op tid, S.encode_op op)
    | Commit_txn { tid; ops } ->
      ( Txn_commit tid,
        Grid_codec.Wire.encode (fun e -> Grid_codec.Wire.Encoder.uint e ops) )
    | Abort_txn tid -> (Txn_abort tid, "")

  let submit_item t client ?trace it =
    let rtype, payload = encode_item it in
    submit t client ?trace rtype ~payload

  let try_submit_item t client ?trace it = submit_item t client ?trace it
  let submit_op t client op = submit_item t client (Do op)

  (** {1 Failure control} *)

  let crash_replica t i =
    t.down.(i) <- true;
    Network.crash t.net (t.node_base + i)

  (** Recovery restarts the replica's volatile state (as a real process
      restart would) and re-arms its timers. *)
  let recover_replica t i =
    t.down.(i) <- false;
    t.incarnation.(i) <- t.incarnation.(i) + 1;
    Network.recover t.net (t.node_base + i);
    dispatch_replica t i (R.restart t.replicas.(i) ~now:(rnow t i))

  let replica_up t i = not t.down.(i)

  (** {1 Running} *)

  let run_until t horizon = Engine.run ~until:horizon t.eng

  let leader t =
    let rec find i =
      if i >= t.cfg.n then None
      else if (not t.down.(i)) && R.is_leader t.replicas.(i) then Some i
      else find (i + 1)
    in
    find 0

  (** Run until a leader is elected (and its prepare round finished), or
      [max_wait] simulated ms elapse. *)
  let await_leader ?(max_wait = 10_000.0) t =
    let deadline = Engine.now t.eng +. max_wait in
    let rec loop () =
      match leader t with
      | Some l -> Some l
      | None ->
        if Engine.now t.eng >= deadline then None
        else if Engine.step t.eng then loop ()
        else None
    in
    loop ()

  (** {1 Closed-loop workloads}

      Mirrors the paper's methodology: after the leader is elected the
      clients all start at the same instant; each sends its next request
      only after receiving the reply to the previous one. *)

  type record = {
    rec_client : int;
    rec_seq : int;  (* per-client completion index, 1-based *)
    rec_rtype : rtype;
    rec_status : status;
    rec_latency : float;  (* ms *)
  }

  type results = {
    records : record list;  (** completion order *)
    started_at : float;
    finished_at : float;
    total_completed : int;
  }

  let latencies ?(filter = fun _ -> true) results =
    List.filter filter results.records
    |> List.map (fun r -> r.rec_latency)
    |> Array.of_list

  let throughput_rps results =
    let dur_ms = results.finished_at -. results.started_at in
    if dur_ms <= 0.0 then 0.0
    else Float.of_int results.total_completed /. dur_ms *. 1000.0

  (** [run_closed_loop t ~clients ~requests_per_client ~gen ()] runs the
      workload to completion. [gen ~client] is called once per client and
      must return a generator producing that client's successive requests.
      Returns per-request records (latency in simulated ms). *)
  let run_closed_loop ?(max_sim_ms = 600_000.0) ~clients ~requests_per_client ~gen t =
    (match await_leader t with
    | Some _ -> ()
    | None -> failwith "run_closed_loop: no leader elected");
    let records = ref [] in
    let total = ref 0 in
    let finished_at = ref (now t) in
    let expected = clients * requests_per_client in
    let started_at = now t in
    let machine_share = t.scenario.clients_per_machine clients in
    (* Rescale replica CPU costs for this client count; relative to the
       factor already in force so repeated workloads do not compound. *)
    let load = t.scenario.server_load_factor clients in
    if load <> t.load_applied then begin
      for i = 0 to t.cfg.n - 1 do
        Network.scale_node_costs t.net (t.node_base + i) ~factor:(load /. t.load_applied)
      done;
      t.load_applied <- load
    end;
    for c = 0 to clients - 1 do
      let next = gen ~client:c in
      let remaining = ref requests_per_client in
      let sent_at = ref 0.0 in
      let sent_rtype = ref Read in
      let completions = ref 0 in
      let client_ref = ref None in
      let submit_next () =
        match next () with
        | Some (rtype, payload) -> (
          sent_at := now t;
          sent_rtype := rtype;
          match !client_ref with
          | Some cl -> (
            (* The closed loop only submits after the previous reply
               cleared the pending slot, so [`Busy] here is a driver bug. *)
            match submit t cl rtype ~payload with
            | `Submitted -> ()
            | `Busy -> failwith "run_closed_loop: client busy on submit")
          | None -> ())
        | None -> ()
      in
      let on_reply (reply : reply) =
        incr completions;
        incr total;
        finished_at := now t;
        Metrics.inc t.meters.m_replies;
        Metrics.observe t.meters.m_latency (now t -. !sent_at);
        records :=
          {
            rec_client = c;
            rec_seq = !completions;
            rec_rtype = !sent_rtype;
            rec_status = reply.status;
            rec_latency = now t -. !sent_at;
          }
          :: !records;
        decr remaining;
        if !remaining > 0 then submit_next ()
      in
      let id = t.next_client_id in
      t.next_client_id <- t.next_client_id + 1;
      let client = add_client t ~id ~machine_share ~on_reply () in
      client_ref := Some client;
      (* First request of every client at the same instant — the paper's
         leader-sent start signal. *)
      ignore
        (Engine.schedule t.eng ~delay:0.0 (fun () ->
             if !remaining > 0 then submit_next ()))
    done;
    let deadline = started_at +. max_sim_ms in
    let rec drive () =
      if !total >= expected then ()
      else if now t > deadline then
        failwith
          (Printf.sprintf "run_closed_loop: stalled at %d/%d completions" !total expected)
      else if Engine.step t.eng then drive ()
      else ()
    in
    drive ();
    {
      records = List.rev !records;
      started_at;
      finished_at = !finished_at;
      total_completed = !total;
    }

  (** Typed-generator front end to {!run_closed_loop}: items are encoded
      by the runtime, so generators deal only in [S.op]. *)
  let run_closed_loop_ops ?max_sim_ms ~clients ~requests_per_client ~gen t =
    run_closed_loop ?max_sim_ms ~clients ~requests_per_client
      ~gen:(fun ~client ->
        let next = gen ~client in
        fun () -> Option.map encode_item (next ()))
      t
end
