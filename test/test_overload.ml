(* Overload-control tests: the client's jittered exponential backoff
   against [Overloaded] pushback, the leader's admission window
   (shed-reads-before-writes, shed-before-queue-entry so a retransmission
   re-admits cleanly), exactly-once execution across an Overloaded →
   retry cycle, the open-loop arrival shapes, and the session pool
   sustaining 10^5 concurrent open-loop clients in one simulation. *)

module H = Engine_harness
module Client = Grid_paxos.Client
module Config = Grid_paxos.Config
module Counter = Grid_services.Counter
module Replica = Grid_paxos.Replica.Make (Counter)
module Ids = Grid_util.Ids
module Runtime = Grid_runtime.Runtime
module Workload = Grid_runtime.Workload
module Scenario = Grid_runtime.Scenario
module Noop = Grid_services.Noop
open Grid_paxos.Types

(* ------------------------------------------------------------------ *)
(* Client backoff *)

let overloaded_reply c ~retry_after_ms =
  let r = Option.get (Client.outstanding c) in
  Receive
    { src = 0;
      msg = Reply_msg { req = r.id; status = Overloaded { retry_after_ms }; payload = "" } }

let ok_reply c =
  let r = Option.get (Client.outstanding c) in
  Receive { src = 0; msg = Reply_msg { req = r.id; status = Ok; payload = "" } }

let sends = List.filter (function Send _ -> true | _ -> false)

let fresh_client ?(retry_ms = 100.0) seed =
  let c =
    Client.create ~id:(Ids.Client_id.of_int 1) ~replicas:[ 0; 1; 2 ] ~retry_ms ~seed ()
  in
  (match Client.submit c Write ~payload:"x" with
  | `Sent _ -> ()
  | `Busy -> Alcotest.fail "fresh client busy");
  c

(* Each consecutive pushback doubles the leader's hint, jittered +-25%:
   the armed timer delay must sit inside the jitter band of
   [hint * 2^(attempt-1)], capped at max(hint, 8 * retry_ms), and the
   backstop retry stays silent until it has passed. *)
let test_backoff_bounds_and_doubling () =
  List.iter
    (fun seed ->
      let c = fresh_client seed in
      (* retry_ms = 100, hint = 40: cap = max(40, 800) = 800. *)
      let expected attempt = Float.min (40.0 *. Float.pow 2.0 (Float.of_int (attempt - 1))) 800.0 in
      for attempt = 1 to 8 do
        let now = Float.of_int attempt *. 10_000.0 in
        let actions, reply = Client.handle c ~now (overloaded_reply c ~retry_after_ms:40.0) in
        Alcotest.(check bool) "pushback is not a completion" true (reply = None);
        let delay =
          match actions with
          | [ After { delay; timer = Client_retry _ } ] -> delay
          | _ -> Alcotest.fail "expected exactly one retry timer"
        in
        let base = expected attempt in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d attempt %d: delay %.1f within [%.1f, %.1f]" seed
             attempt delay (0.75 *. base) (1.25 *. base))
          true
          (delay >= (0.75 *. base) -. 1e-9 && delay <= (1.25 *. base) +. 1e-9);
        let seq = (Option.get (Client.outstanding c)).id.seq in
        Alcotest.(check bool) "silent until now + delay" true
          (Client.handle c ~now:(now +. delay -. 1e-3) (Timer (Client_retry seq)) = ([], None))
      done)
    [ 1; 2; 3; 17; 42 ]

(* The hint always wins over the static cap: a leader asking for more
   than 8 x retry_ms is honored (it knows its backlog better). *)
let test_backoff_honors_large_hint () =
  let c = fresh_client 5 in
  let actions, _ = Client.handle c ~now:0.0 (overloaded_reply c ~retry_after_ms:5_000.0) in
  match actions with
  | [ After { delay; _ } ] ->
    Alcotest.(check bool)
      (Printf.sprintf "delay %.1f >= 0.75 x hint" delay)
      true
      (delay >= 0.75 *. 5_000.0 -. 1e-9)
  | _ -> Alcotest.fail "expected exactly one retry timer"

(* Backstop retry firings inside the backoff window stay silent; the
   first firing at/after the window rebroadcasts to every replica. *)
let test_backoff_suppresses_backstop () =
  let c = fresh_client 9 in
  let seq = (Option.get (Client.outstanding c)).id.seq in
  let until =
    match Client.handle c ~now:0.0 (overloaded_reply c ~retry_after_ms:40.0) with
    | [ After { delay; _ } ], _ -> delay
    | _ -> Alcotest.fail "expected exactly one retry timer"
  in
  Alcotest.(check bool) "window is armed" true (until > 0.0);
  let inside, reply = Client.handle c ~now:(until /. 2.0) (Timer (Client_retry seq)) in
  Alcotest.(check bool) "no traffic inside the window" true (inside = [] && reply = None);
  let after_win, _ = Client.handle c ~now:until (Timer (Client_retry seq)) in
  Alcotest.(check int) "rebroadcast to all replicas" 3 (List.length (sends after_win))

(* A final reply resets the backoff machinery for the next request. *)
let test_backoff_resets_on_completion () =
  let c = fresh_client 11 in
  (* A long hint: the window would still be open at 100 ms. *)
  ignore (Client.handle c ~now:0.0 (overloaded_reply c ~retry_after_ms:1_000.0));
  let _, reply = Client.handle c ~now:50.0 (ok_reply c) in
  Alcotest.(check bool) "Ok completes the request" true (reply <> None);
  Alcotest.(check bool) "no pending request" true (Client.outstanding c = None);
  match Client.submit c Write ~payload:"y" with
  | `Sent actions ->
    (* The fresh request's retry timer is the plain jittered retry_ms,
       not a leftover overload window. *)
    let delay =
      List.find_map (function After { delay; _ } -> Some delay | _ -> None) actions
    in
    (match delay with
    | Some d ->
      Alcotest.(check bool)
        (Printf.sprintf "next request uses plain retry delay (%.1f)" d)
        true
        (d >= 75.0 && d <= 125.0)
    | None -> Alcotest.fail "no retry timer on fresh submit");
    (* The old window is cleared: the new request's retry fires. *)
    let seq = (Option.get (Client.outstanding c)).id.seq in
    let retry, _ = Client.handle c ~now:100.0 (Timer (Client_retry seq)) in
    Alcotest.(check int) "backoff cleared" 3 (List.length (sends retry))
  | `Busy -> Alcotest.fail "client busy after completion"

(* ------------------------------------------------------------------ *)
(* Leader admission *)

let add n = Counter.encode_op (Counter.Add n)
let get = Counter.encode_op Counter.Get

let tiny_window c = Config.make ~base:c ~max_inflight:2 ~max_queue:4 ()

(* Occupy the leader: one write in flight (its Accepts left undelivered,
   so no ack ever arrives) plus [qlen] queued writes behind it. *)
let congest t ~qlen =
  H.elect t 0;
  for seq = 1 to qlen + 1 do
    H.submit t (H.client_request ~seq ~rtype:Write ~payload:(add 1) ())
  done;
  Alcotest.(check int) "leader queue depth" qlen (Replica.queue_depth t.replicas.(0))

(* Reads shed once the write queue passes half its bound, while writes
   are still admitted up to the full bound — shed-reads-before-writes. *)
let test_shed_reads_before_writes () =
  let t = H.create ~cfg_tweak:tiny_window () in
  congest t ~qlen:2 (* half of max_queue=4 *);
  ignore (H.take_replies t);
  H.submit t (H.client_request ~client:2 ~seq:1 ~rtype:Read ~payload:get ());
  (match H.take_replies t with
  | [ { status = Overloaded { retry_after_ms }; _ } ] ->
    Alcotest.(check bool)
      (Printf.sprintf "retry_after at least a heartbeat (%.1f)" retry_after_ms)
      true (retry_after_ms >= 20.0)
  | _ -> Alcotest.fail "read should be shed at half the write bound");
  let reads, writes = Replica.stats_shed t.replicas.(0) in
  Alcotest.(check (pair int int)) "one read shed, no writes" (1, 0) (reads, writes);
  (* A write at the same queue depth is still admitted. *)
  H.submit t (H.client_request ~client:3 ~seq:1 ~rtype:Write ~payload:(add 1) ());
  Alcotest.(check (list reject)) "write admitted silently" [] (H.take_replies t);
  Alcotest.(check int) "write joined the queue" 3 (Replica.queue_depth t.replicas.(0))

(* Writes past [max_queue] are shed; a retransmission of an admitted
   (queued) write is absorbed, not shed and not double-queued. *)
let test_shed_writes_at_bound () =
  let t = H.create ~cfg_tweak:tiny_window () in
  congest t ~qlen:4;
  ignore (H.take_replies t);
  H.submit t (H.client_request ~client:2 ~seq:1 ~rtype:Write ~payload:(add 1) ());
  (match H.take_replies t with
  | [ { status = Overloaded _; _ } ] -> ()
  | _ -> Alcotest.fail "write past the bound should be shed");
  (* Retransmit a write that is already queued: silently absorbed. *)
  H.submit t (H.client_request ~seq:3 ~rtype:Write ~payload:(add 1) ());
  Alcotest.(check (list reject)) "retransmission absorbed" [] (H.take_replies t);
  Alcotest.(check int) "queue unchanged" 4 (Replica.queue_depth t.replicas.(0))

(* A retransmitted read already in the window is not re-shed: it holds
   its admission slot until answered. *)
let test_admitted_read_retransmission_kept () =
  let t = H.create ~cfg_tweak:tiny_window () in
  H.elect t 0;
  (* Admit two reads but withhold the confirms so they stay in flight. *)
  let no_confirms _ _ msg = msg_kind msg <> "read_confirm" in
  H.submit t (H.client_request ~client:2 ~seq:1 ~rtype:Read ~payload:get ());
  H.submit t (H.client_request ~client:3 ~seq:1 ~rtype:Read ~payload:get ());
  H.deliver_all ~filter:no_confirms t;
  Alcotest.(check int) "read window full" 2 (Replica.reads_inflight t.replicas.(0));
  ignore (H.take_replies t);
  (* A third, fresh read is shed... *)
  H.submit t (H.client_request ~client:4 ~seq:1 ~rtype:Read ~payload:get ());
  (match H.take_replies t with
  | [ { status = Overloaded _; _ } ] -> ()
  | _ -> Alcotest.fail "fresh read past max_inflight should be shed");
  (* ...but a retransmission of an admitted one is not. *)
  H.submit t (H.client_request ~client:2 ~seq:1 ~rtype:Read ~payload:get ());
  Alcotest.(check (list reject)) "retransmitted read not re-shed" []
    (H.take_replies t);
  let reads, _ = Replica.stats_shed t.replicas.(0) in
  Alcotest.(check int) "exactly one shed read" 1 reads

(* The full pushback cycle executes exactly once: shed a write, drain
   the queue, retransmit it — it commits once, and a further duplicate
   is answered from the dedup cache without re-executing. *)
let test_no_duplicate_execution_after_retry () =
  let t = H.create ~cfg_tweak:(fun c -> Config.make ~base:c ~max_queue:1 ()) () in
  congest t ~qlen:1;
  ignore (H.take_replies t);
  let shed_req = H.client_request ~client:2 ~seq:1 ~rtype:Write ~payload:(add 100) () in
  H.submit t shed_req;
  (match H.take_replies t with
  | [ { status = Overloaded _; _ } ] -> ()
  | _ -> Alcotest.fail "expected the write to be shed");
  (* Release the held acks: the two congesting writes commit. *)
  H.deliver_all t;
  ignore (H.take_replies t);
  Alcotest.(check int) "backlog drained" 2 (Replica.commit_point t.replicas.(0));
  (* The client's backoff window closes and it retransmits: the request
     must be admittable from scratch (shedding never touched the
     queued-id set) and commit exactly once. *)
  H.submit t shed_req;
  H.deliver_all t;
  (match H.take_replies t with
  | [ { status = Ok; payload; _ } ] ->
    Alcotest.(check int) "write applied once on retry" 102 (Counter.decode_result payload)
  | rs -> Alcotest.failf "expected one Ok reply, got %d" (List.length rs));
  (* A duplicate after commit re-answers from the dedup cache. *)
  H.submit t shed_req;
  H.deliver_all t;
  (match H.take_replies t with
  | [ { status = Ok; payload; _ } ] ->
    Alcotest.(check int) "duplicate re-answered, not re-executed" 102
      (Counter.decode_result payload)
  | rs -> Alcotest.failf "expected one cached reply, got %d" (List.length rs));
  Alcotest.(check int) "no further instance committed" 3
    (Replica.commit_point t.replicas.(0))

(* A freshly elected leader still re-proposing recovered instances must
   not execute reads on its stale state (the old leader may already have
   answered from those instances): the read is deferred and runs once
   recovery commits. Regression for the stale read the overload stress
   tier surfaced (seed 124: read answered 16 after its predecessor saw
   24, across a crash-free leader change). *)
let test_read_deferred_during_recovery () =
  let t = H.create () in
  H.elect t 0;
  (* Commit a write on r0 but withhold the Commit broadcast: followers
     have accepted instance 1 without learning it committed. *)
  H.submit t (H.client_request ~seq:1 ~rtype:Write ~payload:(add 5) ());
  H.deliver_all ~filter:(fun _ _ m -> msg_kind m <> "commit") t;
  Alcotest.(check int) "r0 committed" 1 (Replica.commit_point t.replicas.(0));
  Alcotest.(check int) "r1 has not" 0 (Replica.commit_point t.replicas.(1));
  (match H.take_replies t with
  | [ { status = Ok; payload; _ } ] ->
    Alcotest.(check int) "old leader answered 5" 5 (Counter.decode_result payload)
  | _ -> Alcotest.fail "expected the write's reply");
  H.drop t ~filter:(fun _ _ m -> msg_kind m = "commit");
  (* Elect r1, delivering only the election traffic and withholding the
     old leader's prepare_ack (whose snapshot would catch r1 up at
     once): r1 wins with r2's ack, holding instance 1 only as a
     recovered accepted entry whose re-proposal is still in flight. *)
  H.feed t 1 (Timer Suspicion_tick);
  H.advance t 1000.0;
  H.feed t 1 (Timer Suspicion_tick);
  H.advance t 50.0;
  ignore (H.fire t 1 (function Stability_check _ -> true | _ -> false));
  let election src _ m =
    msg_kind m = "prepare" || (msg_kind m = "prepare_ack" && src <> 0)
  in
  H.deliver_all ~filter:election t;
  Alcotest.(check bool) "r1 leads" true (Replica.is_leader t.replicas.(1));
  Alcotest.(check int) "r1 still behind" 0 (Replica.commit_point t.replicas.(1));
  (* A read lands in the recovery window: no reply may go out, stale or
     otherwise, and it must not be shed — it waits. *)
  H.submit t (H.client_request ~client:2 ~seq:1 ~rtype:Read ~payload:get ());
  Alcotest.(check (list reject)) "no reply during recovery" [] (H.take_replies t);
  (* Recovery commits; the deferred read runs on the caught-up state.
     (The re-proposal also re-sends the write's stored reply, so filter
     for the read's client.) *)
  H.deliver_all t;
  match
    List.filter
      (fun (r : reply) -> Grid_util.Ids.Client_id.to_int r.req.client = 2)
      (H.take_replies t)
  with
  | [ { status = Ok; payload; _ } ] ->
    Alcotest.(check int) "read reflects the recovered write" 5
      (Counter.decode_result payload)
  | rs -> Alcotest.failf "expected the deferred read's reply, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Arrival shapes *)

let test_arrival_shapes () =
  let burst = Workload.Burst { period_ms = 100.0; duty = 0.2; factor = 5.0 } in
  Alcotest.(check (float 1e-9)) "burst: inside the window" 5.0
    (Workload.relative_rate burst ~t:10.0);
  Alcotest.(check (float 1e-9)) "burst: outside the window" 1.0
    (Workload.relative_rate burst ~t:50.0);
  Alcotest.(check (float 1e-9)) "burst: next period bursts again" 5.0
    (Workload.relative_rate burst ~t:110.0);
  Alcotest.(check (float 1e-9)) "burst peak" 5.0 (Workload.peak_rate burst);
  let diurnal = Workload.Diurnal { period_ms = 1000.0; trough = 0.25 } in
  Alcotest.(check (float 1e-6)) "diurnal: noon" 1.0
    (Workload.relative_rate diurnal ~t:250.0);
  Alcotest.(check (float 1e-6)) "diurnal: midnight" 0.25
    (Workload.relative_rate diurnal ~t:750.0);
  Alcotest.(check (float 1e-9)) "diurnal peak is the nominal rate" 1.0
    (Workload.peak_rate diurnal)

(* ------------------------------------------------------------------ *)
(* Session pool + open loop *)

module OL = Workload.Make (Noop)

let check_accounting (r : Workload.open_loop_results) =
  Alcotest.(check int) "arrivals = completed + dropped + still_inflight"
    r.arrivals
    (r.completed + r.dropped + r.still_inflight)

(* Burst arrivals through the session pool: the realized rate is the
   nominal rate scaled by the shape's mean relative rate (here
   0.2*5 + 0.8 = 1.8x), and the accounting identity holds. *)
let test_sessions_burst_shape () =
  let t =
    OL.RT.create ~cfg:(Config.default ~n:3) ~scenario:Scenario.sysnet ~seed:21 ()
  in
  ignore (OL.RT.await_leader t);
  let pool = OL.Sess.create t in
  let r =
    OL.run_sessions pool ~seed:23 ~rps:1_000.0 ~duration_ms:400.0
      ~shape:(Workload.Burst { period_ms = 100.0; duty = 0.2; factor = 5.0 })
      ~item:(Runtime.Do Noop.Noop_write) ()
  in
  check_accounting r;
  Alcotest.(check bool)
    (Printf.sprintf "burst arrivals ~720 (%d)" r.arrivals)
    true
    (r.arrivals > 500 && r.arrivals < 950);
  Alcotest.(check int) "pool never exhausted" 0 r.dropped;
  Alcotest.(check bool) "sessions recycled, not one per arrival" true
    (OL.Sess.sessions pool < r.arrivals)

(* The tentpole scale claim: one simulation sustains >= 10^5 concurrent
   open-loop sessions. Arrivals outrun a deliberately slow service
   (5 ms/request ~ 200 req/s), so nearly every arrival is still in
   flight when the run ends — each holding a live session. *)
let test_hundred_thousand_sessions () =
  let cfg = Config.make ~base:(Config.default ~n:3) ~execution_cost_ms:5.0 () in
  let t = OL.RT.create ~cfg ~scenario:Scenario.sysnet ~seed:31 () in
  ignore (OL.RT.await_leader t);
  let pool = OL.Sess.create t in
  let r =
    OL.run_sessions pool ~seed:33 ~rps:300_000.0 ~duration_ms:400.0 ~grace_ms:0.0
      ~item:(Runtime.Do Noop.Noop_write) ()
  in
  check_accounting r;
  Alcotest.(check int) "no arrival was refused" 0 r.dropped;
  Alcotest.(check bool)
    (Printf.sprintf "peak concurrent sessions >= 100000 (%d)"
       (OL.Sess.peak_in_flight pool))
    true
    (OL.Sess.peak_in_flight pool >= 100_000);
  Alcotest.(check bool)
    (Printf.sprintf "still in flight at the horizon (%d)" r.still_inflight)
    true
    (r.still_inflight >= 100_000)

let suite =
  [
    ( "overload.client_backoff",
      [
        Alcotest.test_case "jitter bounds and doubling" `Quick
          test_backoff_bounds_and_doubling;
        Alcotest.test_case "large retry_after hints are honored" `Quick
          test_backoff_honors_large_hint;
        Alcotest.test_case "backstop suppressed inside the window" `Quick
          test_backoff_suppresses_backstop;
        Alcotest.test_case "completion resets the backoff" `Quick
          test_backoff_resets_on_completion;
      ] );
    ( "overload.admission",
      [
        Alcotest.test_case "reads shed before writes" `Quick
          test_shed_reads_before_writes;
        Alcotest.test_case "writes shed at the queue bound" `Quick
          test_shed_writes_at_bound;
        Alcotest.test_case "admitted read retransmission kept" `Quick
          test_admitted_read_retransmission_kept;
        Alcotest.test_case "no duplicate execution after retry" `Quick
          test_no_duplicate_execution_after_retry;
        Alcotest.test_case "reads deferred during leader recovery" `Quick
          test_read_deferred_during_recovery;
      ] );
    ( "overload.open_loop",
      [
        Alcotest.test_case "arrival shapes" `Quick test_arrival_shapes;
        Alcotest.test_case "burst arrivals through the session pool" `Quick
          test_sessions_burst_shape;
        Alcotest.test_case "10^5 concurrent sessions" `Slow
          test_hundred_thousand_sessions;
      ] );
  ]
