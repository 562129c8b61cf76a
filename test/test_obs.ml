(* Tests for the observability layer: JSON emitter/parser, the metrics
   registry and its Prometheus exposition, span JSONL round-trips,
   lifecycle reconstruction from a traced simulation (including the
   X-Paxos read shape: no accept round), and trace determinism (same
   seed => byte-identical dump). *)

module Json = Grid_obs.Json
module Metrics = Grid_obs.Metrics
module Span = Grid_obs.Span
module Lifecycle = Grid_obs.Lifecycle
module Ids = Grid_util.Ids
module Scenario = Grid_runtime.Scenario
module Noop = Grid_services.Noop
module Stress = Grid_check.Stress
open Grid_paxos.Types
module RT = Grid_runtime.Runtime.Make (Noop)

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [ ("s", Json.Str "a \"quoted\" \\ line\nwith\ttabs");
        ("n", Json.Num 3.25); ("i", Json.int 42); ("neg", Json.Num (-0.125));
        ("big", Json.Num 1e300); ("null", Json.Null); ("t", Json.Bool true);
        ("arr", Json.Arr [ Json.int 1; Json.Str "x"; Json.Obj [] ]);
        ("empty", Json.Arr []) ]
  in
  let s = Json.to_string doc in
  let reparsed = Json.of_string s in
  Alcotest.(check string) "emit-parse-emit fixpoint" s (Json.to_string reparsed);
  let pretty = Json.to_string_pretty doc in
  Alcotest.(check string) "pretty parses to same doc" s
    (Json.to_string (Json.of_string pretty))

let test_json_parse_escapes () =
  let v = Json.of_string {|{"u": "Aé", "e": "\n\t\\\""}|} in
  Alcotest.(check (option string)) "unicode escapes" (Some "A\xc3\xa9")
    (Option.bind (Json.member "u" v) Json.to_str);
  Alcotest.(check (option string)) "control escapes" (Some "\n\t\\\"")
    (Option.bind (Json.member "e" v) Json.to_str)

let test_json_errors () =
  let bad = [ ""; "{"; "[1,"; "nul"; {|{"a" 1}|}; "1 2"; {|"unterminated|} ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed input %S" s)
    bad

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_counters_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "requests_total" ~help:"Requests" in
  let g = Metrics.gauge m "depth" ~help:"Queue depth" in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  Metrics.set g 2.5;
  (match Metrics.counter m "requests_total" ~help:"dup" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate registration accepted");
  let json = Metrics.to_json m in
  let value name =
    Option.bind (Json.member name json) (fun m -> Json.member "value" m)
  in
  Alcotest.(check (option int)) "counter in snapshot" (Some 5)
    (Option.bind (value "requests_total") Json.to_int);
  Alcotest.(check (option (float 0.0))) "gauge in snapshot" (Some 2.5)
    (Option.bind (value "depth") Json.to_float)

let test_metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat_ms" ~help:"Latency" ~lo:0.1 ~hi:1000.0 ~bins:40 in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 2.0; 40.0; 400.0 ];
  let json = Metrics.to_json m in
  let hist = Option.get (Json.member "lat_ms" json) in
  Alcotest.(check (option int)) "count" (Some 5)
    (Option.bind (Json.member "count" hist) Json.to_int);
  let sum = Option.bind (Json.member "sum" hist) Json.to_float in
  Alcotest.(check (option (float 1e-9))) "sum" (Some 443.5) sum

let test_metrics_exposition () =
  let m = Metrics.create () in
  let c = Metrics.counter m "b_total" ~help:"Second" in
  let _g = Metrics.gauge m "a_depth" ~help:"First" in
  let h = Metrics.histogram m "lat" ~help:"Hist" ~lo:1.0 ~hi:100.0 ~bins:2 in
  Metrics.inc ~by:3 c;
  Metrics.observe h 5.0;
  Metrics.observe h 50.0;
  let text = Metrics.expose m in
  (* Names sorted; HELP/TYPE precede samples; histogram is cumulative
     with +Inf, _sum and _count. *)
  let expected =
    "# HELP a_depth First\n# TYPE a_depth gauge\na_depth 0\n\
     # HELP b_total Second\n# TYPE b_total counter\nb_total 3\n\
     # HELP lat Hist\n# TYPE lat histogram\n\
     lat_bucket{le=\"10\"} 1\nlat_bucket{le=\"100\"} 2\n\
     lat_bucket{le=\"+Inf\"} 2\nlat_sum 55\nlat_count 2\n"
  in
  Alcotest.(check string) "exposition golden" expected text

let test_metrics_unregister () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "grid_net_backoff_ms_peer_1" ~help:"Backoff" in
  Metrics.set g 40.0;
  Alcotest.(check bool) "registered" true (Metrics.mem m "grid_net_backoff_ms_peer_1");
  Metrics.unregister m "grid_net_backoff_ms_peer_1";
  Alcotest.(check bool) "gone" false (Metrics.mem m "grid_net_backoff_ms_peer_1");
  Alcotest.(check string) "exposition empty" "" (Metrics.expose m);
  (* The name is free again: a restarted node re-registers cleanly. *)
  let g' = Metrics.gauge m "grid_net_backoff_ms_peer_1" ~help:"Backoff" in
  Metrics.set g' 3.0;
  Alcotest.(check string) "fresh gauge exposed"
    "# HELP grid_net_backoff_ms_peer_1 Backoff\n\
     # TYPE grid_net_backoff_ms_peer_1 gauge\n\
     grid_net_backoff_ms_peer_1 3\n"
    (Metrics.expose m);
  (* Unregistering an absent name is a no-op, not an error. *)
  Metrics.unregister m "never_registered"

(* ------------------------------------------------------------------ *)
(* Span recorder and JSONL *)

let req ~client ~seq = { Ids.Request_id.client = Ids.Client_id.of_int client; seq }

let test_recorder_disabled_records_nothing () =
  let r = Span.Recorder.create ~enabled:false () in
  Span.Recorder.span r ~time:1.0 ~actor:"r0" ~req:(req ~client:0 ~seq:1)
    ~instance:0 ~detail:"" Span.Propose;
  Span.Recorder.msg r ~time:1.0 ~actor:"r0" ~kind:"accept" ~dst:1;
  Span.Recorder.note r ~time:1.0 ~actor:"r0" "boo";
  Alcotest.(check int) "empty" 0 (Span.Recorder.length r);
  Alcotest.(check bool) "disabled" false (Span.Recorder.enabled r)

let test_span_jsonl_roundtrip () =
  let events =
    [ { Span.time = 0.0; actor = "c0";
        body = Span.Span { req = req ~client:0 ~seq:1; phase = Span.Client_send;
                           instance = -1; detail = ""; tid = 0; parent = "" } };
      { Span.time = 35.125; actor = "r0";
        body = Span.Span { req = req ~client:0 ~seq:1; phase = Span.Leader_receive;
                           instance = -1; detail = "write"; tid = 7; parent = "c0:client_send" } };
      { Span.time = 36.0; actor = "r0"; body = Span.Msg { kind = "accept"; dst = 2 } };
      { Span.time = 37.5; actor = "r1"; body = Span.Note "leader changed" } ]
  in
  let dump = Span.dump_string events in
  let loaded = Span.load_string dump in
  Alcotest.(check int) "all lines parse" (List.length events) (List.length loaded);
  Alcotest.(check string) "dump-load-dump fixpoint" dump (Span.dump_string loaded);
  (* Malformed and blank lines are skipped, valid ones survive. *)
  let dirty = "\n" ^ dump ^ "garbage{\n" in
  Alcotest.(check int) "dirty load" (List.length events)
    (List.length (Span.load_string dirty))

(* ------------------------------------------------------------------ *)
(* Lifecycle over a traced simulation *)

let traced_run ~rtype ~seed =
  let cfg = Grid_paxos.Config.default ~n:3 in
  let t = RT.create ~cfg ~scenario:Scenario.wan ~seed ~trace:true () in
  let payload =
    Noop.encode_op (match rtype with Read -> Noop.Noop_read | _ -> Noop.Noop_write)
  in
  let _results =
    RT.run_closed_loop t ~clients:2 ~requests_per_client:5 ~gen:(fun ~client:_ () ->
        Some (rtype, payload))
  in
  Span.Recorder.events (RT.obs t)

let test_lifecycle_write_breakdown () =
  let events = traced_run ~rtype:Write ~seed:11 in
  let timelines = Lifecycle.timelines events in
  let completed = List.filter Lifecycle.completed timelines in
  Alcotest.(check int) "all 10 requests completed" 10 (List.length completed);
  List.iter
    (fun (tl : Lifecycle.timeline) ->
      Alcotest.(check bool) "classified basic" true
        (tl.Lifecycle.protocol = Lifecycle.Basic);
      (* Writes go through the accept round. *)
      Alcotest.(check bool) "has propose" true
        (Lifecycle.phase_time tl Span.Propose <> None);
      Alcotest.(check bool) "has accept quorum" true
        (Lifecycle.phase_time tl Span.Accept_quorum <> None);
      match Lifecycle.breakdown tl with
      | None -> Alcotest.fail "no breakdown for completed request"
      | Some b ->
        Alcotest.(check bool) "M recorded" true (Float.is_finite b.Lifecycle.m_wan);
        Alcotest.(check bool) "2m recorded" true (Float.is_finite b.Lifecycle.m_lan2);
        Alcotest.(check bool) "total positive" true (b.Lifecycle.total > 0.0))
    completed

let test_lifecycle_read_skips_accept () =
  let events = traced_run ~rtype:Read ~seed:11 in
  let completed = List.filter Lifecycle.completed (Lifecycle.timelines events) in
  Alcotest.(check bool) "some reads completed" true (completed <> []);
  List.iter
    (fun (tl : Lifecycle.timeline) ->
      Alcotest.(check bool) "classified x-paxos read" true
        (tl.Lifecycle.protocol = Lifecycle.Xpaxos_read);
      (* The X-Paxos optimization: reads never enter the accept round. *)
      Alcotest.(check (option (float 0.0))) "no propose" None
        (Lifecycle.phase_time tl Span.Propose);
      Alcotest.(check (option (float 0.0))) "no accept quorum" None
        (Lifecycle.phase_time tl Span.Accept_quorum);
      match Lifecycle.breakdown tl with
      | None -> Alcotest.fail "no breakdown"
      | Some b ->
        Alcotest.(check bool) "2m absent (nan)" true (Float.is_nan b.Lifecycle.m_lan2))
    completed;
  (* And the per-protocol rollup classifies them the same way. *)
  match Lifecycle.phase_stats events with
  | [ s ] ->
    Alcotest.(check bool) "stats protocol" true (s.Lifecycle.protocol = Lifecycle.Xpaxos_read);
    Alcotest.(check int) "stats count" (List.length completed) s.Lifecycle.count
  | l -> Alcotest.failf "expected one protocol class, got %d" (List.length l)

let test_lifecycle_find_and_slowest () =
  let events = traced_run ~rtype:Write ~seed:3 in
  let slow = Lifecycle.slowest ~n:3 events in
  Alcotest.(check int) "three slowest" 3 (List.length slow);
  (match slow with
  | (_, a) :: (_, b) :: _ ->
    Alcotest.(check bool) "sorted desc" true (a.Lifecycle.total >= b.Lifecycle.total)
  | _ -> Alcotest.fail "unreachable");
  let tl, _ = List.hd slow in
  (match Lifecycle.find events tl.Lifecycle.req with
  | Some found ->
    Alcotest.(check bool) "find returns same request" true
      (found.Lifecycle.req = tl.Lifecycle.req)
  | None -> Alcotest.fail "find lost a request");
  Alcotest.(check bool) "message counts non-empty" true
    (Lifecycle.message_counts events <> [])

(* Satellite: the M/E/2m classification must survive shard-tagged actor
   labels — a sharded run records "s<k>/r<i>" and "s<k>/c<j>" actors, and
   the lifecycle layer classifies each group's requests exactly as it
   does a single-group run. *)
let test_lifecycle_shard_tagged () =
  let module MKv = Grid_shard.Multi.Make (Grid_services.Kv_store) in
  let cfg = Grid_paxos.Config.default ~n:3 in
  let t =
    MKv.create ~seed:17 ~trace:true ~cfg ~scenario:(Scenario.uniform ())
      ~route:Grid_services.Kv_store.route ~shards:2 ()
  in
  let _ =
    MKv.run_closed_loop t ~clients:2 ~requests_per_client:4
      ~gen:(fun ~client () ->
        Some
          (Grid_runtime.Runtime.Do
             (Grid_services.Kv_store.Put
                { key = Printf.sprintf "k%d" client; value = "v" })))
  in
  let events = Span.Recorder.events (MKv.obs t) in
  let tagged =
    List.exists
      (fun (e : Span.event) ->
        String.length e.Span.actor > 3 && String.sub e.Span.actor 0 3 = "s1/")
      events
  in
  Alcotest.(check bool) "some spans tagged s1/" true tagged;
  let completed = List.filter Lifecycle.completed (Lifecycle.timelines events) in
  Alcotest.(check int) "all 8 requests completed" 8 (List.length completed);
  List.iter
    (fun (tl : Lifecycle.timeline) ->
      Alcotest.(check bool) "classified basic" true
        (tl.Lifecycle.protocol = Lifecycle.Basic);
      match Lifecycle.breakdown tl with
      | None -> Alcotest.fail "no breakdown for sharded request"
      | Some b ->
        Alcotest.(check bool) "M recorded" true (Float.is_finite b.Lifecycle.m_wan);
        Alcotest.(check bool) "2m recorded" true
          (Float.is_finite b.Lifecycle.m_lan2))
    completed

(* The simulator's latency metrics registry fills during a run. *)
let test_runtime_metrics () =
  let cfg = Grid_paxos.Config.default ~n:3 in
  let t = RT.create ~cfg ~scenario:Scenario.sysnet ~seed:5 () in
  let payload = Noop.encode_op Noop.Noop_write in
  let _ =
    RT.run_closed_loop t ~clients:1 ~requests_per_client:8 ~gen:(fun ~client:_ () ->
        Some (Write, payload))
  in
  let json = Metrics.to_json (RT.metrics t) in
  let value name =
    Option.bind (Json.member name json) (fun m ->
        Option.bind (Json.member "value" m) Json.to_int)
  in
  Alcotest.(check (option int)) "requests counted" (Some 8) (value "grid_requests_total");
  Alcotest.(check (option int)) "replies counted" (Some 8) (value "grid_replies_total");
  let lat = Option.get (Json.member "grid_request_latency_ms" json) in
  Alcotest.(check (option int)) "latencies observed" (Some 8)
    (Option.bind (Json.member "count" lat) Json.to_int);
  let text = Metrics.expose (RT.metrics t) in
  Alcotest.(check bool) "exposition mentions histogram" true
    (let re = "grid_request_latency_ms_count" in
     let len = String.length re in
     let n = String.length text in
     let rec scan i = i + len <= n && (String.sub text i len = re || scan (i + 1)) in
     scan 0)

(* ------------------------------------------------------------------ *)
(* Determinism: same seed => byte-identical trace dump *)

let test_sim_trace_deterministic () =
  let dump seed =
    Span.dump_string (traced_run ~rtype:Write ~seed)
  in
  Alcotest.(check string) "same seed, same bytes" (dump 7) (dump 7);
  Alcotest.(check bool) "different seed differs" true (dump 7 <> dump 8)

let test_stress_trace_deterministic () =
  let dump seed =
    let obs = Span.Recorder.create ~enabled:true () in
    let _ =
      Stress.run_one ~service:Stress.Counter_service ~obs ~steps:400
        ~shrink:false ~seed ()
    in
    Span.dump_string (Span.Recorder.events obs)
  in
  let d = dump 21 in
  Alcotest.(check bool) "trace non-empty" true (String.length d > 0);
  Alcotest.(check string) "nemesis run deterministic" d (dump 21)

let suite =
  [
    ( "obs.json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "escapes" `Quick test_json_parse_escapes;
        Alcotest.test_case "malformed rejected" `Quick test_json_errors;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "counters and gauges" `Quick test_metrics_counters_gauges;
        Alcotest.test_case "histogram snapshot" `Quick test_metrics_histogram;
        Alcotest.test_case "prometheus exposition" `Quick test_metrics_exposition;
        Alcotest.test_case "unregister" `Quick test_metrics_unregister;
      ] );
    ( "obs.span",
      [
        Alcotest.test_case "disabled recorder is inert" `Quick
          test_recorder_disabled_records_nothing;
        Alcotest.test_case "jsonl roundtrip" `Quick test_span_jsonl_roundtrip;
      ] );
    ( "obs.lifecycle",
      [
        Alcotest.test_case "write breakdown (M/E/2m)" `Quick
          test_lifecycle_write_breakdown;
        Alcotest.test_case "x-paxos reads skip accept round" `Quick
          test_lifecycle_read_skips_accept;
        Alcotest.test_case "find and slowest" `Quick test_lifecycle_find_and_slowest;
        Alcotest.test_case "shard-tagged actors classify" `Quick
          test_lifecycle_shard_tagged;
        Alcotest.test_case "runtime metrics registry" `Quick test_runtime_metrics;
      ] );
    ( "obs.determinism",
      [
        Alcotest.test_case "sim trace byte-identical per seed" `Quick
          test_sim_trace_deterministic;
        Alcotest.test_case "stress trace byte-identical per seed" `Quick
          test_stress_trace_deterministic;
      ] );
  ]
