(* Tests for the discrete-event engine, latency models, simulated network
   and fault injection. *)

module Engine = Grid_sim.Engine
module Latency = Grid_sim.Latency
module Network = Grid_sim.Network
module Fault = Grid_sim.Fault
module Recorder = Grid_obs.Span.Recorder
module Rng = Grid_util.Rng
module Stats = Grid_util.Stats

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_order () =
  let eng = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule eng ~delay:3.0 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule eng ~delay:2.0 (fun () -> log := 2 :: !log));
  Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "now at last event" 3.0 (Engine.now eng)

let test_engine_fifo_ties () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule eng ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "insertion order at same time" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let t = Engine.schedule eng ~delay:1.0 (fun () -> fired := true) in
  Alcotest.(check int) "pending" 1 (Engine.pending eng);
  Engine.cancel eng t;
  Alcotest.(check int) "pending after cancel" 0 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check bool) "not fired" false !fired;
  Engine.cancel eng t (* idempotent *)

let test_engine_until () =
  let eng = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule eng ~delay:(Float.of_int i) (fun () -> incr count))
  done;
  Engine.run ~until:5.5 eng;
  Alcotest.(check int) "events before horizon" 5 !count;
  Alcotest.(check (float 1e-9)) "now at horizon" 5.5 (Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "rest run later" 10 !count

let test_engine_nested_schedule () =
  let eng = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule eng ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule eng ~delay:0.0 (fun () -> log := "inner" :: !log))));
  Engine.run eng;
  Alcotest.(check (list string)) "nested zero-delay fires" [ "outer"; "inner" ]
    (List.rev !log)

let test_engine_negative_delay_clamped () =
  let eng = Engine.create () in
  let at = ref (-1.0) in
  ignore (Engine.schedule eng ~delay:5.0 (fun () ->
       ignore (Engine.schedule eng ~delay:(-3.0) (fun () -> at := Engine.now eng))));
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "clamped to now" 5.0 !at

let test_engine_max_events () =
  let eng = Engine.create () in
  (* A self-perpetuating event chain. *)
  let rec arm () = ignore (Engine.schedule eng ~delay:1.0 arm) in
  arm ();
  Engine.run ~max_events:50 eng;
  Alcotest.(check int) "bounded" 50 (Engine.fired eng)

(* ------------------------------------------------------------------ *)
(* Latency models *)

let test_latency_constant () =
  let rng = Rng.of_int 1 in
  Alcotest.(check (float 1e-9)) "constant" 2.5 (Latency.sample (Constant 2.5) rng);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Latency.mean (Constant 2.5))

let sample_mean model n =
  let rng = Rng.of_int 99 in
  let acc = Stats.create () in
  for _ = 1 to n do
    Stats.add acc (Latency.sample model rng)
  done;
  acc

let test_latency_uniform () =
  let acc = sample_mean (Uniform { lo = 1.0; hi = 3.0 }) 50_000 in
  Alcotest.(check (float 0.02)) "mean" 2.0 (Stats.mean acc);
  Alcotest.(check bool) "bounds" true (Stats.min_value acc >= 1.0 && Stats.max_value acc < 3.0)

let test_latency_lognormal () =
  let acc = sample_mean (Lognormal { mean = 45.0; cv = 0.1 }) 100_000 in
  Alcotest.(check (float 0.3)) "real-space mean" 45.0 (Stats.mean acc);
  Alcotest.(check bool) "never negative" true (Stats.min_value acc >= 0.0)

let test_latency_exponential_shifted () =
  let acc = sample_mean (Exponential_shifted { base = 1.0; mean_extra = 2.0 }) 50_000 in
  Alcotest.(check (float 0.1)) "mean" 3.0 (Stats.mean acc);
  Alcotest.(check bool) "floor at base" true (Stats.min_value acc >= 1.0)

let test_latency_empirical () =
  let rng = Rng.of_int 5 in
  let model = Latency.Empirical [| 1.0; 2.0; 3.0 |] in
  for _ = 1 to 100 do
    let v = Latency.sample model rng in
    Alcotest.(check bool) "one of samples" true (List.mem v [ 1.0; 2.0; 3.0 ])
  done;
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Latency.mean model);
  Alcotest.(check (float 1e-9)) "empty empirical" 0.0
    (Latency.sample (Empirical [||]) rng)

let test_latency_scale () =
  Alcotest.(check (float 1e-9)) "scaled constant" 5.0
    (Latency.mean (Latency.scale (Constant 2.5) 2.0));
  Alcotest.(check (float 1e-9)) "scaled lognormal mean" 90.0
    (Latency.mean (Latency.scale (Lognormal { mean = 45.0; cv = 0.1 }) 2.0))

(* ------------------------------------------------------------------ *)
(* Network *)

let mk_net () =
  let eng = Engine.create () in
  let net = Network.create eng (Rng.of_int 7) in
  (eng, net)

let test_network_delivery () =
  let eng, net = mk_net () in
  let got = ref [] in
  Network.add_node net ~id:0 (fun ~src:_ _ -> ());
  Network.add_node net ~id:1 (fun ~src msg -> got := (src, msg, Engine.now eng) :: !got);
  Network.set_link net ~src:0 ~dst:1 (Constant 2.0);
  Network.send net ~src:0 ~dst:1 "hello";
  Engine.run eng;
  match !got with
  | [ (src, msg, at) ] ->
    Alcotest.(check int) "src" 0 src;
    Alcotest.(check string) "payload" "hello" msg;
    Alcotest.(check (float 1e-9)) "latency" 2.0 at
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_network_fifo_per_pair () =
  let eng = Engine.create () in
  let net = Network.create eng (Rng.of_int 11) in
  let got = ref [] in
  Network.add_node net ~id:0 (fun ~src:_ _ -> ());
  Network.add_node net ~id:1 (fun ~src:_ msg -> got := msg :: !got);
  (* High-variance link: without the FIFO clamp, later sends could
     overtake earlier ones. *)
  Network.set_link net ~src:0 ~dst:1 (Uniform { lo = 0.1; hi = 10.0 });
  for i = 1 to 50 do
    Network.send net ~src:0 ~dst:1 (string_of_int i)
  done;
  Engine.run eng;
  Alcotest.(check (list string)) "in order"
    (List.init 50 (fun i -> string_of_int (i + 1)))
    (List.rev !got)

let test_network_crash_drops () =
  let eng, net = mk_net () in
  let got = ref 0 in
  Network.add_node net ~id:0 (fun ~src:_ _ -> ());
  Network.add_node net ~id:1 (fun ~src:_ _ -> incr got);
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 "lost";
  Engine.run eng;
  Alcotest.(check int) "dropped" 0 !got;
  Alcotest.(check bool) "counted" true ((Network.stats net).dropped >= 1);
  Network.recover net 1;
  Network.send net ~src:0 ~dst:1 "ok";
  Engine.run eng;
  Alcotest.(check int) "delivered after recover" 1 !got

let test_network_crashed_sender () =
  let eng, net = mk_net () in
  let got = ref 0 in
  Network.add_node net ~id:0 (fun ~src:_ _ -> ());
  Network.add_node net ~id:1 (fun ~src:_ _ -> incr got);
  Network.crash net 0;
  Network.send net ~src:0 ~dst:1 "from the grave";
  Engine.run eng;
  Alcotest.(check int) "crashed node cannot send" 0 !got

let test_network_inflight_to_crashed () =
  let eng, net = mk_net () in
  let got = ref 0 in
  Network.add_node net ~id:0 (fun ~src:_ _ -> ());
  Network.add_node net ~id:1 (fun ~src:_ _ -> incr got);
  Network.set_link net ~src:0 ~dst:1 (Constant 5.0);
  Network.send net ~src:0 ~dst:1 "in flight";
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> Network.crash net 1));
  Engine.run eng;
  Alcotest.(check int) "in-flight message to crashed node dropped" 0 !got

let test_network_partition_heal () =
  let eng, net = mk_net () in
  let got = ref 0 in
  Network.add_node net ~id:0 (fun ~src:_ _ -> ());
  Network.add_node net ~id:1 (fun ~src:_ _ -> incr got);
  Network.partition net [ 0 ] [ 1 ];
  Network.send net ~src:0 ~dst:1 "cut";
  Engine.run eng;
  Alcotest.(check int) "partitioned" 0 !got;
  Network.heal net;
  Network.send net ~src:0 ~dst:1 "healed";
  Engine.run eng;
  Alcotest.(check int) "after heal" 1 !got

let test_network_drop_rate () =
  let eng, net = mk_net () in
  let got = ref 0 in
  Network.add_node net ~id:0 (fun ~src:_ _ -> ());
  Network.add_node net ~id:1 (fun ~src:_ _ -> incr got);
  Network.set_drop_rate net 1.0;
  for _ = 1 to 20 do
    Network.send net ~src:0 ~dst:1 "x"
  done;
  Engine.run eng;
  Alcotest.(check int) "all dropped" 0 !got;
  Network.set_drop_rate net 0.0;
  Network.send net ~src:0 ~dst:1 "y";
  Engine.run eng;
  Alcotest.(check int) "back to reliable" 1 !got

let test_network_cpu_serialization () =
  (* Two messages arriving together at a node with recv_cost are processed
     back to back, not in parallel. *)
  let eng, net = mk_net () in
  let times = ref [] in
  Network.add_node net ~id:0 (fun ~src:_ _ -> ());
  Network.add_node net ~id:2 (fun ~src:_ _ -> ());
  Network.add_node net ~id:1 ~recv_cost:1.0 (fun ~src:_ _ ->
      times := Engine.now eng :: !times);
  Network.set_link net ~src:0 ~dst:1 (Constant 1.0);
  Network.set_link net ~src:2 ~dst:1 (Constant 1.0);
  Network.send net ~src:0 ~dst:1 "a";
  Network.send net ~src:2 ~dst:1 "b";
  Engine.run eng;
  (match List.rev !times with
  | [ t1; t2 ] ->
    Alcotest.(check (float 1e-9)) "first done at 2" 2.0 t1;
    Alcotest.(check (float 1e-9)) "second queued behind" 3.0 t2
  | _ -> Alcotest.fail "expected two deliveries");
  (* Send cost delays departure of back-to-back sends. *)
  let eng2 = Engine.create () in
  let net2 = Network.create eng2 (Rng.of_int 3) in
  let times2 = ref [] in
  Network.add_node net2 ~id:0 ~send_cost:0.5 (fun ~src:_ _ -> ());
  Network.add_node net2 ~id:1 (fun ~src:_ _ -> times2 := Engine.now eng2 :: !times2);
  Network.set_link net2 ~src:0 ~dst:1 (Constant 1.0);
  Network.send net2 ~src:0 ~dst:1 "a";
  Network.send net2 ~src:0 ~dst:1 "b";
  Engine.run eng2;
  match List.rev !times2 with
  | [ t1; t2 ] ->
    Alcotest.(check (float 1e-9)) "first departs at 0.5" 1.5 t1;
    Alcotest.(check (float 1e-9)) "second departs at 1.0" 2.0 t2
  | _ -> Alcotest.fail "expected two deliveries"

let test_network_unknown_node () =
  let eng, net = mk_net () in
  ignore eng;
  Network.add_node net ~id:0 (fun ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:42 "void";
  Alcotest.(check int) "dropped" 1 (Network.stats net).dropped

let test_network_broadcast () =
  let eng, net = mk_net () in
  let got = ref 0 in
  Network.add_node net ~id:0 (fun ~src:_ _ -> ());
  Network.add_node net ~id:1 (fun ~src:_ _ -> incr got);
  Network.add_node net ~id:2 (fun ~src:_ _ -> incr got);
  Network.broadcast net ~src:0 ~dsts:[ 1; 2 ] "all";
  Engine.run eng;
  Alcotest.(check int) "both delivered" 2 !got

(* ------------------------------------------------------------------ *)
(* Fault schedules *)

let test_fault_schedule () =
  let eng, net = mk_net () in
  let got = ref 0 in
  Network.add_node net ~id:0 (fun ~src:_ _ -> incr got);
  Network.add_node net ~id:1 (fun ~src:_ _ -> ());
  Network.set_link net ~src:1 ~dst:0 (Constant 0.5);
  Fault.install net
    [
      { at = 5.0; event = Crash 0 };
      { at = 10.0; event = Recover 0 };
    ];
  (* A message to node 0 arriving at 6.5 is dropped; one at 11.5 lands. *)
  ignore (Engine.schedule_at eng ~time:6.0 (fun () -> Network.send net ~src:1 ~dst:0 "down"));
  Engine.run ~until:8.0 eng;
  Alcotest.(check int) "down at 6" 0 !got;
  ignore (Engine.schedule_at eng ~time:11.0 (fun () -> Network.send net ~src:1 ~dst:0 "up"));
  Engine.run ~until:12.0 eng;
  Alcotest.(check int) "up at 11" 1 !got

let test_fault_periodic () =
  let entries =
    Fault.periodic_crash_recover ~node:2 ~period:100.0 ~downtime:10.0 ~until:350.0
  in
  Alcotest.(check int) "three crash/recover pairs" 6 (List.length entries);
  let crashes =
    List.filter (fun (e : Fault.entry) -> match e.event with Crash _ -> true | _ -> false) entries
  in
  Alcotest.(check (list (float 1e-9))) "crash times" [ 100.0; 200.0; 300.0 ]
    (List.map (fun (e : Fault.entry) -> e.at) crashes)

(* ------------------------------------------------------------------ *)
(* Trace notes via the span recorder (what drivers use for Note actions) *)

let test_trace () =
  let tr = Recorder.create ~capacity:3 ~enabled:true () in
  Recorder.note tr ~time:1.0 ~actor:"a" "one";
  Recorder.note tr ~time:2.0 ~actor:"b" "two";
  Recorder.note tr ~time:3.0 ~actor:"c" "three";
  Recorder.note tr ~time:4.0 ~actor:"d" "four";
  Alcotest.(check int) "bounded" 3 (List.length (Recorder.events tr));
  let disabled = Recorder.create ~enabled:false () in
  Recorder.note disabled ~time:1.0 ~actor:"x" "ignored";
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Recorder.events disabled))

let suite =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "time order" `Quick test_engine_order;
        Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "run until" `Quick test_engine_until;
        Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
        Alcotest.test_case "negative delay clamps" `Quick test_engine_negative_delay_clamped;
        Alcotest.test_case "max events" `Quick test_engine_max_events;
      ] );
    ( "sim.latency",
      [
        Alcotest.test_case "constant" `Quick test_latency_constant;
        Alcotest.test_case "uniform" `Quick test_latency_uniform;
        Alcotest.test_case "lognormal" `Quick test_latency_lognormal;
        Alcotest.test_case "exponential shifted" `Quick test_latency_exponential_shifted;
        Alcotest.test_case "empirical" `Quick test_latency_empirical;
        Alcotest.test_case "scale" `Quick test_latency_scale;
      ] );
    ( "sim.network",
      [
        Alcotest.test_case "delivery" `Quick test_network_delivery;
        Alcotest.test_case "fifo per pair" `Quick test_network_fifo_per_pair;
        Alcotest.test_case "crash drops" `Quick test_network_crash_drops;
        Alcotest.test_case "crashed sender" `Quick test_network_crashed_sender;
        Alcotest.test_case "in-flight to crashed" `Quick test_network_inflight_to_crashed;
        Alcotest.test_case "partition/heal" `Quick test_network_partition_heal;
        Alcotest.test_case "drop rate" `Quick test_network_drop_rate;
        Alcotest.test_case "cpu serialization" `Quick test_network_cpu_serialization;
        Alcotest.test_case "unknown node" `Quick test_network_unknown_node;
        Alcotest.test_case "broadcast" `Quick test_network_broadcast;
      ] );
    ( "sim.fault",
      [
        Alcotest.test_case "schedule" `Quick test_fault_schedule;
        Alcotest.test_case "periodic" `Quick test_fault_periodic;
      ] );
    ("sim.trace", [ Alcotest.test_case "bounded + disabled" `Quick test_trace ]);
  ]
