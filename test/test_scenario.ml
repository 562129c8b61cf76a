(* Tests for the calibrated scenarios and the full message wire codec. *)

module Scenario = Grid_runtime.Scenario
module Latency = Grid_sim.Latency
module Rng = Grid_util.Rng
module Ids = Grid_util.Ids
module Wire = Grid_codec.Wire
open Grid_paxos.Types

(* ------------------------------------------------------------------ *)
(* Scenario structure *)

let test_scenario_shapes () =
  List.iter
    (fun (sc : Scenario.t) ->
      Alcotest.(check int) (sc.name ^ " has 3 replicas") 3 sc.n;
      (* Latency models are sane: positive means, symmetric replica links. *)
      for i = 0 to 2 do
        for j = 0 to 2 do
          if i <> j then begin
            let m = Latency.mean (sc.replica_link i j) in
            Alcotest.(check bool) "positive replica latency" true (m > 0.0);
            Alcotest.(check (float 1e-9)) "symmetric replica links" m
              (Latency.mean (sc.replica_link j i))
          end
        done;
        Alcotest.(check bool) "positive client latency" true
          (Latency.mean (sc.client_link i) > 0.0)
      done)
    [ Scenario.sysnet; Scenario.princeton; Scenario.wan ]

let test_sysnet_is_lan () =
  let sc = Scenario.sysnet in
  Alcotest.(check bool) "sub-ms links" true
    (Latency.mean (sc.replica_link 0 1) < 1.0 && Latency.mean (sc.client_link 0) < 1.0)

let test_wan_leader_is_closest_to_no_one () =
  (* WAN: the client is far from the leader (UIUC) but closer to the
     followers — the geometry behind Figure 8's read advantage. *)
  let sc = Scenario.wan in
  let to_leader = Latency.mean (sc.client_link 0) in
  let to_follower = Latency.mean (sc.client_link 1) in
  Alcotest.(check bool) "followers closer to clients" true (to_follower < to_leader)

let test_scale_latency () =
  let sc = Scenario.scale_latency Scenario.sysnet 10.0 in
  Alcotest.(check (float 1e-6)) "scaled replica link"
    (10.0 *. Latency.mean (Scenario.sysnet.replica_link 0 1))
    (Latency.mean (sc.replica_link 0 1))

let test_with_cv () =
  let sc = Scenario.with_cv Scenario.wan 0.5 in
  (match sc.replica_link 0 1 with
  | Latency.Lognormal { cv; mean } ->
    Alcotest.(check (float 1e-9)) "cv replaced" 0.5 cv;
    Alcotest.(check (float 1e-9)) "mean kept"
      (Latency.mean (Scenario.wan.replica_link 0 1))
      mean
  | _ -> Alcotest.fail "expected lognormal");
  (* Means unchanged so calibration survives the sweep. *)
  Alcotest.(check (float 1e-9)) "client mean kept"
    (Latency.mean (Scenario.wan.client_link 0))
    (Latency.mean (sc.client_link 0))

let test_with_n () =
  let sc = Scenario.with_n Scenario.wan 5 in
  Alcotest.(check int) "five replicas" 5 sc.n;
  (* Tiled links stay defined and positive. *)
  for i = 0 to 4 do
    for j = 0 to 4 do
      if i <> j then
        Alcotest.(check bool) "tiled link positive" true
          (Latency.mean (sc.replica_link i j) >= 0.0)
    done
  done

let test_clients_per_machine () =
  let f = Scenario.sysnet.clients_per_machine in
  Alcotest.(check int) "8 clients -> 1 per host" 1 (f 8);
  Alcotest.(check int) "16 clients -> 2" 2 (f 16);
  Alcotest.(check int) "128 clients -> 16" 16 (f 128)

let test_server_load_factor () =
  let f = Scenario.sysnet.server_load_factor in
  Alcotest.(check bool) "grows with clients" true (f 128 > f 8);
  Alcotest.(check bool) "wan flat" true
    (Scenario.wan.server_load_factor 128 = Scenario.wan.server_load_factor 1)

(* ------------------------------------------------------------------ *)
(* Full message codec property over every variant. *)

let gen_ballot =
  QCheck2.Gen.(
    map (fun (r, h) -> Ballot.make ~round:r ~holder:h) (pair (int_range 0 100) (int_range 0 6)))

let gen_request =
  QCheck2.Gen.(
    map
      (fun (c, s, p) ->
        ({ id = Ids.Request_id.make ~client:(Ids.Client_id.of_int c) ~seq:s;
           rtype = Write; payload = p; trace = no_trace } : request))
      (triple (int_range 0 50) (int_range 0 1000) (string_size (int_range 0 12))))

let gen_reply =
  QCheck2.Gen.(
    map
      (fun (c, s, p) ->
        ({ req = Ids.Request_id.make ~client:(Ids.Client_id.of_int c) ~seq:s;
           status = Ok; payload = p } : reply))
      (triple (int_range 0 50) (int_range 0 1000) (string_size (int_range 0 12))))

let gen_proposal =
  QCheck2.Gen.(
    map
      (fun (reqs, s, replies) ->
        ({ requests = reqs; update = Full s; replies } : proposal))
      (triple (list_size (int_range 0 3) gen_request) (string_size (int_range 0 12))
         (list_size (int_range 0 3) gen_reply)))

let gen_msg =
  QCheck2.Gen.(
    oneof
      [
        map (fun r -> Client_req r) gen_request;
        map (fun r -> Reply_msg r) gen_reply;
        map2 (fun b cp -> Prepare { ballot = b; commit_point = cp }) gen_ballot (int_range 0 500);
        map
          (fun (b, cp, snap, entries) ->
            Prepare_ack
              { ballot = b; commit_point = cp; snapshot = snap;
                accepted =
                  List.mapi (fun k (bb, p) -> { instance = cp + k + 1; ballot = bb; proposal = p }) entries })
          (quad gen_ballot (int_range 0 500) (option (string_size (int_range 0 12)))
             (list_size (int_range 0 2) (pair gen_ballot gen_proposal)));
        map2 (fun (b, i) p -> Accept { ballot = b; instance = i; proposal = p })
          (pair gen_ballot (int_range 1 500)) gen_proposal;
        map (fun (b, i) -> Accept_ack { ballot = b; instance = i })
          (pair gen_ballot (int_range 1 500));
        map (fun b -> Reject { promised = b }) gen_ballot;
        map (fun (b, i) -> Commit { ballot = b; instance = i })
          (pair gen_ballot (int_range 1 500));
        map2 (fun (b, a) (c, s) ->
            Read_confirm
              { ballot = b;
                req = Ids.Request_id.make ~client:(Ids.Client_id.of_int c) ~seq:s;
                lease_anchor = Float.of_int a })
          (pair gen_ballot (int_range 0 1000)) (pair (int_range 0 50) (int_range 0 500));
        map2 (fun (rs, cp) (b, sa) ->
            Heartbeat
              { round_seen = rs;
                commit_point = cp;
                promised = b;
                sent_at = Float.of_int sa;
                lease_anchor = Float.of_int sa -. 7.5 })
          (pair (int_range 0 100) (int_range 0 500)) (pair gen_ballot (int_range 0 1000));
        map (fun i -> Catchup_req { from_instance = i }) (int_range 1 500);
        map (fun s -> Catchup { snapshot = s }) (string_size (int_range 0 12));
      ])

let prop_msg_roundtrip =
  QCheck2.Test.make ~name:"every msg variant roundtrips on the wire" ~count:500 gen_msg
    (fun m ->
      let encoded = Wire.encode (fun e -> encode_msg e m) in
      let decoded = Wire.decode encoded decode_msg in
      decoded = m)

let prop_msg_size_positive =
  QCheck2.Test.make ~name:"msg_size positive and bounded by encoding" ~count:300 gen_msg
    (fun m ->
      let est = msg_size m in
      est > 0)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "scenario",
      [
        Alcotest.test_case "shapes" `Quick test_scenario_shapes;
        Alcotest.test_case "sysnet is a LAN" `Quick test_sysnet_is_lan;
        Alcotest.test_case "wan geometry" `Quick test_wan_leader_is_closest_to_no_one;
        Alcotest.test_case "scale_latency" `Quick test_scale_latency;
        Alcotest.test_case "with_cv keeps calibration" `Quick test_with_cv;
        Alcotest.test_case "with_n tiles links" `Quick test_with_n;
        Alcotest.test_case "clients per machine" `Quick test_clients_per_machine;
        Alcotest.test_case "server load factor" `Quick test_server_load_factor;
      ] );
    ("wire.msg", qcheck [ prop_msg_roundtrip; prop_msg_size_positive ]);
  ]
