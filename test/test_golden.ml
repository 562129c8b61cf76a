(* Golden behaviour digests: MD5s of seeded span dumps and stress outcome
   renderings, pinned as literals. The determinism tests elsewhere only
   compare two runs of the same binary; these pin behaviour *across*
   code changes, so a refactor that claims "no behaviour change" must
   leave every digest below untouched. A deliberate behaviour change
   updates the literals in the same commit and says why. *)

module Span = Grid_obs.Span
module Scenario = Grid_runtime.Scenario
module Stress = Grid_check.Stress
module Xstress = Grid_check.Xstress
module Kv = Grid_services.Kv_store
module Wire = Grid_codec.Wire
module Counter = Grid_services.Counter
module Engine = Grid_sim.Engine
module Network = Grid_sim.Network
module Client = Grid_paxos.Client
module Ids = Grid_util.Ids
open Grid_paxos.Types
module RT_kv = Grid_runtime.Runtime.Make (Kv)
module Sp = Grid_paxos.Semi_passive
module SP = Sp.Make (Counter)

let md5 s = Digest.to_hex (Digest.string s)

let stress_dump service seed =
  let obs = Span.Recorder.create ~enabled:true () in
  let _ = Stress.run_one ~service ~obs ~steps:400 ~shrink:false ~seed () in
  Span.dump_string (Span.Recorder.events obs)

(* T-Paxos under contention: three clients run two-op transactions over
   a four-key pool, so commits race, conflict and abort. The dump pins
   the spans; the record list pins every reply status. *)
let traced_txn_run ~seed =
  let cfg = Grid_paxos.Config.default ~n:3 in
  let t = RT_kv.create ~cfg ~scenario:Scenario.wan ~seed ~trace:true () in
  let gen ~client =
    let step = ref 0 in
    fun () ->
      let i = !step in
      incr step;
      let tid = (i / 3) + 1 in
      let key j = Printf.sprintf "k%d" ((client + j + (i / 3)) mod 4) in
      Some
        (match i mod 3 with
        | 0 -> (Txn_op tid, Kv.encode_op (Kv.Put { key = key 0; value = "v" }))
        | 1 -> (Txn_op tid, Kv.encode_op (Kv.Append { key = key 1; value = "a" }))
        | _ -> (Txn_commit tid, Wire.encode (fun e -> Wire.Encoder.uint e 2)))
  in
  let results =
    RT_kv.run_closed_loop t ~clients:3 ~requests_per_client:12 ~gen
  in
  let statuses =
    List.map
      (fun (r : RT_kv.record) ->
        Format.asprintf "%d/%d %a %a" r.rec_client r.rec_seq pp_rtype r.rec_rtype
          pp_status r.rec_status)
      results.records
  in
  Span.dump_string (Span.Recorder.events (RT_kv.obs t)) ^ String.concat "\n" statuses

(* Semi-passive replication (the §5 baseline) on the simulator: one
   closed-loop client adds 1 thirty times on Sysnet, and the round-0
   coordinator crashes 5 ms in; the client's traffic travels wrapped in
   [Sp.Client]. The rendering pins each request's
   latency, the longest gap between replies (the fail-over) and every
   replica's committed updates; message kinds stay out of it. *)
let semi_passive_run ~seed =
  let scenario = Scenario.sysnet in
  let cfg = Grid_paxos.Config.make ~n:3 ~suspicion_ms:100.0 ~record_history:true () in
  let eng = Engine.create () in
  let net = Network.create eng (Grid_util.Rng.of_int seed) in
  let replicas = Array.init 3 (fun i -> SP.create ~cfg ~id:i ~seed:(seed + i) ()) in
  let down = Array.make 3 false in
  let rec replica_acts i =
    List.iter (function
      | Sp.Send { dst; msg } -> Network.send net ~src:i ~dst msg
      | Sp.After { delay; timer } ->
        ignore
          (Engine.schedule eng ~delay (fun () ->
               if not down.(i) then
                 replica_acts i (SP.handle replicas.(i) ~now:(Engine.now eng) (Timer timer)))))
  in
  for i = 0 to 2 do
    Network.add_node net ~id:i ~recv_cost:scenario.replica_recv_cost
      ~send_cost:scenario.replica_send_cost (fun ~src msg ->
        if not down.(i) then
          replica_acts i (SP.handle replicas.(i) ~now:(Engine.now eng) (Sp.Receive { src; msg })));
    for j = 0 to 2 do
      if i <> j then Network.set_link net ~src:i ~dst:j (scenario.replica_link i j)
    done
  done;
  let client =
    Client.create ~id:(Ids.Client_id.of_int 0) ~replicas:[ 0; 1; 2 ] ~retry_ms:200.0 ()
  in
  let node = Client.node client in
  let latencies = ref [] and replied_at = ref [] and sent_at = ref 0.0 in
  let rec client_acts (actions, reply) =
    List.iter (function
      | Send { dst; msg } -> Network.send net ~src:node ~dst (Sp.Client msg)
      | After { delay; timer } ->
        ignore
          (Engine.schedule eng ~delay (fun () ->
               client_acts (Client.handle client ~now:(Engine.now eng) (Timer timer))))
      | Note _ -> ())
      actions;
    if reply <> None then begin
      latencies := (Engine.now eng -. !sent_at) :: !latencies;
      replied_at := Engine.now eng :: !replied_at;
      if List.length !latencies < 30 then submit ()
    end
  and submit () =
    sent_at := Engine.now eng;
    match Client.submit client Write ~payload:(Counter.encode_op (Counter.Add 1)) with
    | `Sent actions -> client_acts (actions, None)
    | `Busy -> ()
  in
  Network.add_node net ~id:node ~recv_cost:scenario.client_recv_cost
    ~send_cost:scenario.client_send_cost (fun ~src -> function
      | Sp.Client msg -> client_acts (Client.handle client ~now:(Engine.now eng) (Receive { src; msg }))
      | _ -> ());
  for r = 0 to 2 do
    Network.set_link_sym net node r (scenario.client_link r)
  done;
  ignore
    (Engine.schedule eng ~delay:5.0 (fun () ->
         down.(0) <- true;
         Network.crash net 0));
  submit ();
  while List.length !latencies < 30 && Engine.now eng < 120_000.0 && Engine.step eng do
    ()
  done;
  let gap, _ =
    List.fold_left
      (fun (gap, last) t -> (Float.max gap (t -. last), t))
      (0.0, 0.0) (List.rev !replied_at)
  in
  let updates r =
    List.map
      (fun (i, reqs, state) ->
        Printf.sprintf "%d [%s] %S" i
          (String.concat " " (List.map (fun (q : request) -> Format.asprintf "%a" Ids.Request_id.pp q.id) reqs))
          state)
      (SP.committed_updates r)
  in
  String.concat "\n"
    (List.map (Printf.sprintf "%.6f") (List.rev !latencies)
    @ [ Printf.sprintf "gap %.6f" gap ]
    @ List.concat_map updates (Array.to_list replicas))

let check_digest name expected actual =
  Alcotest.(check string) name expected (md5 actual)

let test_stress_dumps () =
  List.iter
    (fun (service, seed, expected) ->
      check_digest
        (Printf.sprintf "%s seed %d" (Stress.service_name service) seed)
        expected (stress_dump service seed))
    [
      (Stress.Counter_service, 1, "7d9a20955be864d612b5fdc0463b773d");
      (Stress.Counter_service, 21, "1215514c3e586493af7a630c4a58b40c");
      (Stress.Counter_service, 77, "3deffcf2e685bd9d365931ea1b07d12c");
      (Stress.Kv_service, 2, "828b15018ffb47e3b76165bd722e2cd3");
      (Stress.Kv_service, 22, "17176203b18d33e86e1918d646d84729");
      (Stress.Kv_service, 78, "2c50b310937ffe295f99c4b5c656e906");
    ]

let test_sim_dumps () =
  check_digest "write seed 7" "6d8aa0d0eacb285e21a126349151d164"
    (Span.dump_string (Test_obs.traced_run ~rtype:Write ~seed:7));
  check_digest "read seed 7" "2655feeefbc820d89c6d68d9505c3191"
    (Span.dump_string (Test_obs.traced_run ~rtype:Read ~seed:7));
  check_digest "txn seed 7" "6ac2f2fd94bdc4715dd0ef56249ccb84" (traced_txn_run ~seed:7)

let test_semi_passive_run () =
  check_digest "semi-passive seed 3" "aa2104af174ecc4e05a7f89a3668bb6e" (semi_passive_run ~seed:3)

let test_xstress_outcomes () =
  List.iter
    (fun (seed, expected) ->
      check_digest
        (Printf.sprintf "xshard seed %d" seed)
        expected
        (Format.asprintf "%a" Xstress.pp_outcome (Xstress.run_one ~seed ())))
    [ (1, "6c7a01822b3abdba6fe21845531703cd"); (5, "72aa0d2ba2fe3e9dadef1df408c729a8"); (9, "b8557fdcd4c8004a9df2a24acb2d2986") ]

let test_reshard_outcomes () =
  List.iter
    (fun (seed, expected) ->
      check_digest
        (Printf.sprintf "reshard seed %d" seed)
        expected
        (Format.asprintf "%a" Xstress.pp_reshard_outcome (Xstress.run_reshard_one ~seed ())))
    [ (1, "e86c7617e4b031c6def8b5ef4cf6301e"); (5, "8590a5130541b0efa4fee0bcfa600e5b"); (9, "a6c1839a8dd3659b3dd014a83e609d60") ]

let suite =
  [
    ( "golden",
      [
        Alcotest.test_case "stress span dumps" `Quick test_stress_dumps;
        Alcotest.test_case "sim span dumps" `Quick test_sim_dumps;
        Alcotest.test_case "semi-passive run" `Quick test_semi_passive_run;
        Alcotest.test_case "xshard outcomes" `Quick test_xstress_outcomes;
        Alcotest.test_case "reshard outcomes" `Quick test_reshard_outcomes;
      ] );
  ]
