(* Tests for the lease manager service: expiry semantics, the clock
   nondeterminism it embodies, witness replay, and consistent
   replication. *)

module Lease = Grid_services.Lease_manager
module Rng = Grid_util.Rng
module Config = Grid_paxos.Config
module Scenario = Grid_runtime.Scenario
open Grid_paxos.Types

module RT = Grid_runtime.Runtime.Make (Lease)

let rng = Rng.of_int 1

let test_acquire_release () =
  let s = Lease.initial () in
  let o = Lease.apply ~rng ~now:100.0 s (Lease.Acquire { resource = "gpu"; holder = 1; ttl_ms = 50.0 }) in
  (match o.result with
  | Lease.Granted { until } -> Alcotest.(check (float 1e-9)) "deadline" 150.0 until
  | _ -> Alcotest.fail "expected grant");
  (* Another holder is denied while the lease is live. *)
  let o2 = Lease.apply ~rng ~now:120.0 o.state (Lease.Acquire { resource = "gpu"; holder = 2; ttl_ms = 50.0 }) in
  (match o2.result with
  | Lease.Denied { holder = 1; _ } -> ()
  | _ -> Alcotest.fail "expected denial");
  (* Release frees it. *)
  let o3 = Lease.apply ~rng ~now:130.0 o2.state (Lease.Release { resource = "gpu"; holder = 1 }) in
  Alcotest.(check bool) "released" true (o3.result = Lease.Released);
  let o4 = Lease.apply ~rng ~now:131.0 o3.state (Lease.Acquire { resource = "gpu"; holder = 2; ttl_ms = 10.0 }) in
  match o4.result with Lease.Granted _ -> () | _ -> Alcotest.fail "freed lease grantable"

let test_expiry_is_clock_dependent () =
  (* The paper's nondeterminism class: the same request sequence examined
     at different local times produces different behaviour. *)
  let s = Lease.initial () in
  let s =
    (Lease.apply ~rng ~now:100.0 s (Lease.Acquire { resource = "r"; holder = 1; ttl_ms = 50.0 })).state
  in
  let fast = Lease.apply ~rng ~now:149.0 s (Lease.Acquire { resource = "r"; holder = 2; ttl_ms = 50.0 }) in
  let slow = Lease.apply ~rng ~now:151.0 s (Lease.Acquire { resource = "r"; holder = 2; ttl_ms = 50.0 }) in
  (match fast.result with
  | Lease.Denied _ -> ()
  | _ -> Alcotest.fail "fast examiner still sees the lease");
  match slow.result with
  | Lease.Granted _ -> ()
  | _ -> Alcotest.fail "slow examiner sees it expired"

let test_renew () =
  let s = Lease.initial () in
  let s = (Lease.apply ~rng ~now:0.0 s (Lease.Acquire { resource = "r"; holder = 1; ttl_ms = 10.0 })).state in
  let o = Lease.apply ~rng ~now:5.0 s (Lease.Renew { resource = "r"; holder = 1; ttl_ms = 20.0 }) in
  (match o.result with
  | Lease.Renewed { until } -> Alcotest.(check (float 1e-9)) "extended" 25.0 until
  | _ -> Alcotest.fail "expected renewal");
  (* Wrong holder, or renewal after expiry, fails. *)
  let o2 = Lease.apply ~rng ~now:6.0 o.state (Lease.Renew { resource = "r"; holder = 2; ttl_ms = 5.0 }) in
  Alcotest.(check bool) "wrong holder" true (o2.result = Lease.Not_holder);
  let o3 = Lease.apply ~rng ~now:99.0 o.state (Lease.Renew { resource = "r"; holder = 1; ttl_ms = 5.0 }) in
  Alcotest.(check bool) "expired renewal" true (o3.result = Lease.Not_holder)

let test_reads () =
  let s = Lease.initial () in
  let s = (Lease.apply ~rng ~now:0.0 s (Lease.Acquire { resource = "a"; holder = 3; ttl_ms = 100.0 })).state in
  let s = (Lease.apply ~rng ~now:0.0 s (Lease.Acquire { resource = "b"; holder = 4; ttl_ms = 10.0 })).state in
  (match (Lease.apply ~rng ~now:5.0 s (Lease.Holder_of "a")).result with
  | Lease.Holder (Some (3, _)) -> ()
  | _ -> Alcotest.fail "holder of a");
  (match (Lease.apply ~rng ~now:50.0 s (Lease.Holder_of "b")).result with
  | Lease.Holder None -> ()  (* expired by now=50 *)
  | _ -> Alcotest.fail "b should read as expired");
  match (Lease.apply ~rng ~now:50.0 s Lease.Active_count).result with
  | Lease.Count 1 -> ()
  | _ -> Alcotest.fail "one active lease at t=50"

let test_witness_replay () =
  (* Replay must reproduce the leader's transition exactly — including
     the deadline the leader computed from ITS clock — without looking at
     any clock. *)
  let s = Lease.initial () in
  let ops_at =
    [ (100.0, Lease.Acquire { resource = "r"; holder = 1; ttl_ms = 37.0 });
      (120.0, Lease.Renew { resource = "r"; holder = 1; ttl_ms = 55.0 });
      (300.0, Lease.Acquire { resource = "r"; holder = 2; ttl_ms = 10.0 });
      (305.0, Lease.Release { resource = "r"; holder = 2 }) ]
  in
  ignore
    (List.fold_left
       (fun (leader_state, replica_state) (now, op) ->
         let o = Lease.apply ~rng ~now leader_state op in
         let replica_state', result' =
           Lease.replay replica_state op ~witness:(Option.get o.witness)
         in
         Alcotest.(check string) "states equal"
           (Lease.encode_state o.state) (Lease.encode_state replica_state');
         Alcotest.(check bool) "results equal" true (result' = o.result);
         (o.state, replica_state'))
       (s, s) ops_at)

let test_codecs () =
  List.iter
    (fun op -> Alcotest.(check bool) "op roundtrip" true (Lease.decode_op (Lease.encode_op op) = op))
    [ Lease.Acquire { resource = "r"; holder = 1; ttl_ms = 5.0 };
      Lease.Renew { resource = "r"; holder = 2; ttl_ms = 6.0 };
      Lease.Release { resource = "r"; holder = 1 };
      Lease.Holder_of "x";
      Lease.Active_count ];
  List.iter
    (fun r -> Alcotest.(check bool) "result roundtrip" true (Lease.decode_result (Lease.encode_result r) = r))
    [ Lease.Granted { until = 1.5 };
      Lease.Denied { holder = 2; until = 3.0 };
      Lease.Renewed { until = 9.0 };
      Lease.Released;
      Lease.Not_holder;
      Lease.Holder (Some (1, 2.0));
      Lease.Holder None;
      Lease.Count 4 ]

let test_diff_patch () =
  let s = Lease.initial () in
  let s1 = (Lease.apply ~rng ~now:0.0 s (Lease.Acquire { resource = "a"; holder = 1; ttl_ms = 10.0 })).state in
  let s2 = (Lease.apply ~rng ~now:1.0 s1 (Lease.Acquire { resource = "b"; holder = 2; ttl_ms = 10.0 })).state in
  let s3 = (Lease.apply ~rng ~now:2.0 s2 (Lease.Release { resource = "a"; holder = 1 })).state in
  let d12 = Option.get (Lease.diff ~old_state:s1 s2) in
  Alcotest.(check string) "patch add" (Lease.encode_state s2)
    (Lease.encode_state (Lease.patch s1 d12));
  let d23 = Option.get (Lease.diff ~old_state:s2 s3) in
  Alcotest.(check string) "patch remove" (Lease.encode_state s3)
    (Lease.encode_state (Lease.patch s2 d23))

let test_replicated_leases_consistent () =
  (* End to end: replicas agree on every grant/deny even though the
     decisions are clock-dependent, and leases survive a leader switch. *)
  let cfg = Config.make ~n:3 ~record_history:true () in
  let t = RT.create ~cfg ~scenario:(Scenario.uniform ()) () in
  ignore (RT.await_leader t);
  let results = ref [] in
  let client = ref None in
  let ops =
    ref
      [ Lease.Acquire { resource = "gpu"; holder = 1; ttl_ms = 100_000.0 };
        Lease.Acquire { resource = "gpu"; holder = 2; ttl_ms = 50.0 };
        Lease.Acquire { resource = "disk"; holder = 2; ttl_ms = 100_000.0 } ]
  in
  let submit_next () =
    match !ops with
    | [] -> ()
    | op :: rest ->
      ops := rest;
      (match RT.submit t (Option.get !client) Write ~payload:(Lease.encode_op op) with
      | `Submitted -> ()
      | `Busy -> Alcotest.fail "submit: client busy")
  in
  let c =
    RT.add_client t ~id:1
      ~on_reply:(fun reply ->
        results := Lease.decode_result reply.payload :: !results;
        submit_next ())
      ()
  in
  client := Some c;
  submit_next ();
  RT.run_until t (RT.now t +. 500.0);
  (match List.rev !results with
  | [ Lease.Granted _; Lease.Denied { holder = 1; _ }; Lease.Granted _ ] -> ()
  | _ -> Alcotest.fail "unexpected grant/deny sequence");
  (* Leader switch: lease table survives because it was replicated. *)
  RT.crash_replica t 0;
  RT.run_until t (RT.now t +. 2_000.0);
  let l = Option.get (RT.leader t) in
  Alcotest.(check bool) "new leader" true (l <> 0);
  let st = RT.R.state (RT.replica t l) in
  (* Read the table through the service's own read ops. *)
  let read op = (Lease.apply ~rng:(Grid_util.Rng.of_int 1) ~now:(RT.now t) st op).result in
  (match read (Lease.Holder_of "gpu") with
  | Lease.Holder (Some (1, _)) -> ()
  | _ -> Alcotest.fail "gpu lease lost across leader switch");
  (match read Lease.Active_count with
  | Lease.Count 2 -> ()
  | _ -> Alcotest.fail "expected two live leases")

let suite =
  [
    ( "services.lease",
      [
        Alcotest.test_case "acquire/deny/release" `Quick test_acquire_release;
        Alcotest.test_case "expiry is clock-dependent (§2 class)" `Quick
          test_expiry_is_clock_dependent;
        Alcotest.test_case "renew" `Quick test_renew;
        Alcotest.test_case "reads" `Quick test_reads;
        Alcotest.test_case "witness replay" `Quick test_witness_replay;
        Alcotest.test_case "codecs" `Quick test_codecs;
        Alcotest.test_case "diff/patch" `Quick test_diff_patch;
        Alcotest.test_case "replicated leases survive failover" `Quick
          test_replicated_leases_consistent;
      ] );
  ]
