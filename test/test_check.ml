(* Tests for the checkers themselves, plus the randomized-schedule
   exploration of the protocol (the heavyweight safety net). *)

module Agreement = Grid_check.Agreement
module Lin = Grid_check.Linearizability
module MC = Grid_check.Mcheck.Make (Grid_services.Counter)
module Counter = Grid_services.Counter
module Ids = Grid_util.Ids
open Grid_paxos.Types

let mk_req seq : request =
  { id = Ids.Request_id.make ~client:(Ids.Client_id.of_int 1) ~seq;
    rtype = Write; payload = "p"; trace = no_trace }

(* ------------------------------------------------------------------ *)
(* Agreement checker *)

let test_agreement_clean () =
  let h = [ (1, [ mk_req 1 ], "s1"); (2, [ mk_req 2 ], "s2") ] in
  Alcotest.(check int) "no violations" 0 (List.length (Agreement.check [| h; h; h |]))

let test_agreement_value_mismatch () =
  let a = [ (1, [ mk_req 1 ], "s1") ] in
  let b = [ (1, [ mk_req 2 ], "s1") ] in
  match Agreement.check [| a; b |] with
  | [ Agreement.Value_mismatch { instance = 1; _ } ] -> ()
  | v -> Alcotest.fail (Printf.sprintf "expected value mismatch, got %d" (List.length v))

let test_agreement_state_mismatch () =
  let a = [ (1, [ mk_req 1 ], "s1") ] in
  let b = [ (1, [ mk_req 1 ], "DIFFERENT") ] in
  match Agreement.check [| a; b |] with
  | [ Agreement.State_mismatch { instance = 1; _ } ] -> ()
  | _ -> Alcotest.fail "expected state mismatch"

let test_agreement_hole_tolerated () =
  (* Snapshot catch-up leaves holes; not a violation. *)
  let full = [ (1, [ mk_req 1 ], "s1"); (2, [ mk_req 2 ], "s2"); (3, [ mk_req 3 ], "s3") ] in
  let holey = [ (1, [ mk_req 1 ], "s1"); (3, [ mk_req 3 ], "s3") ] in
  Alcotest.(check int) "hole ok" 0 (List.length (Agreement.check [| full; holey |]))

let test_agreement_order_violation () =
  let bad = [ (2, [ mk_req 2 ], "s2"); (1, [ mk_req 1 ], "s1") ] in
  match Agreement.check [| bad |] with
  | [ Agreement.Order { instance = 1; _ } ] -> ()
  | _ -> Alcotest.fail "expected order violation"

(* ------------------------------------------------------------------ *)
(* Linearizability checker *)

let ev client op result invoked_at responded_at =
  { Lin.client; op; result; invoked_at; responded_at }

let test_lin_sequential_ok () =
  let h =
    [
      ev 1 (Lin.Counter_model.Add 5) 5 0.0 1.0;
      ev 1 Lin.Counter_model.Get 5 2.0 3.0;
      ev 1 (Lin.Counter_model.Add 2) 7 4.0 5.0;
    ]
  in
  Alcotest.(check bool) "sequential history linearizable" true (Lin.Counter.check h)

let test_lin_concurrent_ok () =
  (* Two overlapping adds; a concurrent read may see either serialization
     point. Result 5 is legal (read before the +2 took effect). *)
  let h =
    [
      ev 1 (Lin.Counter_model.Add 5) 5 0.0 10.0;
      ev 2 (Lin.Counter_model.Add 2) 7 1.0 9.0;
      ev 3 Lin.Counter_model.Get 5 2.0 8.0;
    ]
  in
  Alcotest.(check bool) "concurrent history linearizable" true (Lin.Counter.check h)

let test_lin_stale_read_rejected () =
  (* The read starts strictly after the add completed, yet returns the
     pre-add value: not linearizable. *)
  let h =
    [
      ev 1 (Lin.Counter_model.Add 5) 5 0.0 1.0;
      ev 2 Lin.Counter_model.Get 0 2.0 3.0;
    ]
  in
  Alcotest.(check bool) "stale read rejected" false (Lin.Counter.check h)

let test_lin_wrong_result_rejected () =
  let h = [ ev 1 (Lin.Counter_model.Add 5) 99 0.0 1.0 ] in
  Alcotest.(check bool) "wrong result rejected" false (Lin.Counter.check h)

let test_lin_kv_model () =
  let open Lin.Kv_model in
  let h =
    [
      ev 1 (Put ("k", "v")) Ok 0.0 1.0;
      ev 2 (Get "k") (Found (Some "v")) 2.0 3.0;
      ev 1 (Del "k") Ok 4.0 5.0;
      ev 2 (Get "k") (Found None) 6.0 7.0;
    ]
  in
  Alcotest.(check bool) "kv history linearizable" true (Lin.Kv.check h);
  let bad = [ ev 1 (Put ("k", "v")) Ok 0.0 1.0; ev 2 (Get "k") (Found None) 2.0 3.0 ] in
  Alcotest.(check bool) "lost update rejected" false (Lin.Kv.check bad)

(* ------------------------------------------------------------------ *)
(* Randomized schedule exploration of the real protocol. *)

let mc_requests =
  [
    (1, Write, Counter.encode_op (Counter.Add 5));
    (2, Write, Counter.encode_op (Counter.Add 7));
    (1, Read, Counter.encode_op Counter.Get);
    (2, Write, Counter.encode_op (Counter.Add 1));
    (3, Read, Counter.encode_op Counter.Get);
  ]

let explore ~crash_prob ~seeds () =
  let violations = ref 0 and unreplied = ref 0 in
  for seed = 1 to seeds do
    let o = MC.run ~seed ~steps:2_000 ~crash_prob ~requests:mc_requests () in
    if o.violations <> [] then incr violations;
    if not o.all_replied then incr unreplied
  done;
  (!violations, !unreplied)

let test_mcheck_benign () =
  let violations, unreplied = explore ~crash_prob:0.0 ~seeds:150 () in
  Alcotest.(check int) "no agreement violations" 0 violations;
  Alcotest.(check int) "all requests answered" 0 unreplied

let test_mcheck_with_crashes () =
  let violations, _unreplied = explore ~crash_prob:0.003 ~seeds:150 () in
  (* Liveness holds after the drain (crashes stop); safety always. *)
  Alcotest.(check int) "no agreement violations under crashes" 0 violations

let test_mcheck_deterministic_replay () =
  let o1 = MC.run ~seed:77 ~steps:1_500 ~crash_prob:0.002 ~requests:mc_requests () in
  let o2 = MC.run ~seed:77 ~steps:1_500 ~crash_prob:0.002 ~requests:mc_requests () in
  Alcotest.(check int) "same deliveries" o1.delivered o2.delivered;
  Alcotest.(check int) "same timer fires" o1.timer_fires o2.timer_fires;
  Alcotest.(check (array int)) "same commit points" o1.committed o2.committed

(* Convert model-checker replies into a counter history: each client's
   ops are sequential (program order via invocation windows), ordering
   across clients unknown, so cross-client events overlap fully. A
   retransmitted read may be answered twice (reads are not
   deduplicated); the client accepts the first reply. *)
let counter_history (replies : reply list) =
  let seen = Hashtbl.create 8 in
  let first_replies =
    List.filter
      (fun (r : reply) ->
        let key = (r.req.client, r.req.seq) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      replies
  in
  List.filter_map
    (fun (r : reply) ->
      let client = Grid_util.Ids.Client_id.to_int r.req.client in
      let seq = r.req.seq in
      let base = Float.of_int (seq * 10) in
      let op_of (_, rt, payload) =
        match rt with
        | Read -> Some Lin.Counter_model.Get
        | Write -> Some (Lin.Counter_model.Add
                           (match Counter.decode_op payload with
                           | Counter.Add n -> n
                           | Counter.Get -> 0))
        | _ -> None
      in
      let rec find i = function
        | [] -> None
        | ((c, _, _) as req) :: rest ->
          if c = client then
            if i = seq - 1 then op_of req else find (i + 1) rest
          else find i rest
      in
      match find 0 mc_requests with
      | Some op ->
        Some
          {
            Lin.client;
            op;
            result = Counter.decode_result r.payload;
            invoked_at = base;
            responded_at = base +. 1000.0;
          }
      | None -> None)
    first_replies

let test_mcheck_reads_linearizable () =
  for seed = 1 to 40 do
    let o = MC.run ~seed ~steps:2_000 ~crash_prob:0.0 ~requests:mc_requests () in
    if o.all_replied then
      (* Writes return the new counter value, so results are usable. *)
      if not (Lin.Counter.check (counter_history o.replies)) then
        Alcotest.fail (Printf.sprintf "seed %d: non-linearizable history" seed)
  done

(* ------------------------------------------------------------------ *)
(* Wire-codec oracle: every delivery of every run roundtrips through the
   codec and the destination receives the decoded copy. *)

let test_mcheck_wire_clean_under_nemesis () =
  (* Duplicated and reordered deliveries, crashes and recoveries: the
     codec must stay lossless on every message the run puts on a link,
     and the run must stay safe, live and linearizable on the decoded
     copies. *)
  let nemesis =
    { Grid_check.Mcheck.no_faults with
      crash_prob = 0.002;
      dup_prob = 0.01;
      reorder_prob = 0.01;
    }
  in
  for seed = 1 to 10 do
    let o = MC.explore ~seed ~steps:2_500 ~nemesis ~requests:mc_requests () in
    let label what = Printf.sprintf "seed %d: %s" seed what in
    Alcotest.(check (list string)) (label "no wire errors") [] o.wire_errors;
    Alcotest.(check bool) (label "nemesis duplicated and reordered") true
      (o.duplicated > 0 && o.reordered > 0);
    Alcotest.(check int) (label "no violations") 0 (List.length o.violations);
    Alcotest.(check bool) (label "all replied") true o.all_replied;
    Alcotest.(check bool) (label "linearizable") true
      (Lin.Counter.check (counter_history o.replies))
  done

let suite =
  [
    ( "check.agreement",
      [
        Alcotest.test_case "clean histories" `Quick test_agreement_clean;
        Alcotest.test_case "value mismatch" `Quick test_agreement_value_mismatch;
        Alcotest.test_case "state mismatch" `Quick test_agreement_state_mismatch;
        Alcotest.test_case "snapshot hole tolerated" `Quick test_agreement_hole_tolerated;
        Alcotest.test_case "order violation" `Quick test_agreement_order_violation;
      ] );
    ( "check.linearizability",
      [
        Alcotest.test_case "sequential ok" `Quick test_lin_sequential_ok;
        Alcotest.test_case "concurrent ok" `Quick test_lin_concurrent_ok;
        Alcotest.test_case "stale read rejected" `Quick test_lin_stale_read_rejected;
        Alcotest.test_case "wrong result rejected" `Quick test_lin_wrong_result_rejected;
        Alcotest.test_case "kv model" `Quick test_lin_kv_model;
      ] );
    ( "check.mcheck",
      [
        Alcotest.test_case "150 benign schedules" `Slow test_mcheck_benign;
        Alcotest.test_case "150 crashy schedules" `Slow test_mcheck_with_crashes;
        Alcotest.test_case "seeded replay is deterministic" `Quick
          test_mcheck_deterministic_replay;
        Alcotest.test_case "reply histories linearizable" `Slow
          test_mcheck_reads_linearizable;
      ] );
    ( "check.mcheck_wire",
      [
        Alcotest.test_case "clean under duplication and reordering" `Slow
          test_mcheck_wire_clean_under_nemesis;
      ] );
  ]
