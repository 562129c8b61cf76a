(* Unit tests for the online invariant watchdogs: each check fires on
   its planted violation and stays silent on legitimate histories —
   recovery replay, retransmitted commits at the same instance, lease
   handover after expiry, and independent leases across shard groups. *)

module Watchdog = Grid_obs.Watchdog
module Metrics = Grid_obs.Metrics

(* A sink and the names of the checks it has fired, oldest first. *)
let recording () =
  let fired = ref [] in
  let t = Watchdog.create ~on_violation:(fun ~check ~detail:_ -> fired := check :: !fired) () in
  (t, fun () -> List.rev !fired)

let test_dup_commit () =
  let t, fired = recording () in
  let m = Watchdog.monitor t ~actor:"r0" in
  Watchdog.record_commit m ~client:1 ~seq:1 ~instance:4;
  (* A retransmitted learn of the same instance is not a duplicate. *)
  Watchdog.record_commit m ~client:1 ~seq:1 ~instance:4;
  Alcotest.(check int) "same instance re-learned" 0 (Watchdog.violations t);
  Watchdog.record_commit m ~client:1 ~seq:1 ~instance:9;
  Alcotest.(check (list string)) "different instance fires" [ "dup_commit" ] (fired ());
  Alcotest.(check int) "total counted" 1 (Watchdog.violations t)

let test_seed_commit_is_unchecked () =
  let t, fired = recording () in
  let m = Watchdog.monitor t ~actor:"r0" in
  (* Recovery replay seeds the table without flagging... *)
  Watchdog.seed_commit m ~client:2 ~seq:3 ~instance:7;
  Watchdog.record_commit m ~client:2 ~seq:3 ~instance:7;
  Alcotest.(check int) "replayed commit silent" 0 (Watchdog.violations t);
  (* ...but still arms the dup check for a later conflicting commit. *)
  Watchdog.record_commit m ~client:2 ~seq:3 ~instance:8;
  Alcotest.(check (list string)) "post-recovery dup caught" [ "dup_commit" ] (fired ())

let test_lost_ack () =
  let t, fired = recording () in
  let m = Watchdog.monitor t ~actor:"r0" in
  Watchdog.record_commit m ~client:1 ~seq:1 ~instance:0;
  Watchdog.write_acked m ~client:1 ~seq:1;
  Alcotest.(check int) "committed ack silent" 0 (Watchdog.violations t);
  Watchdog.write_acked m ~client:1 ~seq:2;
  Alcotest.(check (list string)) "uncommitted ack fires" [ "lost_ack" ] (fired ())

let test_stale_read () =
  let t, fired = recording () in
  let m = Watchdog.monitor t ~actor:"r0" in
  Watchdog.read_replied m ~client:1 ~seq:1 ~watermark:5 ~exec_point:5;
  Watchdog.read_replied m ~client:1 ~seq:2 ~watermark:5 ~exec_point:8;
  Alcotest.(check int) "reads at/after watermark silent" 0 (Watchdog.violations t);
  Watchdog.read_replied m ~client:1 ~seq:3 ~watermark:5 ~exec_point:4;
  Alcotest.(check (list string)) "read below watermark fires" [ "stale_read" ] (fired ())

let test_lease_mutual_exclusion () =
  let t, fired = recording () in
  let r0 = Watchdog.monitor t ~actor:"r0" in
  let r1 = Watchdog.monitor t ~actor:"r1" in
  Watchdog.lease_claimed r0 ~now:0.0 ~until:100.0 ~slack_ms:4.0;
  (* The holder re-claiming inside its own window is fine. *)
  Watchdog.lease_claimed r0 ~now:50.0 ~until:120.0 ~slack_ms:4.0;
  Alcotest.(check int) "holder re-claims" 0 (Watchdog.violations t);
  (* Another replica claiming after expiry (plus slack) is a handover. *)
  Watchdog.lease_claimed r1 ~now:130.0 ~until:200.0 ~slack_ms:4.0;
  Alcotest.(check int) "post-expiry handover" 0 (Watchdog.violations t);
  (* A third claim by r0 while r1's window is live is the violation. *)
  Watchdog.lease_claimed r0 ~now:150.0 ~until:220.0 ~slack_ms:4.0;
  Alcotest.(check (list string)) "overlapping claim fires" [ "lease_conflict" ] (fired ())

let test_lease_groups_are_independent () =
  let t, fired = recording () in
  let s0 = Watchdog.monitor t ~actor:"s0/r0" in
  let s1 = Watchdog.monitor t ~actor:"s1/r2" in
  (* Two shards lease concurrently: different groups, no conflict. *)
  Watchdog.lease_claimed s0 ~now:0.0 ~until:100.0 ~slack_ms:4.0;
  Watchdog.lease_claimed s1 ~now:1.0 ~until:100.0 ~slack_ms:4.0;
  Alcotest.(check int) "cross-shard leases coexist" 0 (Watchdog.violations t);
  (* Within one shard the exclusion still holds. *)
  let s0' = Watchdog.monitor t ~actor:"s0/r1" in
  Watchdog.lease_claimed s0' ~now:10.0 ~until:100.0 ~slack_ms:4.0;
  Alcotest.(check (list string)) "same-shard overlap fires" [ "lease_conflict" ] (fired ())

let test_fail_stop_and_callback () =
  let seen = ref [] in
  let t =
    Watchdog.create ~fail_stop:true
      ~on_violation:(fun ~check ~detail:_ -> seen := check :: !seen)
      ()
  in
  let m = Watchdog.monitor t ~actor:"r0" in
  (match Watchdog.write_acked m ~client:9 ~seq:1 with
  | () -> Alcotest.fail "fail_stop did not raise"
  | exception Watchdog.Violation msg ->
    Alcotest.(check bool) "message names the check" true
      (String.length msg > 0 && !seen = [ "lost_ack" ]));
  (* The violation was counted before the raise. *)
  Alcotest.(check int) "counted despite raise" 1 (Watchdog.violations t)

let test_disabled_and_reset () =
  let m = Watchdog.monitor Watchdog.disabled ~actor:"r0" in
  Watchdog.write_acked m ~client:1 ~seq:1;
  Watchdog.read_replied m ~client:1 ~seq:2 ~watermark:5 ~exec_point:0;
  Alcotest.(check int) "disabled sink is inert" 0
    (Watchdog.violations Watchdog.disabled);
  let t = Watchdog.create () in
  let m = Watchdog.monitor t ~actor:"r0" in
  Watchdog.write_acked m ~client:1 ~seq:1;
  Watchdog.lease_claimed m ~now:0.0 ~until:100.0 ~slack_ms:0.0;
  Alcotest.(check int) "armed" 1 (Watchdog.violations t);
  Watchdog.reset t;
  Alcotest.(check int) "reset zeroes" 0 (Watchdog.violations t);
  (* The lease view was cleared too: a fresh claim is not a conflict. *)
  let m' = Watchdog.monitor t ~actor:"r1" in
  Watchdog.lease_claimed m' ~now:1.0 ~until:50.0 ~slack_ms:0.0;
  Alcotest.(check int) "lease view cleared" 0 (Watchdog.violations t)

let test_metrics_registration () =
  let reg = Metrics.create () in
  let t = Watchdog.create ~metrics:reg () in
  Alcotest.(check bool) "counters registered" true
    (Metrics.mem reg "grid_watchdog_violations_total"
    && Metrics.mem reg "grid_watchdog_stale_read_total");
  let m = Watchdog.monitor t ~actor:"r0" in
  Watchdog.read_replied m ~client:1 ~seq:1 ~watermark:3 ~exec_point:1;
  let text = Metrics.expose reg in
  let contains needle =
    let n = String.length text and k = String.length needle in
    let rec scan i = i + k <= n && (String.sub text i k = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "exposition carries the firing" true
    (contains "grid_watchdog_violations_total 1"
    && contains "grid_watchdog_stale_read_total 1")

let suite =
  [
    ( "watchdog.checks",
      [
        Alcotest.test_case "duplicate commit" `Quick test_dup_commit;
        Alcotest.test_case "recovery seeding unchecked" `Quick
          test_seed_commit_is_unchecked;
        Alcotest.test_case "lost acknowledged write" `Quick test_lost_ack;
        Alcotest.test_case "stale read watermark" `Quick test_stale_read;
        Alcotest.test_case "lease mutual exclusion" `Quick
          test_lease_mutual_exclusion;
        Alcotest.test_case "lease groups independent" `Quick
          test_lease_groups_are_independent;
      ] );
    ( "watchdog.sink",
      [
        Alcotest.test_case "fail-stop raises after counting" `Quick
          test_fail_stop_and_callback;
        Alcotest.test_case "disabled and reset" `Quick test_disabled_and_reset;
        Alcotest.test_case "metrics registration" `Quick test_metrics_registration;
      ] );
  ]
