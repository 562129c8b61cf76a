(* The nemesis stress tier: a few hundred seeded model-checker schedules
   with the full cross-layer fault mix — clean and torn-persist crashes,
   metadata loss, message duplication, cross-channel reordering — over
   both reference services, asserting agreement, durability, and
   client-visible linearizability on every run; plus the planted dedup
   bug demonstrating that the checkers catch a real exactly-once
   violation and that schedule shrinking reduces it to a minimal fault
   plan. *)

module Stress = Grid_check.Stress
module Mcheck = Grid_check.Mcheck

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  nl = 0 || at 0

let fail_with failures =
  Alcotest.fail
    (Format.asprintf "%d failing schedules:@ %a" (List.length failures)
       (Format.pp_print_list ~pp_sep:Format.pp_print_cut Stress.pp_failure)
       failures)

(* 200+ schedules with the default nemesis must produce zero violations;
   a schedule that does fail is shrunk, so the assertion message carries
   the minimal reproducing plan. *)
let test_stress_batch () =
  let summary = Stress.run ~schedules:220 ~base_seed:1 ~steps:1_200 () in
  Alcotest.(check int) "schedules run" 220 summary.schedules;
  if summary.failures <> [] then fail_with summary.failures;
  (* The batch must actually have exercised every fault kind, or the
     zero-violation claim is vacuous. *)
  Alcotest.(check bool) "crashes injected" true (summary.crashes > 0);
  Alcotest.(check bool) "torn persists injected" true (summary.torn_persists > 0);
  Alcotest.(check bool) "metadata drops injected" true (summary.meta_dropped > 0);
  Alcotest.(check bool) "duplication injected" true (summary.duplicated > 0);
  Alcotest.(check bool) "reordering injected" true (summary.reordered > 0);
  (* The online watchdogs ran inside every replica of every schedule and
     stayed silent alongside the offline oracles. *)
  Alcotest.(check int) "watchdogs silent" 0 summary.watchdog_violations

(* A recorded fault plan replays to the identical outcome. *)
let test_stress_replay_deterministic () =
  List.iter
    (fun service ->
      let seed = 42 in
      let o, failure = Stress.run_one ~service ~steps:1_200 ~seed () in
      (match failure with
      | Some f -> Alcotest.failf "seed %d failed: %a" seed Stress.pp_failure f
      | None -> ());
      let replay plan =
        match service with
        | Stress.Counter_service ->
          fst
            (Stress.Counter_harness.replay_plan ~steps:1_200
               ~meta_drop_prob:Stress.default_nemesis.Mcheck.meta_drop_prob ~seed
               ~plan ())
        | Stress.Kv_service ->
          fst
            (Stress.Kv_harness.replay_plan ~steps:1_200
               ~meta_drop_prob:Stress.default_nemesis.Mcheck.meta_drop_prob ~seed
               ~plan ())
      in
      let r = replay o.plan in
      Alcotest.(check int) "same deliveries" o.delivered r.Mcheck.delivered;
      Alcotest.(check int) "same timer fires" o.timer_fires r.timer_fires;
      Alcotest.(check (array int)) "same commit points" o.committed r.committed;
      Alcotest.(check int) "same replies" (List.length o.replies)
        (List.length r.replies))
    [ Stress.Counter_service; Stress.Kv_service ]

(* Plant the dedup bug: with the table disabled, a duplicated client
   request that lands after its first commit commits again. Find a seed
   where the injected faults are essential (the fault-free schedule
   passes), shrink, and confirm the minimal plan still fails, is
   non-empty, and retains a duplication event. *)
let test_stress_planted_dedup_shrinks () =
  let steps = 1_000 in
  let nemesis = { Stress.default_nemesis with Mcheck.dup_prob = 0.15 } in
  let replay_reasons ~seed ~plan =
    snd
      (Stress.Counter_harness.replay_plan ~steps
         ~meta_drop_prob:nemesis.Mcheck.meta_drop_prob ~disable_dedup:true ~seed
         ~plan ())
  in
  let rec hunt seed =
    if seed > 60 then
      Alcotest.fail "planted dedup bug escaped 60 schedules"
    else
      match
        Stress.run_one ~service:Stress.Counter_service ~steps ~nemesis
          ~disable_dedup:true ~shrink:true ~seed ()
      with
      | _, Some f when replay_reasons ~seed ~plan:[] = [] -> (seed, f)
      | _ -> hunt (seed + 1)
  in
  let seed, f = hunt 1 in
  (* The checkers named the bug: an exactly-once violation. *)
  Alcotest.(check bool) "double commit reported" true
    (List.exists
       (fun r ->
         contains ~needle:"committed request" r
         || contains ~needle:"non-linearizable" r)
       f.reasons);
  (* The online watchdog caught the same planted bug from inside the
     replicas, in real time. *)
  Alcotest.(check bool) "watchdog fired on the planted bug" true
    (List.exists (contains ~needle:"watchdog:") f.reasons);
  match f.shrunk with
  | None -> Alcotest.fail "no shrunk plan"
  | Some shrunk ->
    Alcotest.(check bool) "shrunk plan is smaller" true
      (List.length shrunk <= List.length f.plan);
    Alcotest.(check bool) "shrunk plan non-empty" true (shrunk <> []);
    Alcotest.(check bool) "shrunk plan keeps a duplication or reorder" true
      (List.exists
         (function
           | Mcheck.Duplicate_at _ | Mcheck.Reorder_at _ -> true | _ -> false)
         shrunk);
    Alcotest.(check bool) "shrunk plan still fails" true
      (replay_reasons ~seed ~plan:shrunk <> []);
    (* Minimality (1-minimal): removing any single remaining event makes
       the failure disappear. *)
    List.iteri
      (fun i _ ->
        let without = List.filteri (fun j _ -> j <> i) shrunk in
        Alcotest.(check bool)
          (Printf.sprintf "dropping event %d un-fails the schedule" i)
          true
          (replay_reasons ~seed ~plan:without = []))
      shrunk

(* The same duplication-heavy nemesis with deduplication ENABLED commits
   each request exactly once: the dedup table is what the planted bug
   removed. *)
let test_stress_dedup_protects () =
  let nemesis = { Stress.default_nemesis with Mcheck.dup_prob = 0.15 } in
  for seed = 1 to 30 do
    let _, failure =
      Stress.run_one ~service:Stress.Counter_service ~steps:1_000 ~nemesis
        ~shrink:false ~seed ()
    in
    match failure with
    | Some f -> Alcotest.failf "dedup-on seed %d failed: %a" seed Stress.pp_failure f
    | None -> ()
  done

(* Crash-heavy schedules over the read-bearing workloads: leaders die
   with read confirms in flight, clients get Retry redirects and fail
   over, and every schedule must still be linearizable with no stale
   read (the oracle watermarks each read at issue time). *)
let test_stress_leader_crash_mid_read () =
  let nemesis = { Stress.default_nemesis with Mcheck.crash_prob = 0.01 } in
  let summary = Stress.run ~schedules:120 ~base_seed:500 ~steps:1_200 ~nemesis () in
  if summary.failures <> [] then fail_with summary.failures;
  Alcotest.(check bool) "crashes injected" true (summary.crashes > 0)

(* The lease tier: 220 schedules with the read fast path enabled, clock
   drift within the configured skew bound, and the usual crash/duplicate
   /reorder mix. The stale-read oracle must find no leased read that
   missed a write committed before it was issued — across failovers and
   lease blackouts included. *)
let test_stress_leased_reads_under_drift () =
  let cfg_tweak c =
    Grid_paxos.Config.make ~base:c ~lease_ms:50.0 ~clock_skew_bound_ms:10.0 ()
  in
  let summary =
    Stress.run ~schedules:220 ~base_seed:1 ~steps:1_200
      ~nemesis:{ Stress.default_nemesis with drift_prob = 0.005; drift_max_ms = 2.0 }
      ~cfg_tweak ()
  in
  Alcotest.(check int) "schedules run" 220 summary.schedules;
  if summary.failures <> [] then fail_with summary.failures;
  Alcotest.(check bool) "clock drift injected" true (summary.drifted > 0);
  Alcotest.(check bool) "failovers exercised" true (summary.crashes > 0)

(* The overload tier: 200 schedules of the counter service with a
   deliberately tiny admission window (2/2) under the crash-doubled
   nemesis. On top of the usual oracles, every schedule checks the
   admitted-loss oracle (no Ok-acknowledged write vanishes across
   shedding and leader churn) and that admitted-request p99 latency
   stays bounded; the batch must actually exercise pushback and
   crashes, or the claim is vacuous. *)
let test_stress_overload_tier () =
  let summary = Stress.run_overload ~schedules:200 ~base_seed:1 () in
  Alcotest.(check int) "schedules run" 200 summary.schedules;
  if summary.failures <> [] then fail_with summary.failures;
  Alcotest.(check bool) "Overloaded pushback exercised" true (summary.shed > 0);
  Alcotest.(check bool) "crashes injected" true (summary.crashes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "admitted p99 bounded (%.1f ms)" summary.admitted_p99_max)
    true
    (summary.admitted_p99_max > 0.0 && summary.admitted_p99_max <= 120_000.0)

let suite =
  [
    ( "stress.nemesis",
      [
        Alcotest.test_case "220 nemesis schedules hold all invariants" `Slow
          test_stress_batch;
        Alcotest.test_case "200 overload schedules keep admitted writes" `Slow
          test_stress_overload_tier;
        Alcotest.test_case "leader crashes mid-read stay linearizable" `Slow
          test_stress_leader_crash_mid_read;
        Alcotest.test_case "leased reads stay fresh under clock drift" `Slow
          test_stress_leased_reads_under_drift;
        Alcotest.test_case "fault plans replay deterministically" `Quick
          test_stress_replay_deterministic;
        Alcotest.test_case "planted dedup bug is caught and shrunk" `Slow
          test_stress_planted_dedup_shrinks;
        Alcotest.test_case "dedup survives duplication storms" `Slow
          test_stress_dedup_protects;
      ] );
  ]
