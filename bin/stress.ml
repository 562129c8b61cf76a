(* Nemesis stress runner: seeded model-checker schedules with crashes
   (clean and torn-persist), metadata loss, duplication and reordering,
   checking agreement, durability and linearizability on every run.

     dune exec bin/stress.exe -- --schedules 200
     dune exec bin/stress.exe -- --seed 42 --service kv      # replay one
     dune exec bin/stress.exe -- --plant-dedup               # shrink demo

   Exit status is 0 iff every schedule passed (or, with --plant-dedup,
   iff the planted bug was caught and shrunk). *)

open Cmdliner
module Stress = Grid_check.Stress
module Mcheck = Grid_check.Mcheck

let services_of = function
  | `Counter -> [ Stress.Counter_service ]
  | `Kv -> [ Stress.Kv_service ]
  | `Both -> [ Stress.Counter_service; Stress.Kv_service ]

let nemesis ~crash ~torn ~dup ~reorder ~meta_drop ~drift ~drift_max =
  {
    Mcheck.crash_prob = crash;
    torn_frac = torn;
    dup_prob = dup;
    reorder_prob = reorder;
    meta_drop_prob = meta_drop;
    drift_prob = drift;
    drift_max_ms = drift_max;
  }

let print_failures failures =
  List.iter
    (fun f -> Format.printf "FAIL %a@." Stress.pp_failure f)
    failures

(* Run one seed per selected service, then re-run it from the recorded
   fault plan and insist the replay reproduces the outcome exactly. *)
let run_single ~services ~seed ~steps ~nem ~disable_dedup ~cfg_tweak ~trace_dump =
  let ok = ref true in
  List.iter
    (fun service ->
      let obs =
        match trace_dump with
        | None -> None
        | Some _ -> Some (Grid_obs.Span.Recorder.create ~enabled:true ())
      in
      let o, failure =
        Stress.run_one ~service ?obs ~steps ~nemesis:nem ~disable_dedup ~cfg_tweak
          ~shrink:true ~seed ()
      in
      (match (trace_dump, obs) with
      | Some file, Some obs ->
        let file =
          if List.length services > 1 then file ^ "." ^ Stress.service_name service
          else file
        in
        let events = Grid_obs.Span.Recorder.events obs in
        (try Grid_obs.Span.dump_file file events
         with Sys_error e ->
           Printf.eprintf "trace-dump failed: %s\n" e;
           exit 1);
        Format.printf "trace: %d events -> %s@." (List.length events) file
      | _ -> ());
      Format.printf "seed %d (%s): %d delivered, %d replies, commit points [%s]@."
        seed
        (Stress.service_name service)
        o.delivered (List.length o.replies)
        (String.concat ";" (Array.to_list (Array.map string_of_int o.committed)));
      Format.printf "  plan (%d events): %a@." (List.length o.plan) Mcheck.pp_plan
        o.plan;
      let replay seed plan =
        match service with
        | Stress.Counter_service ->
          fst
            (Stress.Counter_harness.replay_plan ~steps
               ~meta_drop_prob:nem.Mcheck.meta_drop_prob ~disable_dedup ~cfg_tweak
               ~seed ~plan ())
        | Stress.Kv_service ->
          fst
            (Stress.Kv_harness.replay_plan ~steps
               ~meta_drop_prob:nem.Mcheck.meta_drop_prob ~disable_dedup ~cfg_tweak
               ~seed ~plan ())
      in
      let r = replay seed o.plan in
      if
        r.Mcheck.delivered = o.delivered
        && r.committed = o.committed
        && r.timer_fires = o.timer_fires
      then Format.printf "  replay from plan: deterministic (identical outcome)@."
      else begin
        Format.printf "  replay from plan DIVERGED@.";
        ok := false
      end;
      match failure with
      | None -> Format.printf "  all invariants hold@."
      | Some f ->
        print_failures [ f ];
        ok := false)
    services;
  if !ok then 0 else 1

(* Plant the double-commit bug (dedup disabled), find a schedule that
   catches it, and shrink that schedule to a minimal fault plan. Seeds
   whose fault-free schedule already fails (client retransmission alone
   can straddle a commit) shrink to an empty plan; prefer a seed where
   the injected faults are essential, so the minimal plan pins them. *)
let run_plant ~seed ~steps ~nem ~attempts =
  let nem = { nem with Mcheck.dup_prob = Float.max nem.Mcheck.dup_prob 0.15 } in
  let faultless_passes s =
    let _, reasons =
      Stress.Counter_harness.replay_plan ~steps
        ~meta_drop_prob:nem.Mcheck.meta_drop_prob ~disable_dedup:true ~seed:s
        ~plan:[] ()
    in
    reasons = []
  in
  let rec hunt s fallback =
    if s >= seed + attempts then fallback
    else
      let _, failure =
        Stress.run_one ~service:Stress.Counter_service ~steps ~nemesis:nem
          ~disable_dedup:true ~shrink:true ~seed:s ()
      in
      match failure with
      | Some f when faultless_passes s -> Some f
      | Some f -> hunt (s + 1) (if fallback = None then Some f else fallback)
      | None -> hunt (s + 1) fallback
  in
  Format.printf
    "hunting for a schedule that catches the planted dedup bug (seeds %d..%d)@."
    seed
    (seed + attempts - 1);
  match hunt seed None with
  | None ->
    Format.printf "planted bug escaped %d schedules — FAIL@." attempts;
    1
  | Some f ->
    print_failures [ f ];
    (match f.shrunk with
    | Some shrunk ->
      let o, reasons =
        Stress.Counter_harness.replay_plan ~steps
          ~meta_drop_prob:nem.Mcheck.meta_drop_prob ~disable_dedup:true
          ~seed:f.seed ~plan:shrunk ()
      in
      ignore o;
      if reasons <> [] then begin
        Format.printf
          "minimal failing schedule: seed %d, %d of %d fault events@." f.seed
          (List.length shrunk) (List.length f.plan);
        0
      end
      else begin
        Format.printf "shrunk plan no longer fails — FAIL@.";
        1
      end
    | None ->
      Format.printf "no shrunk plan produced — FAIL@.";
      1)

let batch_progress ~quiet =
  if quiet then None
  else
    Some
      (fun (s : Stress.summary) ->
        if s.schedules mod 50 = 0 then
          Format.printf "  ... %d schedules, %d failing@." s.schedules
            (List.length s.failures))

let run_batch ~services ~schedules ~base_seed ~steps ~nem ~disable_dedup
    ~cfg_tweak ~shrink ~quiet =
  let progress = batch_progress ~quiet in
  let summary =
    Stress.run ~services ~schedules ~base_seed ~steps ~nemesis:nem ~disable_dedup
      ~cfg_tweak ~shrink ?progress ()
  in
  Format.printf "%a@." Stress.pp_summary summary;
  print_failures summary.failures;
  if summary.failures = [] then 0 else 1

(* The overload tier: counter service, write-heavy workload, tiny
   admission window, crash-doubled nemesis, plus the admitted-loss and
   bounded-admitted-p99 oracles on every schedule. *)
let run_overload ~schedules ~base_seed ~steps ~max_inflight ~max_queue ~shrink
    ~quiet =
  let progress = batch_progress ~quiet in
  let summary =
    Stress.run_overload ~schedules ~base_seed ~steps ~max_inflight ~max_queue
      ~shrink ?progress ()
  in
  Format.printf "%a@." Stress.pp_summary summary;
  print_failures summary.failures;
  if summary.shed = 0 then begin
    Format.printf "no Overloaded pushback exercised — FAIL@.";
    1
  end
  else if summary.failures = [] then 0
  else 1

(* The cross-shard tier: sharded KV runtime, 2PC transactions under
   crashes, duplication/reordering and abandoned coordinators, with the
   agreement and cross-shard atomicity/serializability oracles on every
   schedule (see Grid_check.Xstress). *)
let run_xshard ~schedules ~base_seed ~quiet =
  let progress =
    if quiet then None
    else
      Some
        (fun (s : Grid_check.Xstress.summary) ->
          if s.s_schedules mod 50 = 0 then
            Format.printf "  ... %d schedules, %d failing@." s.s_schedules
              (List.length s.s_failures))
  in
  let summary = Grid_check.Xstress.run ~schedules ~base_seed ?progress () in
  Format.printf "%a@." Grid_check.Xstress.pp_summary summary;
  List.iter
    (fun (o : Grid_check.Xstress.outcome) ->
      Format.printf "FAIL %a@." Grid_check.Xstress.pp_outcome o;
      List.iter (fun v -> Format.printf "  %s@." v) o.o_violations)
    summary.s_failures;
  if summary.s_committed = 0 then begin
    Format.printf "no cross-shard commit exercised — FAIL@.";
    1
  end
  else if summary.s_failures = [] then 0
  else 1

(* The elastic-resharding tier: live shard splits/merges with snapshot
   handoff racing tagged appends, leader crashes in the migrating groups
   and parked coordinators, with the exactly-once acked-write oracle on
   every schedule (see Grid_check.Xstress). *)
let run_reshard ~schedules ~base_seed ~quiet =
  let progress =
    if quiet then None
    else
      Some
        (fun (s : Grid_check.Xstress.reshard_summary) ->
          if s.rs_schedules mod 50 = 0 then
            Format.printf "  ... %d schedules, %d failing@." s.rs_schedules
              (List.length s.rs_failures))
  in
  let summary = Grid_check.Xstress.run_reshard ~schedules ~base_seed ?progress () in
  Format.printf "%a@." Grid_check.Xstress.pp_reshard_summary summary;
  List.iter
    (fun (o : Grid_check.Xstress.reshard_outcome) ->
      Format.printf "FAIL %a@." Grid_check.Xstress.pp_reshard_outcome o;
      List.iter (fun v -> Format.printf "  %s@." v) o.r_violations)
    summary.rs_failures;
  if summary.rs_splits = 0 || summary.rs_acked = 0 || summary.rs_xcommitted = 0
  then begin
    Format.printf
      "no live split, acked write, or committed cross txn exercised — FAIL@.";
    1
  end
  else if summary.rs_failures = [] then 0
  else 1

let main schedules seed base_seed steps service crash torn dup reorder meta_drop
    drift drift_max lease_ms plant_dedup overload xshard reshard max_inflight
    max_queue disable_dedup no_shrink quiet trace_dump =
  let nem = nemesis ~crash ~torn ~dup ~reorder ~meta_drop ~drift ~drift_max in
  let cfg_tweak =
    if lease_ms > 0.0 then fun c -> Grid_paxos.Config.make ~base:c ~lease_ms ()
    else Fun.id
  in
  let services = services_of service in
  if plant_dedup then run_plant ~seed:base_seed ~steps ~nem ~attempts:40
  else if xshard then run_xshard ~schedules ~base_seed ~quiet
  else if reshard then run_reshard ~schedules ~base_seed ~quiet
  else if overload then
    run_overload ~schedules ~base_seed ~steps ~max_inflight ~max_queue
      ~shrink:(not no_shrink) ~quiet
  else
    match seed with
    | Some seed ->
      run_single ~services ~seed ~steps ~nem ~disable_dedup ~cfg_tweak ~trace_dump
    | None ->
      run_batch ~services ~schedules ~base_seed ~steps ~nem ~disable_dedup
        ~cfg_tweak ~shrink:(not no_shrink) ~quiet

let schedules_arg =
  Arg.(
    value & opt int 200
    & info [ "schedules" ] ~docv:"N" ~doc:"Number of seeded schedules to run.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Run exactly one schedule with this seed (per selected service), print \
           its fault plan, and verify the plan replays deterministically.")

let base_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "base-seed" ] ~docv:"N" ~doc:"First seed of the batch.")

let steps_arg =
  Arg.(
    value & opt int 1_200
    & info [ "steps" ] ~docv:"N" ~doc:"Scheduling steps per schedule.")

let service_arg =
  Arg.(
    value
    & opt (enum [ ("counter", `Counter); ("kv", `Kv); ("both", `Both) ]) `Both
    & info [ "service" ] ~docv:"SERVICE" ~doc:"Service under test (counter|kv|both).")

let rate name doc default =
  Arg.(value & opt float default & info [ name ] ~docv:"P" ~doc)

(* The fault-rate defaults are the library's standard stress mix. *)
let default = Stress.default_nemesis
let crash_arg = rate "crash" "Per-step crash probability." default.crash_prob
let torn_arg = rate "torn" "Fraction of crashes that are torn persists." default.torn_frac
let dup_arg = rate "dup" "Per-delivery duplication probability." default.dup_prob
let reorder_arg = rate "reorder" "Per-delivery reordering probability." default.reorder_prob

let meta_drop_arg =
  rate "meta-drop" "Per-persist metadata (commit/snapshot) loss probability."
    default.meta_drop_prob

let drift_arg = rate "drift" "Per-step clock-drift probability." default.drift_prob

let drift_max_arg =
  rate "drift-max-ms" "Maximum clock-drift offset in milliseconds." 2.0

let lease_ms_arg =
  rate "lease-ms"
    "Leader-lease duration in milliseconds (0 disables the read fast path)." 0.0

let plant_arg =
  Arg.(
    value & flag
    & info [ "plant-dedup" ]
        ~doc:
          "Demo: disable request deduplication, find a schedule that catches the \
           resulting double-commit, and shrink it to a minimal fault plan.")

let overload_arg =
  Arg.(
    value & flag
    & info [ "overload" ]
        ~doc:
          "Run the overload tier instead of the default batch: counter service \
           under a write-heavy open-loop workload with a tiny admission window \
           and a crash-doubled nemesis, checking the admitted-loss and bounded \
           admitted-p99 oracles on every schedule. Honours --schedules, \
           --base-seed, --steps, --max-inflight, --max-queue and --no-shrink.")

let xshard_arg =
  Arg.(
    value & flag
    & info [ "xshard" ]
        ~doc:
          "Run the cross-shard tier instead of the default batch: sharded KV \
           runtime driving 2PC transactions against replica crashes, message \
           duplication/reordering, contending single-shard traffic and \
           abandoned coordinators, with the per-group agreement and \
           cross-shard atomicity/serializability oracles on every schedule. \
           Honours --schedules, --base-seed and --quiet.")

let reshard_arg =
  Arg.(
    value & flag
    & info [ "reshard" ]
        ~doc:
          "Run the elastic-resharding tier instead of the default batch: a \
           live key range splits and merges between groups (snapshot handoff, \
           FREEZE/INSTALL/COMMIT) while closed-loop clients append tagged \
           tokens across the moving keyspace, leaders of the migrating groups \
           crash mid-protocol and some coordinators park after FREEZE for \
           presumed-abort recovery. Every schedule checks per-group agreement \
           and that each acked append appears exactly once at the final \
           owner. Honours --schedules, --base-seed and --quiet.")

let max_inflight_arg =
  Arg.(
    value & opt int 2
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:"Overload tier: leader read-admission window (0 = unlimited).")

let max_queue_arg =
  Arg.(
    value & opt int 2
    & info [ "max-queue" ] ~docv:"N"
        ~doc:"Overload tier: leader write-queue bound (0 = unlimited).")

let disable_dedup_arg =
  Arg.(
    value & flag
    & info [ "disable-dedup" ] ~doc:"Run the batch with the dedup table disabled.")

let no_shrink_arg =
  Arg.(value & flag & info [ "no-shrink" ] ~doc:"Do not shrink failing schedules.")

let quiet_arg = Arg.(value & flag & info [ "quiet" ] ~doc:"No progress output.")

let trace_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-dump" ] ~docv:"FILE"
        ~doc:
          "With --seed: record the replicas' lifecycle spans (virtual-clock \
           timestamps, deterministic per seed) and dump them as JSONL to $(docv).")

let cmd =
  let doc = "Nemesis stress harness for the replicated-service protocol" in
  Cmd.v
    (Cmd.info "grid-stress" ~doc)
    Term.(
      const main $ schedules_arg $ seed_arg $ base_seed_arg $ steps_arg
      $ service_arg $ crash_arg $ torn_arg $ dup_arg $ reorder_arg
      $ meta_drop_arg $ drift_arg $ drift_max_arg $ lease_ms_arg $ plant_arg
      $ overload_arg $ xshard_arg $ reshard_arg $ max_inflight_arg
      $ max_queue_arg $ disable_dedup_arg
      $ no_shrink_arg $ quiet_arg $ trace_dump_arg)

let () = exit (Cmd.eval' cmd)
