(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation (§4) plus the ablations listed in DESIGN.md.

     dune exec bench/main.exe                 # everything, full trials
     dune exec bench/main.exe -- --quick      # CI-speed pass
     dune exec bench/main.exe -- --only fig5  # one experiment
     dune exec bench/main.exe -- --list       # experiment ids *)

let experiments =
  [
    ("rrt-sysnet", "RRT on the Sysnet cluster (§4.1 text)");
    ("rrt-princeton", "RRT Berkeley → Princeton (§4.1 text)");
    ("rrt-wan", "RRT on the WAN configuration (§4.1 text)");
    ("reads", "Read-path RRT: basic vs X-Paxos vs leased (§3.4 + leases)");
    ("fig5", "Sysnet throughput, 1–16 clients (Figure 5)");
    ("fig6", "Sysnet throughput, 8–128 clients (Figure 6)");
    ("fig7", "Berkeley → Princeton throughput (Figure 7)");
    ("fig8", "WAN throughput (Figure 8)");
    ("throughput", "Figures 5–8 in one pass (fills BENCH_throughput.json)");
    ("table1", "Transaction response time (Table 1)");
    ("fig9a", "Transaction throughput, 3 req/txn (Figure 9a)");
    ("fig9b", "Transaction throughput, 5 req/txn (Figure 9b)");
    ("txn-wan", "Transaction response time across the WAN (ours)");
    ("txn", "Table 1 + Figures 9a/9b + txn-wan in one pass (fills BENCH_txn.json)");
    ("abl-leader-switch", "Leader-switch sensitivity (§3.6)");
    ("abl-state-size", "State size × shipping mode (§3.3)");
    ("abl-t2", "t=2 replicas and WAN variance (§4.3)");
    ("msg-complexity", "Wire messages per request vs analysis (§3.3–3.5)");
    ("wire", "Wire codec: ns/msg and bytes/request of the V1 encoding (ours)");
    ("openloop", "Median latency vs offered load, open loop (ours)");
    ("overload", "Goodput vs offered load under admission control (ours)");
    ("shard", "Aggregate throughput vs shard count (ours)");
    ("xshard", "Cross-shard 2PC commit vs single-shard transactions (ours)");
    ("reshard", "Client-visible latency across a live shard split (ours)");
    ("semi-passive", "Semi-passive replication baseline (§5, ours)");
    ("obs", "Introspection plane overhead: tracing off vs on (ours)");
    ("micro", "Data-structure microbenchmarks");
  ]

let run_all ~quick ~only ~sweep =
  (match only with
  | Some id when not (List.mem_assoc id experiments) ->
    Printf.eprintf "unknown experiment %S; try --list\n" id;
    exit 1
  | _ -> ());
  Printf.printf
    "Replicating Nondeterministic Services on Grid Environments (HPDC 2006)\n\
     benchmark harness — %s run%s\n"
    (if quick then "quick" else "full")
    (match only with Some id -> Printf.sprintf ", experiment %s" id | None -> "");
  Bench_rrt.run ~quick ~only;
  Bench_reads.run ~quick ~only;
  Bench_throughput.run ~sweep ~quick ~only;
  Bench_txn.run ~quick ~only;
  Bench_ablation.run ~quick ~only;
  Bench_messages.run ~quick ~only;
  Bench_wire.run ~quick ~only;
  Bench_openloop.run ~quick ~only;
  Bench_overload.run ~quick ~only;
  Bench_shard.run ~quick ~only;
  Bench_xshard.run ~quick ~only;
  Bench_reshard.run ~quick ~only;
  Bench_semi_passive.run ~quick ~only;
  Bench_obs.run ~quick ~only;
  Bench_micro.run ~quick ~only;
  print_newline ();
  Report.flush ()

open Cmdliner

let quick =
  let doc = "Fewer trials per experiment (CI-speed)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let only =
  let doc = "Run only the experiment with this id (see --list)." in
  Arg.(value & opt (some string) None & info [ "only" ] ~docv:"ID" ~doc)

let list_flag =
  let doc = "List experiment ids and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let sweep =
  let doc =
    "Extra sweep axes for the throughput family (comma-separated from: \
     batch, state), e.g. --sweep batch,state. Runs with the throughput \
     experiments and lands in BENCH_throughput.json."
  in
  Arg.(value & opt (list string) [] & info [ "sweep" ] ~docv:"AXES" ~doc)

let json_dir =
  let doc =
    "Also write machine-readable BENCH_<id>.json telemetry (n/mean/ci99/p50/p99 \
     and raw samples per config) into $(docv)."
  in
  Arg.(value & opt (some dir) None & info [ "json-dir" ] ~docv:"DIR" ~doc)

let main quick only sweep list_flag json_dir =
  if list_flag then
    List.iter (fun (id, d) -> Printf.printf "%-18s %s\n" id d) experiments
  else begin
    (match json_dir with Some dir -> Report.enable ~dir | None -> ());
    run_all ~quick ~only ~sweep
  end

let cmd =
  let doc = "Regenerate the tables and figures of the paper's evaluation" in
  let info = Cmd.info "grid-replication-bench" ~doc in
  Cmd.v info Term.(const main $ quick $ only $ sweep $ list_flag $ json_dir)

let () = exit (Cmd.eval cmd)
