(* Introspection overhead: the identical closed-loop workload with the
   tracing plane off vs on. The simulator is deterministic, so the
   simulated latencies are byte-identical either way — the cost of the
   plane is host CPU time spent recording spans into the ring. Two
   traced configurations are measured: the deployed default (the
   flight recorder's 2048-event ring, always on in [tcp_node]) and the
   full-trace capacity used for debugging ([trace:true], 64k ring).
   Each trial times one run (create + closed loop) with the CPU clock;
   runs are long enough that the one-time trace-buffer allocation is
   amortized and the marginal per-request cost dominates, which is what
   a long-lived server pays. The full-trace configuration additionally
   pays for its 64k-slot buffer every run — a fixed debugging-mode cost
   that keeps amortizing as runs get longer — so the deployed plane
   (flight recorder) is the configuration the <5% overhead target is
   about. With --json-dir the per-trial samples land in
   BENCH_obs.json. *)

module Config = Grid_paxos.Config
module Runtime = Grid_runtime.Runtime
module Scenario = Grid_runtime.Scenario
module Stats = Grid_util.Stats
module Span = Grid_obs.Span
module T = Grid_util.Text_table
module Noop = Grid_services.Noop

module RT = Runtime.Make (Noop)

let clients = 4
let flight_capacity = 2048 (* as [Tcp_node.flight_capacity] *)

type cfg = Off | Flight | Full

let cfg_name = function
  | Off -> "trace off"
  | Flight -> Printf.sprintf "flight recorder (cap %d)" flight_capacity
  | Full -> "full trace (cap 65536)"

(* One timed run: [clients] closed-loop clients, [reqs] writes each.
   Returns (wall ms, spans recorded). The watchdogs run in every
   configuration — they are always on — so the deltas isolate the
   tracing plane itself. *)
let run_trial ~cfg:c ~seed ~reqs =
  let cfg = Config.default ~n:3 in
  let trace = c <> Off in
  let trace_capacity = match c with Flight -> Some flight_capacity | _ -> None in
  let t0 = Sys.time () in
  let t = RT.create ~cfg ~scenario:Scenario.sysnet ~seed ~trace ?trace_capacity () in
  let results =
    RT.run_closed_loop_ops t ~clients ~requests_per_client:reqs
      ~gen:(fun ~client:_ () -> Some (Runtime.Do Noop.Noop_write))
  in
  let elapsed = (Sys.time () -. t0) *. 1000.0 in
  if Array.length (RT.latencies results) <> clients * reqs then
    failwith "bench_obs: closed loop did not complete";
  (elapsed, Span.Recorder.length (RT.obs t))

(* The process slows down slightly but monotonically as the major heap
   grows, so measuring all off-trials and then all on-trials would book
   that drift as tracing overhead. Interleave the configurations within
   every seed instead, rotating which goes first, so drift cancels. *)
let measure ~trials ~reqs =
  let configs = [| Off; Flight; Full |] in
  Array.iter (fun c -> ignore (run_trial ~cfg:c ~seed:0 ~reqs)) configs;
  let accs = Array.map (fun _ -> Stats.create ()) configs in
  let spans = Array.map (fun _ -> 0) configs in
  for seed = 1 to trials do
    for k = 0 to Array.length configs - 1 do
      let j = (seed + k) mod Array.length configs in
      let ms, n = run_trial ~cfg:configs.(j) ~seed ~reqs in
      Stats.add accs.(j) ms;
      spans.(j) <- n;
      Report.sample ~experiment:"obs"
        ~config:(cfg_name configs.(j) ^ " (ms/run)")
        ms
    done
  done;
  (configs, accs, spans)

let run ~quick ~only =
  if only = None || only = Some "obs" then begin
    Experiment.section
      "obs — introspection plane overhead, tracing off vs on (ours)";
    let trials = if quick then 6 else 16 in
    let reqs = if quick then 1_000 else 2_500 in
    let configs, accs, spans = measure ~trials ~reqs in
    let table =
      T.create
        ~columns:
          [ ("Tracing", T.Left); ("Wall ms/run", T.Right); ("99% CI (ms)", T.Right);
            ("Events kept", T.Right) ]
    in
    Array.iteri
      (fun j c ->
        T.add_row table
          [ cfg_name c; T.cell_f (Stats.mean accs.(j));
            T.cell_ci (Stats.confidence_interval ~confidence:0.99 accs.(j));
            string_of_int spans.(j) ])
      configs;
    print_string (T.render table);
    let base = Stats.mean accs.(0) in
    let overhead j = (Stats.mean accs.(j) -. base) /. base *. 100.0 in
    Report.sample ~experiment:"obs" ~config:"flight recorder overhead (pct)"
      (overhead 1);
    Report.sample ~experiment:"obs" ~config:"full trace overhead (pct)" (overhead 2);
    Printf.printf
      "tracing overhead on %d requests/run: %+.1f%% flight recorder, %+.1f%% full \
       trace\n%!"
      (clients * reqs) (overhead 1) (overhead 2)
  end
