(* Cross-shard nemesis tier: seeded schedules over the sharded KV runtime
   driving 2PC transactions (DESIGN.md §16) against replica crashes,
   message duplication and reordering, and abandoned coordinators that a
   fresh client later recovers with presumed abort. Every schedule ends
   with per-group agreement ({!Agreement.check}) and the cross-shard
   atomicity/serializability oracle ({!Xshard.check}). *)

module M = Grid_shard.Multi.Make (Grid_services.Kv_store)
module Kv = Grid_services.Kv_store
module Partition = Grid_shard.Partition
module Rng = Grid_util.Rng
module Ids = Grid_util.Ids
module Engine = Grid_sim.Engine
module Network = Grid_sim.Network
module Scenario = Grid_runtime.Scenario
module Config = Grid_paxos.Config
module Types = Grid_paxos.Types

(* Footprints for the serializability checker, read back from logged
   payloads. *)
let footprint_of payload =
  match Kv.decode_op payload with op -> Kv.footprint op | exception _ -> [ "*" ]

let shards = 3
let replicas = 3

type outcome = {
  o_seed : int;
  o_committed : int;  (* cross txns the live coordinator committed *)
  o_aborted : int;
  o_conflicted : int;
  o_abandoned : int;  (* coordinators parked mid-protocol *)
  o_recovered : int;  (* abandoned txns resolved by recovery *)
  o_singles : int;  (* single-shard requests completed alongside *)
  o_crashes : int;
  o_violations : string list;
}

let pp_outcome ppf o =
  Format.fprintf ppf
    "seed %d: %d committed, %d aborted, %d conflicted, %d abandoned (%d \
     recovered), %d singles, %d crashes%s"
    o.o_seed o.o_committed o.o_aborted o.o_conflicted o.o_abandoned o.o_recovered
    o.o_singles o.o_crashes
    (match o.o_violations with
    | [] -> ""
    | vs -> Printf.sprintf ", %d VIOLATIONS" (List.length vs))

(* A few keys owned by shard [s], so transactions can be aimed at a
   chosen set of groups. Small pools on purpose: contention is what
   exercises the conflict votes and the prepared locks. *)
let keys_for p s =
  let rec go i acc found =
    if found >= 4 then List.rev acc
    else
      let k = Printf.sprintf "x%d-%d" s i in
      if Partition.owner_of_key p ("kv/" ^ k) = s then go (i + 1) (k :: acc) (found + 1)
      else go (i + 1) acc found
  in
  Array.of_list (go 0 [] 0)

(* Drain: heal — restart the crashed replica, quiesce the network — and
   let every replica learn every commit. *)
let drain t net down =
  (match !down with
  | Some (g, r) ->
    (* Only restart a replica whose scheduled crash actually fired;
       recovering a live one would restart it and distort the drain. *)
    if not (M.Group.replica_up (M.group t g) r) then M.recover_replica t ~shard:g r;
    down := None
  | None -> ());
  Network.set_duplicate_rate net 0.0;
  Network.set_reorder_rate net 0.0;
  M.run_until t (M.now t +. 2_000.0)

(* Drive a cross-shard transaction part-way by hand — per-shard branch
   ops, then prepares at a (possibly empty, possibly complete) subset of
   participants — and stop before any decision: an abandoned
   coordinator. [on_parked] fires once every submitted request has been
   answered, leaving the client's handles idle again. *)
let park_cross_txn t cl ~tid ~(shard_ops : (int * Kv.op) list) ~(prepare : int list)
    ~on_parked =
  let ops_pending = ref (List.length shard_ops) in
  let votes_pending = ref 0 in
  let phase = ref `Ops in
  let finish () =
    M.set_on_reply t cl (fun _ -> ());
    on_parked ()
  in
  let submit_prepares () =
    phase := `Votes;
    if prepare = [] then finish ()
    else begin
      votes_pending := List.length prepare;
      List.iter
        (fun s ->
          match M.submit_prepare t cl ~shard:s ~tid ~ops:1 with
          | `Submitted -> ()
          | `Busy -> invalid_arg "Xstress.park_cross_txn: busy handle")
        prepare
    end
  in
  M.set_on_reply t cl (fun (_ : Types.reply) ->
      match !phase with
      | `Ops ->
        decr ops_pending;
        if !ops_pending = 0 then submit_prepares ()
      | `Votes ->
        decr votes_pending;
        if !votes_pending = 0 then finish ());
  List.iter
    (fun (s, op) ->
      match M.submit_txn_op t cl ~shard:s ~tid op with
      | `Submitted -> ()
      | `Busy -> invalid_arg "Xstress.park_cross_txn: busy handle")
    shard_ops

let run_one ?(txns = 12) ?(singles_per_client = 15) ?(abandon_prob = 0.25)
    ?(crash_prob = 0.3) ~seed () : outcome =
  let rng = Rng.of_int (0x5eed + (seed * 7919)) in
  let cfg =
    Config.make ~n:replicas ~record_history:true ~suspicion_ms:60.0
      ~stability_ms:20.0 ()
  in
  let t =
    M.create ~seed ~cfg ~scenario:(Scenario.uniform ~n:replicas ()) ~route:Kv.route
      ~shards ()
  in
  let violations = ref [] in
  let violate fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  (match M.await_leaders t with
  | Some _ -> ()
  | None -> violate "no initial leaders");
  let net = M.network t in
  Network.set_duplicate_rate net 0.02;
  Network.set_reorder_rate net 0.05;
  let pool = Array.init shards (fun s -> keys_for (M.partition t) s) in
  let gen_op s =
    let key = Rng.pick rng pool.(s) in
    if Rng.bool rng then Kv.Put { key; value = Printf.sprintf "s%d" (Rng.int rng 100) }
    else Kv.Append { key; value = "+" }
  in
  (* Nemesis: at most one replica down at a time (any group still has a
     quorum), recovered a few hundred simulated ms later. *)
  let crashes = ref 0 in
  let down = ref None in
  let maybe_crash () =
    if !down = None && Rng.float rng 1.0 < crash_prob then begin
      let g = Rng.int rng shards and r = Rng.int rng replicas in
      down := Some (g, r);
      incr crashes;
      M.crash_replica t ~shard:g r;
      ignore
        (Engine.schedule (M.engine t)
           ~delay:(150.0 +. Rng.float rng 250.0)
           (fun () ->
             M.recover_replica t ~shard:g r;
             down := None))
    end
  in
  (* The coordinator chain: sequential cross-shard transactions, each
     either driven to its decision or abandoned mid-protocol and handed
     to a delayed recovery on a fresh logical client. *)
  let committed = ref 0
  and aborted = ref 0
  and conflicted = ref 0
  and abandoned = ref 0
  and recovered = ref 0 in
  let launched = ref 0 in
  let pending_recoveries = ref 0 in
  let next_client = ref 10 in
  let cl = M.add_client t ~id:0 () in
  let rec next_txn i =
    if i < txns then begin
      launched := i + 1;
      maybe_crash ();
      let order = [| 0; 1; 2 |] in
      Rng.shuffle rng order;
      let parts =
        List.sort Int.compare
          (Array.to_list (Array.sub order 0 (2 + Rng.int rng (shards - 1))))
      in
      let shard_ops = List.map (fun s -> (s, gen_op s)) parts in
      if Rng.float rng 1.0 < abandon_prob then begin
        incr abandoned;
        let tid = M.alloc_cross_tid t in
        let prepare = List.filter (fun _ -> Rng.bool rng) parts in
        park_cross_txn t cl ~tid ~shard_ops ~prepare ~on_parked:(fun () ->
            incr pending_recoveries;
            ignore
              (Engine.schedule (M.engine t)
                 ~delay:(80.0 +. Rng.float rng 150.0)
                 (fun () ->
                   let rcl = M.add_client t ~id:!next_client () in
                   incr next_client;
                   M.recover_cross_txn t rcl ~tid ~shards:parts
                     ~on_done:(fun (_ : M.xresult) ->
                       incr recovered;
                       decr pending_recoveries)));
            next_txn (i + 1))
      end
      else
        ignore
          (M.submit_cross_txn t cl ~ops:(List.map snd shard_ops)
             ~on_done:(fun res ->
               (match res with
               | M.X_committed -> incr committed
               | M.X_aborted -> incr aborted
               | M.X_conflict -> incr conflicted);
               next_txn (i + 1)))
    end
  in
  (* Concurrent single-shard traffic: two closed-loop clients hitting the
     same small key pools, so plain writes race the prepared locks. *)
  let singles_total = 2 * singles_per_client in
  let single_done = ref 0 in
  let start_single id =
    let scl = M.add_client t ~id () in
    let sent = ref 0 in
    let submit_next () =
      if !sent < singles_per_client then begin
        incr sent;
        let s = Rng.int rng shards in
        let op =
          if Rng.bool rng then gen_op s else Kv.Get (Rng.pick rng pool.(s))
        in
        match M.try_submit_op t scl op with
        | Ok _ -> ()
        | Error e ->
          Format.kasprintf invalid_arg "Xstress: single-shard submit: %a"
            M.pp_submit_error e
      end
    in
    M.set_on_reply t scl (fun _ ->
        incr single_done;
        submit_next ());
    submit_next ()
  in
  next_txn 0;
  start_single 1;
  start_single 2;
  let finished () =
    !launched = txns && !pending_recoveries = 0 && !single_done = singles_total
  in
  let horizon = M.now t +. 120_000.0 in
  while (not (finished ())) && M.now t < horizon do
    M.run_until t (M.now t +. 25.0)
  done;
  if not (finished ()) then
    violate "stalled: %d/%d txns launched, %d recoveries pending, %d/%d singles"
      !launched txns !pending_recoveries !single_done singles_total;
  drain t net down;
  (* Oracles. *)
  let group_histories g =
    Array.init replicas (fun i ->
        M.Group.R.committed_updates (M.Group.replica (M.group t g) i))
  in
  let longest = Array.make shards [] in
  for g = 0 to shards - 1 do
    let hs = group_histories g in
    Array.iter
      (fun h -> if List.length h > List.length longest.(g) then longest.(g) <- h)
      hs;
    List.iter
      (fun v -> violate "group %d agreement: %a" g Agreement.pp_violation v)
      (Agreement.check hs);
    match M.Group.leader (M.group t g) with
    | Some l -> (
      match M.Group.R.prepared_txns (M.Group.replica (M.group t g) l) with
      | [] -> ()
      | tids ->
        violate "group %d leader still holds prepares [%s] after drain" g
          (String.concat "," (List.map string_of_int tids)))
    | None -> violate "group %d has no leader after drain" g
  done;
  List.iter
    (fun v -> violate "xshard: %a" Xshard.pp_violation v)
    (Xshard.check ~require_resolved:true ~is_cross_tid:M.is_cross_tid ~footprint_of
       longest);
  if M.watchdog t |> Grid_obs.Watchdog.violations > 0 then
    violate "watchdog: %d online-invariant violations"
      (Grid_obs.Watchdog.violations (M.watchdog t));
  {
    o_seed = seed;
    o_committed = !committed;
    o_aborted = !aborted;
    o_conflicted = !conflicted;
    o_abandoned = !abandoned;
    o_recovered = !recovered;
    o_singles = !single_done;
    o_crashes = !crashes;
    o_violations = List.rev !violations;
  }

type summary = {
  s_schedules : int;
  s_committed : int;
  s_aborted : int;
  s_conflicted : int;
  s_abandoned : int;
  s_recovered : int;
  s_crashes : int;
  s_failures : outcome list;
}

let pp_summary ppf s =
  Format.fprintf ppf
    "%d schedules: %d committed, %d aborted, %d conflicted, %d abandoned (%d \
     recovered), %d crashes, %d failing"
    s.s_schedules s.s_committed s.s_aborted s.s_conflicted s.s_abandoned
    s.s_recovered s.s_crashes
    (List.length s.s_failures)

let run ?(schedules = 100) ?(base_seed = 1) ?txns ?singles_per_client
    ?abandon_prob ?crash_prob ?progress () =
  let acc =
    ref
      {
        s_schedules = 0;
        s_committed = 0;
        s_aborted = 0;
        s_conflicted = 0;
        s_abandoned = 0;
        s_recovered = 0;
        s_crashes = 0;
        s_failures = [];
      }
  in
  for i = 0 to schedules - 1 do
    let o =
      run_one ?txns ?singles_per_client ?abandon_prob ?crash_prob
        ~seed:(base_seed + i) ()
    in
    let s = !acc in
    acc :=
      {
        s_schedules = s.s_schedules + 1;
        s_committed = s.s_committed + o.o_committed;
        s_aborted = s.s_aborted + o.o_aborted;
        s_conflicted = s.s_conflicted + o.o_conflicted;
        s_abandoned = s.s_abandoned + o.o_abandoned;
        s_recovered = s.s_recovered + o.o_recovered;
        s_crashes = s.s_crashes + o.o_crashes;
        s_failures =
          (if o.o_violations = [] then s.s_failures else o :: s.s_failures);
      };
    match progress with Some f -> f !acc | None -> ()
  done;
  { !acc with s_failures = List.rev !acc.s_failures }

(* ------------------------------------------------------------------ *)
(* Elastic-resharding tier (DESIGN.md §17): seeded schedules that split
   and merge a live range back and forth between groups while
   closed-loop clients append uniquely tagged tokens across the moving
   keyspace, leaders of the migrating groups crash mid-protocol, and
   some coordinators park after FREEZE for presumed-abort recovery. The
   oracle: every acked append appears exactly once in the final owner's
   committed value — no lost and no double-executed acked write across
   any number of epoch changes. *)

module Reshard = Grid_shard.Reshard

type reshard_outcome = {
  r_seed : int;
  r_splits : int;  (* committed splits *)
  r_merges : int;  (* committed merges *)
  r_aborted : int;  (* transitions that ended R_aborted *)
  r_parked : int;  (* coordinators abandoned after FREEZE *)
  r_redirects : int;  (* transparent Wrong_epoch resubmissions *)
  r_acked : int;  (* acked appends the oracle verified *)
  r_xcommitted : int;  (* cross-shard txns committed across epochs *)
  r_xaborted : int;  (* cross-shard txns aborted or conflicted *)
  r_crashes : int;
  r_violations : string list;
}

let pp_reshard_outcome ppf o =
  Format.fprintf ppf
    "seed %d: %d splits, %d merges, %d aborted, %d parked, %d redirects, %d \
     acked, %d/%d xtxns, %d crashes%s"
    o.r_seed o.r_splits o.r_merges o.r_aborted o.r_parked o.r_redirects
    o.r_acked o.r_xcommitted
    (o.r_xcommitted + o.r_xaborted)
    o.r_crashes
    (match o.r_violations with
    | [] -> ""
    | vs -> Printf.sprintf ", %d VIOLATIONS" (List.length vs))

(* Cut points in footprint space: shard 0 owns [-inf,"kv/h"), shard 1
   ["kv/h","kv/p"), shard 2 ["kv/p",inf). Every transition moves
   ["kv/f","kv/h") out of (or back into) shard 0, so the "d"/"m"/"q"
   keys never move and the "f"/"g" keys migrate constantly. *)
let reshard_cuts = [ "kv/h"; "kv/p" ]
let reshard_cut = "kv/f"

let reshard_pool =
  [| "d0"; "d1"; "f0"; "f1"; "g0"; "g1"; "m0"; "m1"; "q0"; "q1" |]

let count_occurrences hay needle =
  let n = String.length needle and h = String.length hay in
  if n = 0 then 0
  else begin
    let c = ref 0 in
    for i = 0 to h - n do
      if String.sub hay i n = needle then incr c
    done;
    !c
  end

let run_reshard_one ?(steps = 6) ?(appends_per_client = 30) ?(park_prob = 0.2)
    ?(crash_prob = 0.35) ~seed () : reshard_outcome =
  let rng = Rng.of_int (0xe57a + (seed * 104729)) in
  let cfg =
    Config.make ~n:replicas ~record_history:true ~suspicion_ms:60.0
      ~stability_ms:20.0 ()
  in
  let t =
    M.create ~seed ~cfg ~scenario:(Scenario.uniform ~n:replicas ())
      ~route:Kv.route ~spec:(Partition.Range reshard_cuts) ~shards ()
  in
  let violations = ref [] in
  let violate fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  (match M.await_leaders t with
  | Some _ -> ()
  | None -> violate "no initial leaders");
  let net = M.network t in
  Network.set_duplicate_rate net 0.02;
  Network.set_reorder_rate net 0.05;
  (* Nemesis: crash the leader of a group participating in the starting
     transition; one replica down at a time so quorums survive. *)
  let crashes = ref 0 in
  let down = ref None in
  let maybe_crash_leader groups =
    if !down = None && Rng.float rng 1.0 < crash_prob then begin
      let g = List.nth groups (Rng.int rng (List.length groups)) in
      match M.Group.leader (M.group t g) with
      | None -> ()
      | Some r ->
        down := Some (g, r);
        incr crashes;
        ignore
          (Engine.schedule (M.engine t)
             ~delay:(Rng.float rng 60.0)
             (fun () -> M.crash_replica t ~shard:g r));
        ignore
          (Engine.schedule (M.engine t)
             ~delay:(200.0 +. Rng.float rng 300.0)
             (fun () ->
               M.recover_replica t ~shard:g r;
               down := None))
    end
  in
  (* The reshard chain: [steps] transitions, strictly sequential. Odd
     steps move the range back so splits always start from a clean cut
     list; the epoch floor mirrors Multi's internal one so parked (raw)
     freezes never reuse a burned epoch. *)
  let splits = ref 0
  and merges = ref 0
  and aborted = ref 0
  and parked = ref 0 in
  let steps_done = ref false in
  let split_active = ref false in
  let floor = ref 1 in
  let next_client = ref 100 in
  let coord = M.add_client t ~id:50 () in
  let attempt_epoch () = max (Partition.epoch (M.partition t) + 1) !floor in
  let rec next_step i =
    if i >= steps then steps_done := true
    else
      ignore
        (Engine.schedule (M.engine t)
           ~delay:(30.0 +. Rng.float rng 120.0)
           (fun () -> do_step i))
  and do_step i =
    if not !split_active then begin
      let target = 1 + Rng.int rng 2 in
      maybe_crash_leader [ 0; target ];
      if Rng.float rng 1.0 < park_prob then park_freeze i target
      else begin
        let e = attempt_epoch () in
        floor := e + 1;
        match
          M.split_shard t coord ~cut:reshard_cut ~target ~on_done:(fun r ->
              (match r with
              | M.R_committed ->
                incr splits;
                split_active := true
              | M.R_aborted _ -> incr aborted);
              next_step (i + 1))
        with
        | Ok () -> ()
        | Error e ->
          violate "split plan: %a" Partition.pp_reshard_error e;
          next_step (i + 1)
      end
    end
    else begin
      maybe_crash_leader [ 0; 1; 2 ];
      let e = attempt_epoch () in
      floor := e + 1;
      match
        M.merge_shards t coord ~cut:reshard_cut ~on_done:(fun r ->
            (match r with
            | M.R_committed ->
              incr merges;
              split_active := false
            | M.R_aborted _ -> incr aborted);
            next_step (i + 1))
      with
      | Ok () -> ()
      | Error e ->
        violate "merge plan: %a" Partition.pp_reshard_error e;
        next_step (i + 1)
    end
  and park_freeze i target =
    (* Abandoned coordinator: commit the FREEZE and vanish; a delayed
       presumed-abort recovery on a fresh client rolls it back and
       releases any writers blocked on the frozen range. *)
    match Reshard.split (M.partition t) ~cut:reshard_cut ~target with
    | Error e ->
      violate "park plan: %a" Partition.pp_reshard_error e;
      next_step (i + 1)
    | Ok o -> (
      let o =
        let e =
          match o with
          | Reshard.Trivial m -> Partition.epoch m
          | Reshard.Move p -> p.Reshard.pl_epoch
        in
        if e < !floor then Reshard.at_epoch o ~epoch:!floor else o
      in
      match o with
      | Reshard.Trivial _ -> next_step (i + 1)
      | Reshard.Move p ->
        let e = p.Reshard.pl_epoch in
        floor := e + 1;
        incr parked;
        let source = p.Reshard.pl_move.Partition.source in
        M.set_on_reply t coord (fun (_ : Types.reply) ->
            M.set_on_reply t coord (fun _ -> ());
            ignore
              (Engine.schedule (M.engine t)
                 ~delay:(60.0 +. Rng.float rng 150.0)
                 (fun () ->
                   let rcl = M.add_client t ~id:!next_client () in
                   incr next_client;
                   M.recover_reshard t rcl ~epoch:e ~source
                     ~target:p.Reshard.pl_move.Partition.target
                     ~on_done:(fun r ->
                       (match r with
                       | M.R_aborted _ -> incr aborted
                       | M.R_committed ->
                         incr splits;
                         split_active := true);
                       next_step (i + 1)))));
        (match
           M.submit_reshard t coord ~shard:source (Types.Reshard_freeze e)
             ~payload:p.Reshard.pl_freeze
         with
        | `Submitted -> ()
        | `Busy -> invalid_arg "Xstress.run_reshard: coordinator handle busy"))
  in
  (* Closed-loop appenders tagging every write with a unique token; the
     redirect wrapper hides Wrong_epoch from them, so an Ok reply is an
     ack whatever epoch finally served the request. *)
  let acked = ref [] in
  let clients = 3 in
  let appender_done = ref 0 in
  let appender_clients = ref [] in
  let start_appender idx =
    let scl = M.add_client t ~id:(10 + idx) () in
    appender_clients := scl :: !appender_clients;
    let sent = ref 0 in
    let cur = ref None in
    let submit_next () =
      if !sent >= appends_per_client then incr appender_done
      else begin
        incr sent;
        let key = Rng.pick rng reshard_pool in
        if Rng.float rng 1.0 < 0.2 then begin
          cur := None;
          match M.try_submit_op t scl (Kv.Get key) with
          | Ok _ -> ()
          | Error e ->
            Format.kasprintf invalid_arg "Xstress.run_reshard: get: %a"
              M.pp_submit_error e
        end
        else begin
          let token = Printf.sprintf "+%d.%d;" idx !sent in
          cur := Some (key, token);
          match M.try_submit_op t scl (Kv.Append { key; value = token }) with
          | Ok _ -> ()
          | Error e ->
            Format.kasprintf invalid_arg "Xstress.run_reshard: append: %a"
              M.pp_submit_error e
        end
      end
    in
    M.set_on_reply t scl (fun (r : Types.reply) ->
        (match !cur with
        | Some (key, token) when r.status = Types.Ok ->
          acked := (key, token) :: !acked
        | _ -> ());
        submit_next ());
    submit_next ()
  in
  (* Cross-shard transactions racing the migrations: each txn appends a
     unique token to a key inside the moving range plus one stable key
     in each of the other two groups, so every transaction spans the
     epoch boundary. The serializability checker runs over the drained
     histories, and an atomicity oracle counts each token at the final
     owners — exactly once on every key if the txn committed, zero
     times if it aborted, whatever the map looked like in between. *)
  let xtxn_moving = [| "f9"; "g9" |] in
  let xtxn_stable = [ "m9"; "q9" ] in
  let xtxns = 8 in
  let xtxn_results = ref [] in
  let x_committed = ref 0 and x_aborted = ref 0 in
  let xtxn_done = ref false in
  let xcl = M.add_client t ~id:7 () in
  let rec next_xtxn i =
    if i >= xtxns then xtxn_done := true
    else
      ignore
        (Engine.schedule (M.engine t)
           ~delay:(20.0 +. Rng.float rng 140.0)
           (fun () ->
             let mk = Rng.pick rng xtxn_moving in
             let token = Printf.sprintf "x%d;" i in
             let ops =
               List.map
                 (fun key -> Kv.Append { key; value = token })
                 (mk :: xtxn_stable)
             in
             ignore
               (M.submit_cross_txn t xcl ~ops ~on_done:(fun res ->
                    (match res with
                    | M.X_committed -> incr x_committed
                    | M.X_aborted | M.X_conflict -> incr x_aborted);
                    xtxn_results := (token, mk, res) :: !xtxn_results;
                    next_xtxn (i + 1)))))
  in
  next_step 0;
  next_xtxn 0;
  for i = 0 to clients - 1 do
    start_appender i
  done;
  let finished () =
    !steps_done && !appender_done = clients && !xtxn_done
  in
  let horizon = M.now t +. 180_000.0 in
  while (not (finished ())) && M.now t < horizon do
    M.run_until t (M.now t +. 25.0)
  done;
  if not (finished ()) then
    violate "stalled: steps_done=%b, %d/%d appenders finished, xtxns done=%b"
      !steps_done !appender_done clients !xtxn_done;
  drain t net down;
  (* Oracles: per-group agreement, cross-epoch serializability, the
     watchdog, exactly-once acked appends at the final owner, and
     all-or-nothing cross-shard transactions. *)
  let longest = Array.make shards [] in
  for g = 0 to shards - 1 do
    let hs =
      Array.init replicas (fun i ->
          M.Group.R.committed_updates (M.Group.replica (M.group t g) i))
    in
    Array.iter
      (fun h -> if List.length h > List.length longest.(g) then longest.(g) <- h)
      hs;
    List.iter
      (fun v -> violate "group %d agreement: %a" g Agreement.pp_violation v)
      (Agreement.check hs);
    match M.Group.leader (M.group t g) with
    | Some l ->
      let r = M.Group.replica (M.group t g) l in
      if M.Group.R.reshard_phase r <> "idle" then
        violate "group %d still %s after drain" g (M.Group.R.reshard_phase r)
    | None ->
      let buf = Buffer.create 64 in
      for i = 0 to replicas - 1 do
        let r = M.Group.replica (M.group t g) i in
        Buffer.add_string buf
          (Printf.sprintf "[r%d up=%b ldr=%b bal=%s view=%s phase=%s cp=%d] " i
             (M.Group.replica_up (M.group t g) i)
             (M.Group.R.is_leader r)
             (Format.asprintf "%a" Types.Ballot.pp (M.Group.R.ballot r))
             (match M.Group.R.leader_view r with
             | Some v -> string_of_int v
             | None -> "-")
             (M.Group.R.reshard_phase r)
             (M.Group.R.commit_point r))
      done;
      violate "group %d has no leader after drain: %s" g (Buffer.contents buf)
  done;
  (* The cross-shard serializability checker, extended across epochs:
     the histories it reads interleave 2PC prepares/decisions with
     reshard markers and the imported slice, and must still present
     every cross-tid with a single consistent decision. *)
  List.iter
    (fun v -> violate "xshard: %a" Xshard.pp_violation v)
    (Xshard.check ~require_resolved:true ~is_cross_tid:M.is_cross_tid
       ~footprint_of longest);
  (* Atomicity across the epoch change: a committed txn's token appears
     exactly once on every key it touched at that key's *final* owner —
     in particular the moving key must not have been lost in a slice
     shipped under a prepared lock — and an aborted txn's on none. *)
  let count_at key token =
    let g = Partition.owner_of_key (M.partition t) ("kv/" ^ key) in
    let state =
      match M.Group.leader (M.group t g) with
      | Some l -> M.Group.R.state (M.Group.replica (M.group t g) l)
      | None -> M.Group.R.state (M.Group.replica (M.group t g) 0)
    in
    count_occurrences (Option.value ~default:"" (Kv.find state key)) token
  in
  List.iter
    (fun (token, mk, res) ->
      let expect = match res with M.X_committed -> 1 | _ -> 0 in
      List.iter
        (fun key ->
          let n = count_at key token in
          if n <> expect then
            violate "cross txn %s (%a) applied %d times (want %d) on %s"
              token M.pp_xresult res n expect key)
        (mk :: xtxn_stable))
    !xtxn_results;
  List.iter
    (fun (key, token) ->
      let g = Partition.owner_of_key (M.partition t) ("kv/" ^ key) in
      let state =
        match M.Group.leader (M.group t g) with
        | Some l -> M.Group.R.state (M.Group.replica (M.group t g) l)
        | None -> M.Group.R.state (M.Group.replica (M.group t g) 0)
      in
      let v = Option.value ~default:"" (Kv.find state key) in
      let n = count_occurrences v token in
      if n <> 1 then
        violate "acked append %s on %s applied %d times at final owner %d"
          token key n g)
    !acked;
  if M.watchdog t |> Grid_obs.Watchdog.violations > 0 then
    violate "watchdog: %d online-invariant violations"
      (Grid_obs.Watchdog.violations (M.watchdog t));
  {
    r_seed = seed;
    r_splits = !splits;
    r_merges = !merges;
    r_aborted = !aborted;
    r_parked = !parked;
    r_redirects =
      List.fold_left (fun acc cl -> acc + M.redirect_count cl) 0
        !appender_clients;
    r_acked = List.length !acked;
    r_xcommitted = !x_committed;
    r_xaborted = !x_aborted;
    r_crashes = !crashes;
    r_violations = List.rev !violations;
  }

type reshard_summary = {
  rs_schedules : int;
  rs_splits : int;
  rs_merges : int;
  rs_aborted : int;
  rs_parked : int;
  rs_redirects : int;
  rs_acked : int;
  rs_xcommitted : int;
  rs_xaborted : int;
  rs_crashes : int;
  rs_failures : reshard_outcome list;
}

let pp_reshard_summary ppf s =
  Format.fprintf ppf
    "%d schedules: %d splits, %d merges, %d aborted, %d parked, %d redirects, \
     %d acked writes verified, %d/%d cross txns committed, %d crashes, %d \
     failing"
    s.rs_schedules s.rs_splits s.rs_merges s.rs_aborted s.rs_parked
    s.rs_redirects s.rs_acked s.rs_xcommitted
    (s.rs_xcommitted + s.rs_xaborted)
    s.rs_crashes
    (List.length s.rs_failures)

let run_reshard ?(schedules = 100) ?(base_seed = 1) ?steps ?appends_per_client
    ?park_prob ?crash_prob ?progress () =
  let acc =
    ref
      {
        rs_schedules = 0;
        rs_splits = 0;
        rs_merges = 0;
        rs_aborted = 0;
        rs_parked = 0;
        rs_redirects = 0;
        rs_acked = 0;
        rs_xcommitted = 0;
        rs_xaborted = 0;
        rs_crashes = 0;
        rs_failures = [];
      }
  in
  for i = 0 to schedules - 1 do
    let o =
      run_reshard_one ?steps ?appends_per_client ?park_prob ?crash_prob
        ~seed:(base_seed + i) ()
    in
    let s = !acc in
    acc :=
      {
        rs_schedules = s.rs_schedules + 1;
        rs_splits = s.rs_splits + o.r_splits;
        rs_merges = s.rs_merges + o.r_merges;
        rs_aborted = s.rs_aborted + o.r_aborted;
        rs_parked = s.rs_parked + o.r_parked;
        rs_redirects = s.rs_redirects + o.r_redirects;
        rs_acked = s.rs_acked + o.r_acked;
        rs_xcommitted = s.rs_xcommitted + o.r_xcommitted;
        rs_xaborted = s.rs_xaborted + o.r_xaborted;
        rs_crashes = s.rs_crashes + o.r_crashes;
        rs_failures =
          (if o.r_violations = [] then s.rs_failures else o :: s.rs_failures);
      };
    match progress with Some f -> f !acc | None -> ()
  done;
  { !acc with rs_failures = List.rev !acc.rs_failures }
