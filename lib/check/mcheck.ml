(** Randomized-schedule state-space exploration for the protocol engines.

    Because the replica and client engines are pure step machines, a
    scheduler that owns the message pool and timer set can drive them
    through interleavings far more adversarial than the latency-ordered
    ones the simulator produces: reordering across pairs (FIFO per pair
    is preserved, as with TCP), arbitrarily late timer firings, crashes
    and recoveries at any step.

    This version adds a nemesis: per-delivery duplication and reordering
    dice, torn-persist crashes (the process dies inside a storage write,
    so the record is lost and the engine step never completes), silent
    loss of metadata records, and crash-consistent recovery — a revived
    replica is rebuilt from its persisted image via {!Replica.load}, not
    from its in-memory carcass. Every fault that fires is recorded in a
    {!plan} keyed by scheduler step, so a failing run can be replayed
    exactly and then shrunk to a minimal failing schedule.

    Each run uses one seed; scheduling choices and fault dice draw from
    two separate RNG streams so that replaying a recorded plan (no dice)
    leaves the scheduling stream — and hence the schedule — unchanged. *)

module Rng = Grid_util.Rng
open Grid_paxos.Types

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)

type fault_event =
  | Crash_at of { step : int; victim : int; torn : bool }
  | Recover_at of { step : int; victim : int }
  | Duplicate_at of { step : int }
  | Reorder_at of { step : int; depth : int }
  | Drift_at of { step : int; victim : int; offset_ms : float }
      (** the victim's clock jumps to virtual time + [offset_ms]; attacks
          the leader-lease clock-skew bound *)

type plan = fault_event list

let fault_step = function
  | Crash_at { step; _ } | Recover_at { step; _ }
  | Duplicate_at { step } | Reorder_at { step; _ } | Drift_at { step; _ } -> step

let pp_fault ppf = function
  | Crash_at { step; victim; torn } ->
    Format.fprintf ppf "@%d crash(%d%s)" step victim (if torn then ",torn" else "")
  | Recover_at { step; victim } -> Format.fprintf ppf "@%d recover(%d)" step victim
  | Duplicate_at { step } -> Format.fprintf ppf "@%d duplicate" step
  | Reorder_at { step; depth } -> Format.fprintf ppf "@%d reorder(+%d)" step depth
  | Drift_at { step; victim; offset_ms } ->
    Format.fprintf ppf "@%d drift(%d,%+.2fms)" step victim offset_ms

let pp_plan ppf plan =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_fault)
    plan

type nemesis = {
  crash_prob : float;  (** per-step probability of a crash (recover: 2x window) *)
  torn_frac : float;
      (** fraction of crashes that are torn: the victim dies inside its
          next storage persist instead of between steps *)
  dup_prob : float;  (** per-delivery probability of re-enqueuing a copy *)
  reorder_prob : float;
      (** per-delivery probability of delivering from the middle of the
          channel instead of its head *)
  meta_drop_prob : float;
      (** per-persist probability that a commit-point or snapshot record
          is silently lost (always repairable; see {!Grid_paxos.Storage}) *)
  drift_prob : float;
      (** per-step probability that one replica's clock jumps to a fresh
          offset from virtual time *)
  drift_max_ms : float;  (** drifted offsets are uniform in [-max, +max] *)
}

let no_faults =
  { crash_prob = 0.0; torn_frac = 0.0; dup_prob = 0.0; reorder_prob = 0.0;
    meta_drop_prob = 0.0; drift_prob = 0.0; drift_max_ms = 0.0 }

(* Greedy event-removal shrinking: repeatedly try dropping each event;
   keep any removal after which the schedule still fails. One-at-a-time
   passes loop to a fixed point. *)
let shrink_plan ~still_fails plan =
  let current = ref plan in
  let changed = ref true in
  while !changed do
    changed := false;
    let rec pass kept = function
      | [] -> List.rev kept
      | ev :: rest ->
        let candidate = List.rev_append kept rest in
        if still_fails candidate then begin
          changed := true;
          pass kept rest
        end
        else pass (ev :: kept) rest
    in
    current := pass [] !current
  done;
  !current

type outcome = {
  replies : reply list;
  violations : Agreement.violation list;
  durability : string list;
      (** crash-recovery invariant breaches: a revived replica whose
          reloaded state disagrees with what the group committed *)
  stale_reads : string list;
      (** reads whose reply reflects fewer writes than were committed
          before the read was issued — the invariant the leader-lease
          fast path must preserve under clock drift and failovers *)
  lost_admitted : string list;
      (** admitted-loss oracle breaches: writes acknowledged [Ok] to the
          client that no replica ever observed committed — the invariant
          admission control must preserve while shedding under overload *)
  admitted_latencies : float array;
      (** virtual-time first-injection-to-final-reply latency of every
          request that completed, in completion order; [Overloaded]
          pushback rounds are included in the latency of the eventual
          completion, so the p99 of this array is what the
          bounded-admitted-latency oracle inspects *)
  committed : int array;  (** commit point per replica at the end *)
  delivered : int;
  timer_fires : int;
  all_replied : bool;
  plan : plan;
      (** the faults that actually fired, in order — replayable *)
  crashes : int;
  torn_persists : int;  (** persists that died mid-write *)
  meta_dropped : int;  (** commit/snapshot records silently lost *)
  duplicated : int;
  reordered : int;
  drifted : int;  (** clock-drift injections that fired *)
  shed : int;  (** [Overloaded] replies the leaders pushed back *)
  wire_errors : string list;
      (** wire-codec oracle breaches: a delivered message that failed
          the encode → decode roundtrip through {!Grid_paxos.Wire_codec} *)
  watchdog_violations : int;
      (** online invariant checks ({!Grid_obs.Watchdog}) that fired inside
          the replicas during the run — the runtime mirror of the offline
          oracles above, asserted silent on green schedules *)
  watchdog_detail : string list;
      (** one line per violation, in firing order *)
}

let failed o =
  o.violations <> [] || o.durability <> [] || o.stale_reads <> []
  || o.lost_admitted <> [] || o.wire_errors <> []

module Make (S : Grid_paxos.Service_intf.S) = struct
  module R = Grid_paxos.Replica.Make (S)

  type mode =
    | Record of { nem : nemesis; frng : Rng.t }
    | Replay of (int, fault_event) Hashtbl.t

  type sched = {
    rng : Rng.t;  (* scheduling choices only; fault dice use frng *)
    base_seed : int;
    cfg : Grid_paxos.Config.t;
    replicas : R.t array;
    down : bool array;
    stores : Grid_paxos.Storage.t array;
    reads : (unit -> Grid_paxos.Storage.persisted) array;
    ctls : Grid_paxos.Storage.fault_ctl array;
    (* FIFO queue per directed pair, keyed (src, dst); client requests
       travel through these too, so the nemesis dice apply to them. *)
    channels : (int * int, msg Queue.t) Hashtbl.t;
    mutable timers : (int * timer * float) list;
    mutable vnow : float;
    (* Per-replica clock offset from virtual time, in ms. Timers stay on
       virtual time (they measure durations); only the [now] a replica
       reads — and hence its lease arithmetic — is skewed. *)
    skew : float array;
    mutable replies : reply list;
    mutable delivered : int;
    mutable timer_fires : int;
    mutable nstep : int;
    mutable mode : mode;
    mutable plan_rev : fault_event list;
    mutable wire_errors : string list;
    (* instance -> (request key, encoded state after): the union of every
       committed update any incarnation of any replica has reported. *)
    oracle : (int, string * string) Hashtbl.t;
    (* (client, seq) of every request observed in a committed instance —
       the admitted-loss oracle checks acknowledged writes against it. *)
    committed_ids : (int * int, unit) Hashtbl.t;
    (* (client, seq) -> virtual time of the first final reply captured *)
    reply_times : (int * int, float) Hashtbl.t;
    mutable durability : string list;
    mutable crashes : int;
    mutable shed : int;  (* Overloaded replies observed *)
    (* Lifecycle spans recorded by the replicas, timed on [vnow] — fully
       deterministic for a given seed, which the trace tests exploit. *)
    obs : Grid_obs.Span.Recorder.t;
    (* Online invariant sink shared by every replica incarnation: the
       runtime mirror of the offline oracles below. Green schedules keep
       it silent; planted bugs (disable_dedup) fire it. *)
    wd : Grid_obs.Watchdog.t;
  }

  let record sched ev = sched.plan_rev <- ev :: sched.plan_rev

  let enqueue sched ~src ~dst msg =
    let q =
      match Hashtbl.find_opt sched.channels (src, dst) with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace sched.channels (src, dst) q;
        q
    in
    Queue.add msg q

  (* Remove and return the [n]-th element (0-based) of [q]. *)
  let take_nth q n =
    let n = min n (Queue.length q - 1) in
    let prefix = Queue.create () in
    for _ = 1 to n do
      Queue.add (Queue.take q) prefix
    done;
    let x = Queue.take q in
    Queue.transfer q prefix;
    Queue.transfer prefix q;
    x

  let exec_actions sched i actions =
    List.iter
      (function
        | Send { dst; msg } ->
          if node_is_client dst then begin
            match msg with
            (* [Retry] (redirect) and [Overloaded] (admission pushback)
               are not completions: the closed-loop client keeps the
               request pending and retransmits it. Only final statuses
               enter the observed-reply history. *)
            | Reply_msg { status = Overloaded _; _ } ->
              sched.shed <- sched.shed + 1
            | Reply_msg r when status_is_final r.status ->
              let key =
                (Grid_util.Ids.Client_id.to_int r.req.client, r.req.seq)
              in
              if not (Hashtbl.mem sched.reply_times key) then
                Hashtbl.replace sched.reply_times key sched.vnow;
              sched.replies <- r :: sched.replies
            | _ -> ()
          end
          else enqueue sched ~src:i ~dst msg
        | After { delay; timer } ->
          sched.timers <- (i, timer, sched.vnow +. delay) :: sched.timers
        | Note _ -> ())
      actions

  let mark_down sched i =
    if not sched.down.(i) then begin
      sched.down.(i) <- true;
      sched.crashes <- sched.crashes + 1;
      (* Its in-flight timers die with it. *)
      sched.timers <- List.filter (fun (j, _, _) -> j <> i) sched.timers
    end

  (* A torn crash arms the victim's storage: its next persist raises
     {!Grid_paxos.Storage.Crashed} and [dispatch] converts that into the
     actual crash — the record is lost and the step's actions never
     execute, exactly a death between write and fsync-ack. *)
  let crash_replica sched victim ~torn =
    if torn then sched.ctls.(victim).tear_rate <- 1.0
    else begin
      sched.ctls.(victim).tear_rate <- 0.0;
      mark_down sched victim
    end

  (* The wire model: every delivery is encoded, decoded back, and the
     decoded message is what the destination receives, as over TCP. A
     roundtrip failure is an oracle breach (the codec must be lossless
     for every reachable message) and the message is dropped, as the
     transport drops a corrupt frame; retransmission decides liveness
     from there. *)
  let wire_roundtrip sched ~src ~dst msg =
    match Grid_paxos.Wire_codec.(decode (encode msg)) with
    | Stdlib.Ok m -> Some m
    | Stdlib.Error e ->
      sched.wire_errors <-
        Printf.sprintf "step %d, %d -> %d (%s): %s" sched.nstep src dst (msg_kind msg)
          (Grid_codec.Wire_intf.decode_error_to_string e)
        :: sched.wire_errors;
      None

  let dispatch sched i input =
    if not sched.down.(i) then
      match R.handle sched.replicas.(i) ~now:(sched.vnow +. sched.skew.(i)) input with
      | actions -> exec_actions sched i actions
      | exception Grid_paxos.Storage.Crashed ->
        sched.ctls.(i).tear_rate <- 0.0;
        mark_down sched i

  (* ---------------------------------------------------------------- *)
  (* Durability oracle                                                 *)

  let merge_history sched replica history =
    List.iter
      (fun (instance, reqs, state) ->
        List.iter
          (fun (r : request) ->
            Hashtbl.replace sched.committed_ids
              (Grid_util.Ids.Client_id.to_int r.id.client, r.id.seq)
              ())
          reqs;
        let key = Agreement.request_key reqs in
        match Hashtbl.find_opt sched.oracle instance with
        | None -> Hashtbl.replace sched.oracle instance (key, state)
        | Some (k0, s0) ->
          if not (String.equal k0 key && String.equal s0 state) then
            sched.durability <-
              Printf.sprintf
                "replica %d committed a different value for instance %d than \
                 previously observed"
                replica instance
              :: sched.durability)
      history

  let refresh_oracle sched =
    Array.iteri
      (fun i r -> merge_history sched i (R.committed_updates r))
      sched.replicas

  (* Rebuild [back] from its persisted image — true crash-consistent
     recovery, unlike an in-place [R.restart] which would keep whatever
     the in-memory object happened to hold. The reloaded state must match
     the committed prefix the group observed: that is the durability
     invariant the nemesis exists to attack. *)
  let revive sched back =
    refresh_oracle sched;
    sched.ctls.(back).tear_rate <- 0.0;
    let r =
      R.create ~cfg:sched.cfg ~id:back ~seed:(sched.base_seed + back)
        ~storage:sched.stores.(back) ~obs:sched.obs ~watchdog:sched.wd ()
    in
    R.load r (sched.reads.(back) ());
    sched.replicas.(back) <- r;
    merge_history sched back (R.committed_updates r);
    let cp = R.commit_point r in
    if cp > 0 then begin
      match Hashtbl.find_opt sched.oracle cp with
      | Some (_, st) ->
        if not (String.equal st (S.encode_state (R.state r))) then
          sched.durability <-
            Printf.sprintf
              "replica %d recovered a state at instance %d that differs from \
               the committed one"
              back cp
            :: sched.durability
      | None ->
        sched.durability <-
          Printf.sprintf
            "replica %d recovered to commit point %d, which was never observed \
             committed"
            back cp
          :: sched.durability
    end;
    (* Messages queued toward it while down are lost (TCP reset). *)
    Hashtbl.iter (fun (_, dst) q -> if dst = back then Queue.clear q) sched.channels;
    sched.down.(back) <- false;
    exec_actions sched back (R.restart r ~now:(sched.vnow +. sched.skew.(back)))

  (* ---------------------------------------------------------------- *)
  (* Scheduling                                                        *)

  let deliverable_pairs sched =
    Hashtbl.fold
      (fun (src, dst) q acc ->
        if (not (Queue.is_empty q)) && not sched.down.(dst) then (src, dst) :: acc
        else acc)
      sched.channels []
    |> List.sort compare

  (* Crash/recovery decision for this step; [true] if it consumed the
     step. Recording draws from the fault RNG; replay consults the plan
     and rolls no dice, leaving the scheduling stream aligned. *)
  let nemesis_step sched ~max_down =
    let down_count =
      Array.fold_left (fun n d -> if d then n + 1 else n) 0 sched.down
    in
    match sched.mode with
    | Record { nem; frng }
      when nem.drift_prob > 0.0 && Rng.float frng 1.0 < nem.drift_prob ->
      (* The drift dice roll only when drift is enabled, so existing
         seeds and recorded plans replay unchanged. *)
      let victim = Rng.int frng sched.cfg.n in
      let offset_ms = Rng.float frng (2.0 *. nem.drift_max_ms) -. nem.drift_max_ms in
      record sched (Drift_at { step = sched.nstep; victim; offset_ms });
      sched.skew.(victim) <- offset_ms;
      true
    | Record { nem; frng } when nem.crash_prob > 0.0 ->
      let roll = Rng.float frng 1.0 in
      if roll < nem.crash_prob && down_count < max_down then begin
        let live =
          List.filter
            (fun i -> not sched.down.(i))
            (Grid_paxos.Config.replica_ids sched.cfg)
        in
        match live with
        | [] -> false
        | _ ->
          let victim = Rng.pick_list frng live in
          let torn = nem.torn_frac > 0.0 && Rng.float frng 1.0 < nem.torn_frac in
          record sched (Crash_at { step = sched.nstep; victim; torn });
          crash_replica sched victim ~torn;
          true
      end
      else if roll < 2.0 *. nem.crash_prob && down_count > 0 then begin
        let dead =
          List.filter
            (fun i -> sched.down.(i))
            (Grid_paxos.Config.replica_ids sched.cfg)
        in
        match dead with
        | [] -> false
        | _ ->
          let back = Rng.pick_list frng dead in
          record sched (Recover_at { step = sched.nstep; victim = back });
          revive sched back;
          true
      end
      else false
    | Record _ -> false
    | Replay tbl -> (
      (* Best effort under shrinking: an event whose precondition no
         longer holds (victim already down / already up) is skipped. *)
      match Hashtbl.find_opt tbl sched.nstep with
      | Some (Crash_at { victim; torn; _ }) when not sched.down.(victim) ->
        record sched (Crash_at { step = sched.nstep; victim; torn });
        crash_replica sched victim ~torn;
        true
      | Some (Recover_at { victim; _ }) when sched.down.(victim) ->
        record sched (Recover_at { step = sched.nstep; victim });
        revive sched victim;
        true
      | Some (Drift_at { victim; offset_ms; _ }) ->
        record sched (Drift_at { step = sched.nstep; victim; offset_ms });
        sched.skew.(victim) <- offset_ms;
        true
      | _ -> false)

  (* One scheduling step: a nemesis event, a message delivery (possibly
     reordered within its channel, possibly duplicated), or a timer
     firing. Weights bias toward delivery so runs make progress. *)
  let step sched ~max_down =
    if nemesis_step sched ~max_down then true
    else begin
      let pairs = deliverable_pairs sched in
      let timers = sched.timers in
      let deliver () =
        match pairs with
        | [] -> false
        | _ ->
          let src, dst = Rng.pick_list sched.rng pairs in
          let q = Hashtbl.find sched.channels (src, dst) in
          let msg =
            match sched.mode with
            | Record { nem; frng } ->
              if
                Queue.length q >= 2
                && nem.reorder_prob > 0.0
                && Rng.float frng 1.0 < nem.reorder_prob
              then begin
                let depth = 1 + Rng.int frng (Queue.length q - 1) in
                record sched (Reorder_at { step = sched.nstep; depth });
                take_nth q depth
              end
              else Queue.take q
            | Replay tbl -> (
              match Hashtbl.find_opt tbl sched.nstep with
              | Some (Reorder_at { depth; _ }) when Queue.length q >= 2 ->
                record sched (Reorder_at { step = sched.nstep; depth });
                take_nth q depth
              | _ -> Queue.take q)
          in
          (* Duplication re-enqueues the message at the channel's tail: a
             retransmitted copy that arrives again later. *)
          (match sched.mode with
          | Record { nem; frng } ->
            if nem.dup_prob > 0.0 && Rng.float frng 1.0 < nem.dup_prob then begin
              record sched (Duplicate_at { step = sched.nstep });
              Queue.add msg q
            end
          | Replay tbl -> (
            match Hashtbl.find_opt tbl sched.nstep with
            | Some (Duplicate_at _) ->
              record sched (Duplicate_at { step = sched.nstep });
              Queue.add msg q
            | _ -> ()));
          (match wire_roundtrip sched ~src ~dst msg with
          | Some msg ->
            sched.delivered <- sched.delivered + 1;
            dispatch sched dst (Receive { src; msg })
          | None -> ());
          true
      in
      let fire () =
        let live = List.filter (fun (i, _, _) -> not sched.down.(i)) timers in
        match live with
        | [] -> false
        | _ ->
          let ((i, timer, due) as chosen) = Rng.pick_list sched.rng live in
          sched.timers <- List.filter (fun t -> t != chosen) sched.timers;
          sched.vnow <- Float.max sched.vnow due;
          sched.timer_fires <- sched.timer_fires + 1;
          dispatch sched i (Timer timer);
          true
      in
      (* Prefer delivering a message 3:1 over firing a timer. *)
      if pairs <> [] && (timers = [] || Rng.int sched.rng 4 < 3) then deliver ()
      else if fire () then true
      else deliver ()
    end

  (* ---------------------------------------------------------------- *)
  (* Runs                                                              *)

  let run_mode ?(obs = Grid_obs.Span.Recorder.disabled) ~seed ~steps ~max_down
      ~meta_drop_prob ~disable_dedup ~cfg_tweak ~requests ~mode () =
    let rng = Rng.of_int seed in
    let cfg : Grid_paxos.Config.t =
      cfg_tweak (Grid_paxos.Config.make ~n:3 ~record_history:true ~disable_dedup ())
    in
    let stores = Array.make cfg.n (Grid_paxos.Storage.null ()) in
    let reads =
      Array.make cfg.n (fun () ->
          {
            Grid_paxos.Storage.promised = Ballot.zero;
            entries = [];
            commit_point = 0;
            snapshot = None;
          })
    in
    let ctls =
      Array.init cfg.n (fun _ ->
          { Grid_paxos.Storage.tear_rate = 0.0; drop_rate = 0.0;
            drop_meta_only = true; torn = 0; dropped = 0 })
    in
    for i = 0 to cfg.n - 1 do
      let mem, read = Grid_paxos.Storage.memory () in
      let store, ctl =
        Grid_paxos.Storage.faulty
          ~rng:(Rng.of_int ((seed * 31) + i))
          ~drop_rate:meta_drop_prob ~drop_meta_only:true mem
      in
      stores.(i) <- store;
      reads.(i) <- read;
      ctls.(i) <- ctl
    done;
    let wd_detail = ref [] in
    let wd =
      Grid_obs.Watchdog.create
        ~on_violation:(fun ~check ~detail ->
          wd_detail := (check ^ ": " ^ detail) :: !wd_detail)
        ()
    in
    let sched =
      {
        rng;
        base_seed = seed;
        cfg;
        replicas =
          Array.init cfg.n (fun i ->
              R.create ~cfg ~id:i ~seed:(seed + i) ~storage:stores.(i) ~obs
                ~watchdog:wd ());
        down = Array.make cfg.n false;
        stores;
        reads;
        ctls;
        channels = Hashtbl.create 32;
        timers = [];
        vnow = 0.0;
        skew = Array.make cfg.n 0.0;
        replies = [];
        delivered = 0;
        timer_fires = 0;
        nstep = 0;
        mode;
        plan_rev = [];
        wire_errors = [];
        oracle = Hashtbl.create 64;
        committed_ids = Hashtbl.create 64;
        reply_times = Hashtbl.create 32;
        durability = [];
        crashes = 0;
        shed = 0;
        obs;
        wd;
      }
    in
    Array.iteri (fun i r -> exec_actions sched i (R.bootstrap r)) sched.replicas;
    (* Clients are closed-loop: each client's requests carry increasing
       sequence numbers and the next is only injected after the previous
       one was answered (deduplication assumes exactly this). Injection
       and retransmission points are scheduling choices, and the requests
       travel through the same schedulable channels as protocol messages,
       so the nemesis can duplicate and reorder them too. *)
    let per_client : (int, request Queue.t) Hashtbl.t = Hashtbl.create 8 in
    let seq_counters : (int, int) Hashtbl.t = Hashtbl.create 8 in
    (* Stale-read oracle bookkeeping: every request's payload by id, and
       for each read the highest instance the group had committed when the
       read was first issued (its visibility watermark). *)
    let payloads : (int * int, string) Hashtbl.t = Hashtbl.create 16 in
    let rtypes : (int * int, rtype) Hashtbl.t = Hashtbl.create 16 in
    let read_marks : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
    (* Admission oracles: virtual time of each request's first injection. *)
    let issue_times : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
    let oracle_max () = Hashtbl.fold (fun i _ m -> max i m) sched.oracle 0 in
    List.iter
      (fun (client, rtype, payload) ->
        let seq = 1 + Option.value ~default:0 (Hashtbl.find_opt seq_counters client) in
        Hashtbl.replace seq_counters client seq;
        Hashtbl.replace payloads (client, seq) payload;
        Hashtbl.replace rtypes (client, seq) rtype;
        let id =
          Grid_util.Ids.Request_id.make
            ~client:(Grid_util.Ids.Client_id.of_int client)
            ~seq
        in
        let q =
          match Hashtbl.find_opt per_client client with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.replace per_client client q;
            q
        in
        Queue.add { id; rtype; payload; trace = no_trace } q)
      requests;
    let absorb_replies () =
      List.iter
        (fun (r : reply) ->
          match Hashtbl.find_opt per_client (Grid_util.Ids.Client_id.to_int r.req.client) with
          | Some q when not (Queue.is_empty q) ->
            let head = Queue.peek q in
            if head.id.seq = r.req.seq then ignore (Queue.take q)
          | _ -> ())
        sched.replies
    in
    let pending_count () =
      absorb_replies ();
      Hashtbl.fold (fun _ q acc -> acc + Queue.length q) per_client 0
    in
    let inject () =
      absorb_replies ();
      let heads =
        Hashtbl.fold
          (fun _ q acc -> if Queue.is_empty q then acc else Queue.peek q :: acc)
          per_client []
      in
      match heads with
      | [] -> false
      | _ ->
        let r = Rng.pick_list sched.rng heads in
        let key = (Grid_util.Ids.Client_id.to_int r.id.client, r.id.seq) in
        if not (Hashtbl.mem issue_times key) then
          Hashtbl.replace issue_times key sched.vnow;
        (* The watermark is set at the read's first injection; later
           retransmissions of the same pending request don't move it. *)
        if r.rtype = Read && not (Hashtbl.mem read_marks key) then begin
          refresh_oracle sched;
          Hashtbl.replace read_marks key (oracle_max ())
        end;
        for i = 0 to cfg.n - 1 do
          enqueue sched ~src:(client_node r.id.client) ~dst:i (Client_req r)
        done;
        true
    in
    for _ = 1 to steps do
      sched.nstep <- sched.nstep + 1;
      if pending_count () > 0 && Rng.int sched.rng 10 = 0 then ignore (inject ())
      else ignore (step sched ~max_down)
    done;
    (* Drain: the nemesis stops, everyone is disarmed and recovered, and
       we keep injecting unanswered requests and scheduling until all are
       answered or the budget runs out. *)
    sched.mode <- Record { nem = no_faults; frng = Rng.of_int seed };
    Array.iter
      (fun ctl ->
        ctl.Grid_paxos.Storage.tear_rate <- 0.0;
        ctl.drop_rate <- 0.0)
      sched.ctls;
    for i = 0 to cfg.n - 1 do
      if sched.down.(i) then revive sched i
    done;
    let budget = ref (steps * 10) in
    while !budget > 0 && pending_count () > 0 do
      decr budget;
      sched.nstep <- sched.nstep + 1;
      if Rng.int sched.rng 20 = 0 then ignore (inject ())
      else ignore (step sched ~max_down)
    done;
    let all_replied = pending_count () = 0 in
    refresh_oracle sched;
    (* Stale-read oracle: the first reply a client saw for each read must
       equal that read evaluated on some committed state at or after the
       read's watermark — i.e. the read reflects every write committed
       before it was issued. Sound for deterministic read results (all
       built-in services); the leased fast path must not weaken this. *)
    let stale_reads =
      let first : (int * int, reply) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (r : reply) ->
          let key = (Grid_util.Ids.Client_id.to_int r.req.client, r.req.seq) in
          if not (Hashtbl.mem first key) then Hashtbl.replace first key r)
        (List.rev sched.replies);
      let max_i = oracle_max () in
      let read_rng = Rng.of_int seed in
      let result_on st op =
        S.encode_result (S.apply ~rng:read_rng ~now:sched.vnow st op).S.result
      in
      Hashtbl.fold
        (fun ((client, seq) as key) w acc ->
          match Hashtbl.find_opt first key with
          | None -> acc
          | Some r when r.status <> Ok -> acc
          | Some r ->
            let op = S.decode_op (Hashtbl.find payloads key) in
            let matches i =
              if i = 0 then String.equal r.payload (result_on (S.initial ()) op)
              else
                match Hashtbl.find_opt sched.oracle i with
                | None -> false
                | Some (_, st) -> String.equal r.payload (result_on (S.decode_state st) op)
            in
            let ok = ref false in
            for i = w to max_i do
              if (not !ok) && matches i then ok := true
            done;
            if !ok then acc
            else
              Printf.sprintf
                "client %d seq %d: read reply matches no committed state at or \
                 after its watermark (instance %d)"
                client seq w
              :: acc)
        read_marks []
      |> List.sort compare
    in
    (* Admitted-loss oracle: a write (or txn commit) acknowledged [Ok]
       was admitted past the shedding gate and promised durable — it must
       appear in some committed instance of the union oracle. A shed
       request never gets an [Ok], so overload cannot mask a loss. *)
    let lost_admitted =
      let first : (int * int, reply) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (r : reply) ->
          let key = (Grid_util.Ids.Client_id.to_int r.req.client, r.req.seq) in
          if not (Hashtbl.mem first key) then Hashtbl.replace first key r)
        (List.rev sched.replies);
      Hashtbl.fold
        (fun ((client, seq) as key) (r : reply) acc ->
          let is_write =
            match Hashtbl.find_opt rtypes key with
            | Some (Write | Txn_commit _) -> true
            | _ -> false
          in
          if is_write && r.status = Ok && not (Hashtbl.mem sched.committed_ids key)
          then
            Printf.sprintf
              "client %d seq %d: write acknowledged Ok but never observed \
               committed by any replica"
              client seq
            :: acc
          else acc)
        first []
      |> List.sort compare
    in
    (* Bounded-admitted-latency oracle input: first-injection to first
       final reply, per completed request, in completion order. *)
    let admitted_latencies =
      Hashtbl.fold
        (fun key done_at acc ->
          match Hashtbl.find_opt issue_times key with
          | Some issued -> (done_at, done_at -. issued) :: acc
          | None -> acc)
        sched.reply_times []
      |> List.sort compare
      |> List.map snd
      |> Array.of_list
    in
    let histories = Array.map R.committed_updates sched.replicas in
    let plan = List.rev sched.plan_rev in
    let count p = List.length (List.filter p plan) in
    {
      replies = List.rev sched.replies;
      violations = Agreement.check histories;
      durability = List.rev sched.durability;
      stale_reads;
      lost_admitted;
      admitted_latencies;
      committed = Array.map R.commit_point sched.replicas;
      delivered = sched.delivered;
      timer_fires = sched.timer_fires;
      all_replied;
      plan;
      crashes = sched.crashes;
      torn_persists =
        Array.fold_left (fun n c -> n + c.Grid_paxos.Storage.torn) 0 sched.ctls;
      meta_dropped =
        Array.fold_left (fun n c -> n + c.Grid_paxos.Storage.dropped) 0 sched.ctls;
      duplicated = count (function Duplicate_at _ -> true | _ -> false);
      reordered = count (function Reorder_at _ -> true | _ -> false);
      drifted = count (function Drift_at _ -> true | _ -> false);
      shed = sched.shed;
      wire_errors = List.rev sched.wire_errors;
      watchdog_violations = Grid_obs.Watchdog.violations sched.wd;
      watchdog_detail = List.rev !wd_detail;
    }

  (* Typed request triple: the class comes from [S.classify] and the
     payload from [S.encode_op], so callers never build wire strings. *)
  let request client op =
    ( client,
      (match S.classify op with `Read -> Read | `Write -> Write),
      S.encode_op op )

  let explore ?obs ?(seed = 1) ?(steps = 5_000) ?(max_down = 1) ?(nemesis = no_faults)
      ?(disable_dedup = false) ?(cfg_tweak = Fun.id) ?(requests = []) () =
    run_mode ?obs ~seed ~steps ~max_down ~meta_drop_prob:nemesis.meta_drop_prob
      ~disable_dedup ~cfg_tweak ~requests
      ~mode:(Record { nem = nemesis; frng = Rng.of_int (seed lxor 0x6e656d) })
      ()

  let replay ?obs ?(seed = 1) ?(steps = 5_000) ?(max_down = 1) ?(meta_drop_prob = 0.0)
      ?(disable_dedup = false) ?(cfg_tweak = Fun.id) ?(requests = []) ~plan () =
    let tbl = Hashtbl.create (List.length plan) in
    List.iter (fun ev -> Hashtbl.replace tbl (fault_step ev) ev) plan;
    run_mode ?obs ~seed ~steps ~max_down ~meta_drop_prob ~disable_dedup ~cfg_tweak
      ~requests ~mode:(Replay tbl) ()

  let run ?obs ?(seed = 1) ?(steps = 5_000) ?(crash_prob = 0.0) ?(max_down = 1)
      ?cfg_tweak ?(requests = []) () =
    explore ?obs ~seed ~steps ~max_down
      ~nemesis:{ no_faults with crash_prob }
      ?cfg_tweak ~requests ()

  (* Shrink a failing run to a minimal plan: greedily drop events, keeping
     any removal after which the (deterministic) replay still fails. *)
  let shrink ?(seed = 1) ?(steps = 5_000) ?(max_down = 1) ?(meta_drop_prob = 0.0)
      ?(disable_dedup = false) ?(cfg_tweak = Fun.id) ?(requests = []) ~plan () =
    let still_fails p =
      failed
        (replay ~seed ~steps ~max_down ~meta_drop_prob ~disable_dedup ~cfg_tweak
           ~requests ~plan:p ())
    in
    shrink_plan ~still_fails plan
end
