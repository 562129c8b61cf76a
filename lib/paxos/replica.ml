open Types
module Rng = Grid_util.Rng
module Bitset = Grid_util.Bitset
module Ids = Grid_util.Ids
module Span = Grid_obs.Span
module Watchdog = Grid_obs.Watchdog

module Make (S : Service_intf.S) = struct
  module B = Batch.Make (S)
  open B

  (* Work deferred behind the execution-cost timer (the paper's E). *)
  type exec_work =
    | Exec_batch of work list  (* writes and markers, one instance *)
    | Exec_op of op_req  (* a read, an original or a transaction op *)

  type pending_read = {
    pr_request : request;
    pr_confirms : Bitset.t;
    mutable pr_exec_done : bool;
    mutable pr_result : string;
    mutable pr_leased : bool;
        (* dispatched on the lease fast path; reverts to the confirm
           path if the lease lapses before execution finishes *)
    pr_watermark : int;  (* commit point at admission *)
    mutable pr_exec_point : int;  (* commit point the read executed at *)
  }

  type inflight = {
    fl_instance : int;
    fl_proposal : proposal;
    fl_acks : Bitset.t;
    fl_post_state : S.state;
    fl_to_send : reply list;  (* replies released at commit time *)
  }

  type phase =
    | Ph_exec  (* waiting on an Exec_done for the current work item *)
    | Ph_prop of inflight

  type leadership = {
    l_ballot : Ballot.t;
    l_queue : work Queue.t;
    mutable l_phase : phase option;
    mutable l_repropose : (int * proposal) list;  (* ascending instances *)
    mutable l_recover_until : int;
        (* highest instance recovered at election: the old leader may
           have committed (and answered) any of them, so reads must not
           execute on our state until the commit point reaches it *)
    mutable l_deferred_reads : op_req list;
        (* reads received before recovery completed, newest first *)
    l_reads : (Ids.Request_id.t, pending_read) Hashtbl.t;
    l_txns : (int * int, txn) Hashtbl.t;  (* (client, txn id) *)
    mutable l_blocked : work list;
        (* work parked behind a footprint lock (reversed): re-queued
           whenever a decision instance releases a prepared branch or a
           frozen range *)
    l_queued_ids : (Ids.Request_id.t, unit) Hashtbl.t;
    l_grants : float array;
        (* per-follower lease-grant expiry, on the leader's own clock:
           the follower's echoed anchor + lease_ms - clock_skew_bound_ms.
           Own slot unused (the leader always counts itself). *)
  }

  type candidacy = {
    c_ballot : Ballot.t;
    c_acks : Bitset.t;
    c_merged : (int, Ballot.t * proposal) Hashtbl.t;
    mutable c_snapshot : Snapshot.t option;
  }

  type role = Follower | Candidate of candidacy | Leader of leadership

  type t = {
    cfg : Config.t;
    rid : int;
    mutable now : float;  (* driver time of the input being handled *)
    rng : Rng.t;
    storage : Storage.t;
    log : Plog.t;
    mutable promised : Ballot.t;
    mutable role : role;
    mutable app_state : S.state;  (* latest committed service state *)
    dedup : (int, reply) Hashtbl.t;  (* client id -> last committed reply *)
    (* election *)
    last_heard : float array;
    mutable round_seen : int;
    mutable candidate_since : float option;
    (* X-Paxos confirms that arrived before the client request, tagged
       with the leadership ballot they confirmed (stale tags are
       discarded rather than counted toward a later leadership's reads) *)
    pre_confirms : (Ids.Request_id.t, Ballot.t * Bitset.t) Hashtbl.t;
    (* leader-lease grant held as a follower: while [now < lease_until]
       (own clock) this replica refuses to promise to any candidate
       other than [lease_holder]. [lease_anchor] is the [sent_at] of the
       leader heartbeat the grant is anchored to, echoed back so the
       leader can time grant expiry leader-clock against leader-clock. *)
    mutable lease_holder : int;  (* -1 = none (or post-crash blackout) *)
    mutable lease_until : float;
    mutable lease_anchor : float;  (* nan = no grant *)
    (* execution-cost deferral *)
    exec_table : (int, exec_work) Hashtbl.t;
    mutable exec_next : int;
    (* T-Paxos conflict window: footprints of recently committed instances *)
    window : Footprint.Window.t;
    (* 2PC and elastic-resharding participant state (DESIGN.md §16–§17),
       derived from committed instances only *)
    txns : Participant.Txn.t;
    reshard : Participant.Reshard.t;
    (* checker support *)
    mutable history : (int * request list * string) list;  (* reversed *)
    mutable commits_seen : int;
    (* admission control: requests shed with [Overloaded] while leading *)
    mutable shed_reads : int;
    mutable shed_writes : int;
    (* observability: lifecycle span recorder plus the precomputed actor
       label, so the disabled path costs one branch and no allocation *)
    obs : Span.Recorder.t;
    actor : string;
    sid_receive : string;
        (* precomputed [Leader_receive] span id: downstream spans of a
           traced request parent under this replica's receive span *)
    wd : Watchdog.monitor;  (* runtime invariant checks; one-branch when off *)
  }

  let create ~cfg ~id ?(storage = Storage.null ()) ?seed ?(obs = Span.Recorder.disabled)
      ?actor ?(watchdog = Watchdog.disabled) () =
    let seed = match seed with Some s -> s | None -> 0x5eed + id in
    let actor = match actor with Some a -> a | None -> "r" ^ string_of_int id in
    {
      cfg;
      rid = id;
      now = 0.0;
      rng = Rng.of_int seed;
      storage;
      log = Plog.create ();
      promised = Ballot.zero;
      role = Follower;
      app_state = S.initial ();
      dedup = Hashtbl.create 32;
      last_heard = Array.make cfg.n neg_infinity;
      round_seen = 0;
      candidate_since = None;
      pre_confirms = Hashtbl.create 16;
      lease_holder = -1;
      lease_until = neg_infinity;
      lease_anchor = Float.nan;
      exec_table = Hashtbl.create 16;
      exec_next = 0;
      window = Footprint.Window.create ();
      txns = Participant.Txn.create ();
      reshard = Participant.Reshard.create ();
      history = [];
      commits_seen = 0;
      shed_reads = 0;
      shed_writes = 0;
      obs;
      actor;
      sid_receive = Span.span_id ~actor Span.Leader_receive;
      wd = Watchdog.monitor watchdog ~actor;
    }

  (* Record one span for every request of a proposal (e.g. all members of
     a batched instance hit [Propose]/[Accept_quorum]/[Commit] together). *)
  let span_requests t phase ~instance (requests : request list) =
    if Span.Recorder.enabled t.obs then
      List.iter
        (fun (r : request) ->
          Span.Recorder.span ~tid:r.trace.tid ~parent:r.trace.parent t.obs ~time:t.now
            ~actor:t.actor ~req:r.id ~instance ~detail:"" phase)
        requests

  (* One span for one request, outside any instance. *)
  let span_req t ?(detail = "") (r : request) phase =
    Span.Recorder.span ~tid:r.trace.tid ~parent:r.trace.parent t.obs ~time:t.now
      ~actor:t.actor ~req:r.id ~instance:(-1) ~detail phase

  let id t = t.rid
  let promised t = t.promised
  let commit_point t = Plog.commit_point t.log
  let state t = t.app_state
  let is_leader t = match t.role with Leader _ -> true | _ -> false

  let ballot t =
    match t.role with
    | Leader l -> l.l_ballot
    | Candidate c -> c.c_ballot
    | Follower -> t.promised

  let leader_view t =
    if Ballot.equal t.promised Ballot.zero then None else Some t.promised.holder

  let committed_requests t =
    List.rev t.history |> List.concat_map (fun (_, reqs, _) -> reqs)

  let committed_updates t = List.rev t.history
  let stats_shed t = (t.shed_reads, t.shed_writes)
  let prepared_txns t = Participant.Txn.tids t.txns
  let txn_outcome t tid = Participant.Txn.outcome t.txns tid
  let reshard_epoch t = t.reshard.epoch
  let reshard_phase t = Participant.Reshard.phase t.reshard
  let moved_ranges t = List.length t.reshard.moved
  let imported_items t = t.reshard.imported

  let queue_depth t =
    match t.role with Leader l -> Queue.length l.l_queue | _ -> 0

  let reads_inflight t =
    match t.role with Leader l -> Hashtbl.length l.l_reads | _ -> 0
  let others t = List.filter (fun r -> r <> t.rid) (Config.replica_ids t.cfg)
  let quorum t = Config.quorum t.cfg

  let note fmt = Format.kasprintf (fun s -> Note s) fmt

  let observe_round t round = if round > t.round_seen then t.round_seen <- round

  let adopt_promise t ballot =
    if Ballot.compare ballot t.promised > 0 then begin
      t.promised <- ballot;
      t.storage.persist_promise ballot
    end

  let heard t ~from ~now = if from >= 0 && from < t.cfg.n then t.last_heard.(from) <- now

  (* ------------------------------------------------------------------ *)
  (* Leader leases                                                       *)

  (* The anchor to echo on outgoing heartbeats and read-confirms: the
     current grant, but only while it still names the replica we are
     promised to — after adopting a newer leadership the old anchor must
     not leak to the new leader as a grant. *)
  let lease_echo t =
    if
      t.cfg.lease_ms > 0.0 && t.lease_holder >= 0
      && t.lease_holder = t.promised.holder
      && t.now < t.lease_until
    then t.lease_anchor
    else Float.nan

  (* Leader side: a follower echoed [anchor]; its enforcement window ends
     no earlier than anchor + lease_ms on our clock (message delay only
     extends it), minus the assumed clock-skew bound. *)
  let record_grant t (l : leadership) ~src ~anchor =
    if
      t.cfg.lease_ms > 0.0
      && (not (Float.is_nan anchor))
      && src >= 0 && src < t.cfg.n && src <> t.rid
    then
      l.l_grants.(src) <-
        Float.max l.l_grants.(src)
          (anchor +. t.cfg.lease_ms -. t.cfg.clock_skew_bound_ms)

  let holds_lease t ~now =
    match t.role with
    | Leader l when t.cfg.lease_ms > 0.0 ->
      let live = ref 0 in
      Array.iteri (fun i e -> if i = t.rid || e > now then incr live) l.l_grants;
      !live >= Config.quorum t.cfg
    | _ -> false

  (* How long the current grant quorum lasts with no further renewals:
     the quorum-th largest grant expiry, counting the leader itself as
     unexpiring. This is the window the lease mutual-exclusion watchdog
     treats as "claimed" when a lease-local read is served. *)
  let lease_horizon t (l : leadership) =
    let es =
      Array.to_list
        (Array.mapi (fun i e -> if i = t.rid then infinity else e) l.l_grants)
    in
    match List.sort (fun a b -> Float.compare b a) es with
    | sorted -> ( try List.nth sorted (quorum t - 1) with _ -> neg_infinity)

  (* ------------------------------------------------------------------ *)
  (* Snapshots, dedup, commit bookkeeping                                *)

  (* The state as of [commit_point] (default: the commit point), which
     the current state must reflect. *)
  let current_snapshot ?commit_point t =
    let prepared, outcomes = Participant.Txn.snapshot t.txns in
    {
      Snapshot.commit_point = Option.value commit_point ~default:(Plog.commit_point t.log);
      state = S.encode_state t.app_state;
      dedup = Hashtbl.fold (fun c r acc -> (c, r) :: acc) t.dedup [];
      prepared;
      outcomes;
      reshard = Participant.Reshard.encode t.reshard;
    }

  let dedup_update t (r : reply) =
    let c = Ids.Client_id.to_int r.req.client in
    match Hashtbl.find_opt t.dedup c with
    | Some prev when prev.req.seq >= r.req.seq -> ()
    | _ -> Hashtbl.replace t.dedup c r

  let dedup_lookup t (req : request) =
    if t.cfg.disable_dedup then `Fresh
    else
    match Hashtbl.find_opt t.dedup (Ids.Client_id.to_int req.id.client) with
    | Some prev when prev.req.seq = req.id.seq -> `Resend prev
    | Some prev when prev.req.seq > req.id.seq -> `Stale
    | _ -> `Fresh

  (* What every committed instance updates, on every path (live commit,
     catch-up, crash-recovery replay): the dedup table, the 2PC and
     reshard participant state, and the checker's history. *)
  let track_committed t ~instance (p : proposal) =
    List.iter (dedup_update t) p.replies;
    Participant.Txn.track t.txns p.requests;
    Participant.Reshard.track t.reshard p.requests;
    if t.cfg.record_history then
      t.history <- (instance, p.requests, S.encode_state t.app_state) :: t.history

  let record_commit_bookkeeping t ~instance (p : proposal) =
    track_committed t ~instance p;
    (* Dup-commit watchdog: a (client, seq) must never commit at two
       different instances — that is exactly the bug the dedup table
       prevents and [disable_dedup] plants. *)
    List.iter
      (fun (r : request) ->
        Watchdog.record_commit t.wd
          ~client:(Ids.Client_id.to_int r.id.client)
          ~seq:r.id.seq ~instance)
      p.requests;
    (* Footprints for T-Paxos conflict detection: derived from the ops. *)
    let footprint =
      List.concat_map
        (fun (r : request) ->
          if changes_state r.rtype then
            try S.footprint (S.decode_op r.payload) with _ -> [ "*" ]
          else [])
        p.requests
    in
    Footprint.Window.record t.window ~instance ~commit_point:(Plog.commit_point t.log)
      footprint;
    t.commits_seen <- t.commits_seen + 1;
    if t.commits_seen mod t.cfg.snapshot_interval = 0 then begin
      (* At this instance, not at the commit point: a follower applying
         several newly committed instances in one go is still behind the
         commit point here, and the entries above this one keep their
         updates until they are applied. *)
      t.storage.persist_snapshot (Snapshot.encode (current_snapshot ~commit_point:instance t));
      Plog.prune_below t.log instance
    end

  let install_snapshot t (snap : Snapshot.t) =
    if snap.commit_point > Plog.commit_point t.log then begin
      t.app_state <- S.decode_state snap.state;
      List.iter (fun (_, r) -> dedup_update t r) snap.dedup;
      Participant.Txn.install t.txns ~prepared:snap.prepared ~outcomes:snap.outcomes;
      Participant.Reshard.install t.reshard snap.reshard;
      Plog.install_commit_point t.log snap.commit_point;
      t.storage.persist_commit snap.commit_point;
      t.storage.persist_snapshot (Snapshot.encode snap)
    end

  (* ------------------------------------------------------------------ *)
  (* State-update construction and application                           *)

  let make_update t ~old_state (acc : B.acc) ~witness =
    let full () = Full (S.encode_state acc.a_state) in
    let delta () =
      match B.diff ~old_state acc with Some d -> Delta d | None -> full ()
    in
    match t.cfg.coordination with
    | `Request_shipping ->
      (* Classic Multi-Paxos ships no state; followers re-execute. *)
      Delta ""
    | `State_shipping -> (
      match t.cfg.ship with
      | `Full -> full ()
      | `Delta -> delta ()
      | `Witness -> ( match witness with Some w -> Witness w | None -> delta ()))

  (* The state a proposal's shipped update leads to from the current
     one. Witness shipping is only produced for singleton proposals:
     [None] for anything else, which is corrupt input. *)
  let shipped_state t (p : proposal) =
    match (p.update, p.requests) with
    | Full s, _ -> Some (S.decode_state s)
    | Delta d, _ -> Some (S.patch t.app_state d)
    | Witness w, [ r ] -> Some (fst (S.replay t.app_state (S.decode_op r.payload) ~witness:w))
    | Witness _, _ -> None

  (* Apply a committed entry's update to the follower's state. *)
  let apply_update t (p : proposal) =
    match t.cfg.coordination with
    | `Request_shipping ->
      (* Replicated state machine: re-execute with the local RNG and
         clock. Deterministic services stay consistent; nondeterministic
         ones diverge — which is the point of the baseline. *)
      List.iter
        (fun (r : request) ->
          match r.rtype with
          | Reshard_install _ -> (
            (* Snapshot handoff under request shipping: there is no
               shipped state to adopt, so the imported slice re-applies
               from the committed envelope ([import_range] is
               idempotent, so replay paths are harmless). *)
            match Reshard_wire.decode_install r.payload with
            | env -> t.app_state <- S.import_range t.app_state env.i_blob
            | exception _ -> ())
          | rt when changes_state rt ->
            let op = S.decode_op r.payload in
            t.app_state <- (S.apply ~rng:t.rng ~now:t.now t.app_state op).state
          | _ ->
            (* Reads and protocol markers: their payloads are not service
               ops (the 2PC markers carry op counts and prepared-branch
               blobs, the reshard markers carry envelopes and maps). The
               ops of a committed cross-shard branch appear in the
               decision instance as ordinary [Txn_op] requests and
               re-execute above. *)
            ())
        p.requests
    | `State_shipping -> (
      match shipped_state t p with
      | Some st -> t.app_state <- st
      | None -> invalid_arg "Replica: witness update with non-singleton batch")

  (* ------------------------------------------------------------------ *)
  (* Leader: reads, originals and transaction ops                        *)

  let reply_actions replies =
    List.map (fun (r : reply) -> send ~dst:(client_node r.req.client) (Reply_msg r)) replies

  let answer (r : request) status = reply_actions [ { req = r.id; status; payload = "" } ]

  let check_read_ready t (l : leadership) pr =
    let r = pr.pr_request in
    (* Lease fast path: execution alone completes the read — no confirm
       round, zero protocol messages. If the lease lapsed (or was never
       held), fall back to the confirm protocol. Confirms have been
       flowing regardless — clients broadcast reads to every replica — so
       the quorum may already be in hand. *)
    let leased = pr.pr_exec_done && pr.pr_leased && holds_lease t ~now:t.now in
    if pr.pr_exec_done && not leased then pr.pr_leased <- false;
    if not (leased || (pr.pr_exec_done && Bitset.cardinal pr.pr_confirms >= quorum t)) then []
    else begin
      Hashtbl.remove l.l_reads r.id;
      if leased then begin
        span_req t r Span.Lease_local;
        Watchdog.lease_claimed t.wd ~now:t.now ~until:(lease_horizon t l)
          ~slack_ms:(2.0 *. t.cfg.clock_skew_bound_ms)
      end;
      Watchdog.read_replied t.wd
        ~client:(Ids.Client_id.to_int r.id.client)
        ~seq:r.id.seq ~watermark:pr.pr_watermark ~exec_point:pr.pr_exec_point;
      reply_actions [ { req = r.id; status = Ok; payload = pr.pr_result } ]
    end

  (* The service's [apply] reads the leader's local clock from [t.now],
     which [handle] refreshes on every input. *)
  let execute_op t (l : leadership) (o : op_req) =
    let r = o.o_req in
    let apply st = S.apply ~rng:t.rng ~now:t.now st o.o_op in
    match r.rtype with
    | Read -> (
      match Hashtbl.find_opt l.l_reads r.id with
      | None -> []
      | Some pr ->
        let outcome = apply t.app_state in
        (* Reads must not change state; the post-state is discarded. *)
        pr.pr_exec_done <- true;
        pr.pr_result <- S.encode_result outcome.result;
        pr.pr_exec_point <- Plog.commit_point t.log;
        span_req t r Span.Apply;
        check_read_ready t l pr)
    | Txn_op tid ->
      let key = (Ids.Client_id.to_int r.id.client, tid) in
      let txn =
        match Hashtbl.find_opt l.l_txns key with
        | Some txn -> txn
        | None ->
          let txn =
            {
              tx_state = t.app_state;
              tx_base = Plog.commit_point t.log;
              tx_ops = [];
              tx_replies = [];
              tx_footprint = Hashtbl.create 8;
            }
          in
          Hashtbl.replace l.l_txns key txn;
          txn
      in
      let outcome = apply txn.tx_state in
      txn.tx_state <- outcome.state;
      txn.tx_ops <- (r, o.o_op, outcome.witness) :: txn.tx_ops;
      List.iter (fun k -> Hashtbl.replace txn.tx_footprint k ()) o.o_fp;
      let reply = { req = r.id; status = Ok; payload = S.encode_result outcome.result } in
      txn.tx_replies <- reply :: txn.tx_replies;
      span_req t r Span.Apply;
      reply_actions [ reply ]
    | _ ->
      (* Unreplicated baseline: execute and answer with no coordination. *)
      let outcome = apply t.app_state in
      t.app_state <- outcome.state;
      span_req t r Span.Apply;
      reply_actions [ { req = r.id; status = Ok; payload = S.encode_result outcome.result } ]

  (* ------------------------------------------------------------------ *)
  (* Leader: proposing                                                   *)

  let broadcast t msg = List.map (fun dst -> send ~dst msg) (others t)

  let start_accept t (l : leadership) ~instance ~proposal ~post_state ~to_send =
    span_requests t Span.Propose ~instance proposal.requests;
    let acks = Bitset.create t.cfg.n in
    Bitset.set acks t.rid;
    ignore (Plog.accept t.log ~instance ~ballot:l.l_ballot proposal);
    t.storage.persist_entry ~instance ~ballot:l.l_ballot proposal;
    l.l_phase <-
      Some
        (Ph_prop
           {
             fl_instance = instance;
             fl_proposal = proposal;
             fl_acks = acks;
             fl_post_state = post_state;
             fl_to_send = to_send;
           });
    broadcast t (Accept { ballot = l.l_ballot; instance; proposal })
    @ [ after ~delay:t.cfg.accept_retry_ms (Accept_retry instance) ]

  (* ------------------------------------------------------------------ *)
  (* Stepping down                                                       *)

  (* Returns the actions of the demotion: a typed [Retry] reply for every
     pending read, so clients fail over to the new leader immediately
     instead of waiting out their retransmission timers. (Transactions
     are lost, so their commits will abort, §3.6.) Stale pre-confirms
     must not survive into a later leadership of this replica. *)
  let step_down t =
    let acts =
      match t.role with
      | Leader l ->
        let retry id acc = { req = id; status = Retry; payload = "" } :: acc in
        let dropped =
          List.fold_left
            (fun acc (o : op_req) -> retry o.o_req.id acc)
            (Hashtbl.fold (fun id _ acc -> retry id acc) l.l_reads [])
            l.l_deferred_reads
        in
        Hashtbl.reset l.l_reads;
        l.l_deferred_reads <- [];
        Hashtbl.reset l.l_txns;
        Queue.clear l.l_queue;
        Hashtbl.reset l.l_queued_ids;
        l.l_phase <- None;
        t.role <- Follower;
        reply_actions dropped
      | Candidate _ ->
        t.role <- Follower;
        []
      | Follower -> []
    in
    t.candidate_since <- None;
    Hashtbl.reset t.pre_confirms;
    Hashtbl.reset t.exec_table;
    acts

  (* Commit the in-flight instance (majority of accept-acks reached). *)
  let rec do_commit t (l : leadership) (fl : inflight) =
    span_requests t Span.Accept_quorum ~instance:fl.fl_instance fl.fl_proposal.requests;
    ignore (Plog.commit t.log ~instance:fl.fl_instance);
    t.storage.persist_commit (Plog.commit_point t.log);
    t.app_state <- fl.fl_post_state;
    let prepared_before = Participant.Txn.tids t.txns in
    let frozen_before = t.reshard.frozen in
    record_commit_bookkeeping t ~instance:fl.fl_instance fl.fl_proposal;
    (* A decision instance just released a prepared cross-shard lock, or
       a reshard decision resolved the frozen range (COMMIT turns it
       into a moved range, ABORT thaws it): work parked behind either
       becomes eligible again. The same instance may take a new lock
       too, so look for a released holder, not a smaller count.
       Re-queue the lot — the batch re-checks each against the
       remaining locks, answering [Wrong_epoch] for work whose range
       moved away. *)
    let released =
      List.exists (fun tid -> Participant.Txn.find t.txns tid = None) prepared_before
      || (frozen_before <> None && t.reshard.frozen <> frozen_before)
    in
    if released && l.l_blocked <> [] then begin
      List.iter (fun w -> Queue.add w l.l_queue) (List.rev l.l_blocked);
      l.l_blocked <- []
    end;
    List.iter
      (fun (r : request) -> Hashtbl.remove l.l_queued_ids r.id)
      fl.fl_proposal.requests;
    l.l_phase <- None;
    span_requests t Span.Commit ~instance:fl.fl_instance fl.fl_proposal.requests;
    (* Lost-ack watchdog: every Ok reply released here must correspond to
       a commit just recorded above. *)
    List.iter
      (fun (r : reply) ->
        match r.status with
        | Ok ->
          Watchdog.write_acked t.wd
            ~client:(Ids.Client_id.to_int r.req.client)
            ~seq:r.req.seq
        | _ -> ())
      fl.fl_to_send;
    broadcast t (Commit { ballot = l.l_ballot; instance = fl.fl_instance })
    @ reply_actions fl.fl_to_send
    @ pump t

  (* Start the accept round; a single-replica group already has its
     quorum and commits at once. *)
  and propose t l ~instance ~proposal ~post_state ~to_send =
    let acts = start_accept t l ~instance ~proposal ~post_state ~to_send in
    match l.l_phase with
    | Some (Ph_prop fl) when quorum t <= 1 -> acts @ do_commit t l fl
    | _ -> acts

  (* Drive the leader pipeline: re-proposals first, then queued work. *)
  and pump t =
    match t.role with
    | Leader ({ l_phase = None; _ } as l) -> (
      match l.l_repropose with
      | (instance, proposal) :: rest ->
        l.l_repropose <- rest;
        if instance <> Plog.commit_point t.log + 1 then
          (* A hole in the recovered sequence cannot correspond to any
             chosen instance (the old leader proposed sequentially); drop
             the tail defensively. *)
          (l.l_repropose <- [];
           (* Entries above a hole can never have been chosen, so reads
              need not wait for them either. *)
           l.l_recover_until <- Plog.commit_point t.log;
           note "dropped non-contiguous recovered entries from %d" instance :: pump t)
        else begin
          (* Re-propose under our ballot. The post-state comes from the
             recovered update itself. *)
          let post_state = Option.value (shipped_state t proposal) ~default:t.app_state in
          propose t l ~instance ~proposal ~post_state ~to_send:proposal.replies
        end
      | [] ->
        (* Recovery (if any) has fully committed once the commit point
           reaches the last recovered instance: release the reads that
           arrived in the window where our state could still be missing
           writes the old leader had answered. *)
        let released =
          if
            l.l_deferred_reads <> []
            && Plog.commit_point t.log >= l.l_recover_until
          then begin
            let pending = List.rev l.l_deferred_reads in
            l.l_deferred_reads <- [];
            List.concat_map (fun o -> admit_read t l o) pending
          end
          else []
        in
        released @ pump_queue t l)
    | _ -> []

  and pump_queue t (l : leadership) =
    match Queue.take_opt l.l_queue with
        | None -> []
        | Some first ->
          (* Batch every queued work item — writes and transaction
             commits — into one instance: the decided value is
             ⟨batch, state-after-batch⟩, which preserves the no-gap rule
             while letting throughput scale with the number of
             closed-loop clients (cf. Figures 5–6 and 9). Requests that
             committed while queued (e.g. via a re-proposal) are filtered
             here and answered from the dedup cache. *)
          let rec fill batch n =
            if n >= t.cfg.max_batch then batch
            else
              match Queue.take_opt l.l_queue with
              | Some w -> fill (w :: batch) (n + 1)
              | None -> batch
          in
          let batch = fill [ first ] 1 in
          let stale_replies = ref [] in
          let fresh =
            List.filter
              (fun w ->
                let r = match w with W_write o -> o.o_req | W_marker r -> r in
                match dedup_lookup t r with
                | `Fresh -> true
                | `Resend reply ->
                  Hashtbl.remove l.l_queued_ids r.id;
                  stale_replies := reply :: !stale_replies;
                  false
                | `Stale ->
                  Hashtbl.remove l.l_queued_ids r.id;
                  false)
              (List.rev batch)
          in
          let resend = reply_actions !stale_replies in
          if fresh = [] then resend @ pump t
          else resend @ begin_execution t l (Exec_batch fresh)

  (* Admit a read into the window and start executing it. Callers have
     already checked admission control and that recovery is complete
     (the leader's state covers every instance the old leader could
     have answered from). *)
  and admit_read t (l : leadership) (o : op_req) =
    let r = o.o_req in
    if Hashtbl.mem l.l_reads r.id then []
    else begin
      let confirms =
        match Hashtbl.find_opt t.pre_confirms r.id with
        | Some (b, set) ->
          Hashtbl.remove t.pre_confirms r.id;
          (* Confirms stashed under an earlier leadership of this replica
             confirmed a promise that may since have been usurped and
             re-won: they say nothing about the current ballot. *)
          if Ballot.equal b l.l_ballot then set else Bitset.create t.cfg.n
        | None -> Bitset.create t.cfg.n
      in
      Bitset.set confirms t.rid;
      let pr =
        {
          pr_request = r;
          pr_confirms = confirms;
          pr_exec_done = false;
          pr_result = "";
          pr_leased = holds_lease t ~now:t.now;
          pr_watermark = Plog.commit_point t.log;
          pr_exec_point = -1;
        }
      in
      Hashtbl.replace l.l_reads r.id pr;
      begin_execution t l (Exec_op o)
    end

  (* Defer work behind the execution cost E, or run it inline if E = 0. *)
  and begin_execution t (l : leadership) work =
    if t.cfg.execution_cost_ms > 0.0 then begin
      let tok = t.exec_next in
      t.exec_next <- t.exec_next + 1;
      Hashtbl.replace t.exec_table tok work;
      let cost =
        match work with
        | Exec_batch batch ->
          l.l_phase <- Some Ph_exec;
          (* Transaction ops already paid E when they executed; only the
             fresh writes in the batch consume execution time now. *)
          let writes =
            List.length (List.filter (function W_write _ -> true | _ -> false) batch)
          in
          t.cfg.execution_cost_ms *. Float.of_int (Stdlib.max 1 writes)
        | Exec_op _ -> t.cfg.execution_cost_ms
      in
      [ after ~delay:cost (Exec_done tok) ]
    end
    else execute t l work

  and execute t l = function
    | Exec_batch batch -> execute_batch t l batch
    | Exec_op o -> execute_op t l o

  (* Execute the batch in arrival order on the committed state, one step
     per work item over a shared accumulator. The instance decides every
     request the steps pushed plus the final state; instant answers go
     out now. *)
  and execute_batch t (l : leadership) batch =
    let acc =
      run
        {
          rng = t.rng;
          now = t.now;
          commit_point = Plog.commit_point t.log;
          txns = t.txns;
          reshard = t.reshard;
          window = t.window;
          queued = l.l_queued_ids;
          branches = l.l_txns;
        }
        ~state:t.app_state batch
    in
    l.l_blocked <- acc.a_blocked @ l.l_blocked;
    let instant_actions = reply_actions (List.rev acc.a_instant) in
    if acc.a_requests = [] then instant_actions @ pump t
    else begin
      let requests = List.rev acc.a_requests in
      let update =
        make_update t ~old_state:t.app_state acc
          ~witness:(match requests with [ _ ] -> acc.a_witness | _ -> None)
      in
      let proposal = { requests; update; replies = List.rev acc.a_replies } in
      let instance = Plog.commit_point t.log + 1 in
      span_requests t Span.Apply ~instance requests;
      instant_actions
      @ propose t l ~instance ~proposal ~post_state:acc.a_state
          ~to_send:(List.rev acc.a_to_send)
    end

  (* ------------------------------------------------------------------ *)
  (* Client request dispatch                                             *)

  (* Admission control. The write window is the leader's pending queue
     ([max_queue]); the read window is the pending-read table
     ([max_inflight]). Reads are additionally shed once the write queue
     passes half its bound — shed-reads-before-writes: a shed read costs
     the client one round trip, a shed write loses queued work, so under
     pressure reads yield their CPU share to the write pipeline first. *)

  let retry_after_ms t backlog =
    (* Rough time to drain the backlog at the configured execution cost
       (floored so zero-cost services still push clients back at least
       one heartbeat), scaled by the backlog itself. *)
    let per_item = Float.max 0.05 t.cfg.execution_cost_ms in
    Float.max t.cfg.hb_period_ms (Float.of_int backlog *. per_item)

  let shed t (r : request) ~backlog =
    (match r.rtype with
    | Read -> t.shed_reads <- t.shed_reads + 1
    | _ -> t.shed_writes <- t.shed_writes + 1);
    span_req t ~detail:"shed" r Span.Leader_receive;
    answer r (Overloaded { retry_after_ms = retry_after_ms t backlog })

  let write_window_full t (l : leadership) =
    t.cfg.max_queue > 0 && Queue.length l.l_queue >= t.cfg.max_queue

  let read_window_full t (l : leadership) =
    (t.cfg.max_inflight > 0
    && Hashtbl.length l.l_reads + List.length l.l_deferred_reads
       >= t.cfg.max_inflight)
    || (t.cfg.max_queue > 0 && Queue.length l.l_queue >= (t.cfg.max_queue + 1) / 2)

  (* Queue a write or protocol marker for the next batch. *)
  let enqueue t (l : leadership) (r : request) w =
    match dedup_lookup t r with
    | `Resend reply -> reply_actions [ reply ]
    | `Stale -> []
    | `Fresh ->
      if Hashtbl.mem l.l_queued_ids r.id then []
      else if write_window_full t l then
        (* Shed before touching [l_queued_ids]: an [Overloaded] reply
           promises nothing, so the retransmission must be admittable
           from scratch once the queue drains. *)
        shed t r ~backlog:(Queue.length l.l_queue)
      else begin
        Hashtbl.replace l.l_queued_ids r.id ();
        Queue.add w l.l_queue;
        pump t
      end

  let admit_op t (l : leadership) (o : op_req) =
    let r = o.o_req in
    match r.rtype with
    | Read
      when Footprint.(check (Participant.Reshard.locks t.reshard) Read (Keys o.o_fp) = Redirect) ->
      (* The key range moved to another group: answer with the current
         map so the client re-routes. Reads of a *frozen* range still
         serve below — a frozen range is immutable, so its content here
         stays correct until the commit flips ownership. *)
      answer r (Participant.Reshard.wrong_epoch t.reshard)
    | Read ->
      (* A retransmission of a read we already hold is not re-admitted
         (it is already in the window). *)
      if Hashtbl.mem l.l_reads r.id then []
      else if
        List.exists
          (fun (o' : op_req) -> Ids.Request_id.equal o'.o_req.id r.id)
          l.l_deferred_reads
      then []
      else if read_window_full t l then
        shed t r ~backlog:(Queue.length l.l_queue + Hashtbl.length l.l_reads)
      else if Plog.commit_point t.log < l.l_recover_until then begin
        (* Freshly elected and still re-proposing recovered instances:
           our state may be missing writes the old leader answered, so
           executing this read now could travel back in time. It holds
           its admission slot and runs when recovery commits. *)
        span_req t ~detail:"read_deferred" r Span.Leader_receive;
        l.l_deferred_reads <- o :: l.l_deferred_reads;
        []
      end
      else admit_read t l o
    | Write -> enqueue t l r (W_write o)
    | _ -> begin_execution t l (Exec_op o)

  let leader_handle_client t (l : leadership) (r : request) =
    let detail =
      match r.rtype with
      | Read when holds_lease t ~now:t.now -> "read_leased"
      | _ -> rtype_label r.rtype
    in
    span_req t ~detail r Span.Leader_receive;
    (* Hop boundary: everything downstream of this receive — propose,
       apply, commit, the followers' state-ship spans — parents under it,
       so the stitched tree shows client -> leader -> quorum edges. *)
    let r =
      if r.trace.tid = 0 then r
      else { r with trace = { r.trace with parent = t.sid_receive } }
    in
    match r.rtype with
    | rt when carries_op rt -> (
      match
        let op = S.decode_op r.payload in
        (op, S.footprint op)
      with
      | op, fp -> admit_op t l { o_req = r; o_op = op; o_fp = fp }
      | exception _ ->
        (* A payload the service cannot decode (a client started with a
           different service, say) is refused here, before it takes a
           queue slot or a dedup entry and before anything downstream
           could raise on it. The reply is final, so the client moves
           on. *)
        answer r Txn_aborted)
    | Txn_abort tid when Option.is_none (Participant.Txn.find t.txns tid) -> (
      match Participant.Txn.outcome t.txns tid with
      | Some true ->
        (* Cannot abort: the commit decision already committed. [Ok]
           tells a recovering coordinator the outcome was COMMIT. *)
        answer r Ok
      | Some false -> answer r Txn_aborted
      | None ->
        (* Leader-local branch (or nothing at all): discard instantly,
           no consensus needed — the branch never escaped this leader. *)
        Hashtbl.remove l.l_txns (Ids.Client_id.to_int r.id.client, tid);
        answer r Txn_aborted)
    | _ ->
      (* T-Paxos commits, 2PC prepares, reshard markers — and the abort
         of a prepared cross-shard branch, itself a 2PC decision: it is
         replicated through the log (the same path as a commit decision)
         so every replica releases the lock and records the tombstone. *)
      enqueue t l r (W_marker r)

  let follower_handle_client t (r : request) =
    match (r.rtype, leader_view t) with
    | Read, Some holder when holder <> t.rid ->
      (* X-Paxos: confirm to the holder of the highest accepted ballot. *)
      [
        send ~dst:holder
          (Read_confirm { ballot = t.promised; req = r.id; lease_anchor = lease_echo t });
      ]
    | _ -> []

  (* ------------------------------------------------------------------ *)
  (* Election                                                            *)

  (* Ω with stability: the candidate is the incumbent (the holder of the
     highest promise we know) as long as it is alive; only when it is
     suspected do we fall back to the lowest live id. *)
  let candidate t ~now =
    let alive =
      List.filter
        (fun r -> r = t.rid || now -. t.last_heard.(r) <= t.cfg.suspicion_ms)
        (Config.replica_ids t.cfg)
    in
    match leader_view t with
    | Some holder when List.mem holder alive -> holder
    | _ -> List.fold_left Stdlib.min max_int alive

  let become_leader t (c : candidacy) =
    (match c.c_snapshot with Some snap -> install_snapshot t snap | None -> ());
    let cp = Plog.commit_point t.log in
    let entries =
      Hashtbl.fold (fun i (_, p) acc -> if i > cp then (i, p) :: acc else acc) c.c_merged []
      |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
    in
    (* Keep only the contiguous run starting at cp+1. *)
    let repropose =
      let rec take expect = function
        | (i, p) :: rest when i = expect -> (i, p) :: take (expect + 1) rest
        | _ -> []
      in
      take (cp + 1) entries
    in
    let l_queued_ids = Hashtbl.create 16 in
    (* Requests being re-proposed are already in flight: without this a
       client retransmission would queue (and execute) them a second
       time. *)
    List.iter
      (fun (_, (p : proposal)) ->
        List.iter (fun (r : request) -> Hashtbl.replace l_queued_ids r.id ()) p.requests)
      repropose;
    (* Confirms stashed while we were a follower or candidate confirmed
       some earlier leadership; they must not count toward our reads. *)
    Hashtbl.reset t.pre_confirms;
    t.role <-
      Leader
        {
          l_ballot = c.c_ballot;
          l_queue = Queue.create ();
          l_phase = None;
          l_repropose = repropose;
          l_recover_until = cp + List.length repropose;
          l_deferred_reads = [];
          l_reads = Hashtbl.create 16;
          l_txns = Hashtbl.create 8;
          l_blocked = [];
          l_queued_ids;
          l_grants = Array.make t.cfg.n neg_infinity;
        };
    note "leader with ballot %a, reproposing %d entries" Ballot.pp c.c_ballot
      (List.length repropose)
    :: pump t

  let start_prepare t ~now:_ =
    t.round_seen <- t.round_seen + 1;
    let ballot = Ballot.make ~round:t.round_seen ~holder:t.rid in
    t.promised <- ballot;
    t.storage.persist_promise ballot;
    let acks = Bitset.create t.cfg.n in
    Bitset.set acks t.rid;
    let merged = Hashtbl.create 8 in
    List.iter
      (fun (e : recovery_entry) -> Hashtbl.replace merged e.instance (e.ballot, e.proposal))
      (Plog.accepted_above t.log (Plog.commit_point t.log));
    let candidacy =
      { c_ballot = ballot; c_acks = acks; c_merged = merged; c_snapshot = None }
    in
    t.role <- Candidate candidacy;
    t.candidate_since <- None;
    if Bitset.cardinal acks >= quorum t then
      (* Single-replica group: the self-promise is already a majority. *)
      become_leader t candidacy
    else
      note "starting prepare with ballot %a" Ballot.pp ballot
      :: broadcast t (Prepare { ballot; commit_point = Plog.commit_point t.log })
      @ [ after ~delay:t.cfg.prepare_retry_ms (Prepare_retry ballot.round) ]

  (* ------------------------------------------------------------------ *)
  (* Message handling                                                    *)

  let handle_prepare t ~now ~src ~ballot ~their_cp =
    heard t ~from:ballot.Ballot.holder ~now;
    observe_round t ballot.round;
    if
      t.cfg.lease_ms > 0.0 && now < t.lease_until
      && ballot.Ballot.holder <> t.lease_holder
    then
      (* Lease enforcement: an unexpired grant refuses promises to any
         other candidate regardless of ballot height — the grant is the
         leader's licence to answer reads locally, and a quorum of
         intersecting refusals is exactly what makes that safe. The
         candidate keeps retrying (Prepare_retry) and wins once the
         grant expires on this clock. *)
      [ send ~dst:src (Reject { promised = t.promised }) ]
    else if Ballot.compare ballot t.promised >= 0 then begin
      (* A higher (or equal, on retry) ballot deposes us. *)
      let demoted =
        match t.role with
        | Leader l when Ballot.compare ballot l.l_ballot > 0 -> step_down t
        | Candidate c when Ballot.compare ballot c.c_ballot > 0 -> step_down t
        | _ -> []
      in
      adopt_promise t ballot;
      t.candidate_since <- None;
      let my_cp = Plog.commit_point t.log in
      let snapshot =
        if my_cp > their_cp then Some (Snapshot.encode (current_snapshot t)) else None
      in
      let accepted = Plog.accepted_above t.log (Stdlib.max my_cp their_cp) in
      demoted
      @ [ send ~dst:src (Prepare_ack { ballot; commit_point = my_cp; snapshot; accepted }) ]
    end
    else [ send ~dst:src (Reject { promised = t.promised }) ]

  let handle_prepare_ack t ~src ~ballot ~snapshot ~accepted =
    match t.role with
    | Candidate c when Ballot.equal ballot c.c_ballot ->
      Bitset.set c.c_acks src;
      (match snapshot with
      | Some s ->
        let snap = Snapshot.decode s in
        (match c.c_snapshot with
        | Some best when best.commit_point >= snap.commit_point -> ()
        | _ -> c.c_snapshot <- Some snap)
      | None -> ());
      List.iter
        (fun (e : recovery_entry) ->
          match Hashtbl.find_opt c.c_merged e.instance with
          | Some (b, _) when Ballot.compare b e.ballot >= 0 -> ()
          | _ -> Hashtbl.replace c.c_merged e.instance (e.ballot, e.proposal))
        accepted;
      if Bitset.cardinal c.c_acks >= quorum t then become_leader t c else []
    | _ -> []

  let handle_accept t ~now ~src ~ballot ~instance ~proposal =
    heard t ~from:ballot.Ballot.holder ~now;
    observe_round t ballot.round;
    if Ballot.compare ballot t.promised >= 0 then begin
      let demoted =
        match t.role with
        | Leader l when not (Ballot.equal ballot l.l_ballot) -> step_down t
        | Candidate c when Ballot.compare ballot c.c_ballot >= 0 -> step_down t
        | _ -> []
      in
      adopt_promise t ballot;
      if Plog.accept t.log ~instance ~ballot proposal then
        t.storage.persist_entry ~instance ~ballot proposal;
      demoted @ [ send ~dst:src (Accept_ack { ballot; instance }) ]
    end
    else [ send ~dst:src (Reject { promised = t.promised }) ]

  let handle_accept_ack t ~src ~ballot ~instance =
    match t.role with
    | Leader l -> (
      match l.l_phase with
      | Some (Ph_prop fl)
        when fl.fl_instance = instance && Ballot.equal ballot l.l_ballot ->
        Bitset.set fl.fl_acks src;
        if Bitset.cardinal fl.fl_acks >= quorum t then do_commit t l fl else []
      | _ -> [])
    | _ -> []

  (* A follower learns an instance was chosen: mark it, then apply the
     updates of every newly contiguous committed instance in order. *)
  let handle_commit t ~now ~src ~ballot ~instance =
    heard t ~from:ballot.Ballot.holder ~now;
    observe_round t ballot.round;
    match t.role with
    | Leader _ -> []  (* leaders commit via accept-acks *)
    | Follower | Candidate _ ->
      let before = Plog.commit_point t.log in
      (* Only commit a value accepted at (or above) the committing ballot.
         An entry below it is a stale accept from a deposed proposer — the
         chosen value may differ (e.g. we rejected the current leader's
         Accept because a failed candidacy left us promised higher), so
         committing it would break agreement. An entry above it is safe:
         once chosen at [ballot], every higher-ballot proposal for the
         instance is bound to the same value. *)
      let entry_current =
        match Plog.get t.log instance with
        | Some e -> e.committed || Ballot.compare e.ballot ballot >= 0
        | None -> false
      in
      if not (entry_current && Plog.commit t.log ~instance) then
        (* Never accepted this instance (or only a stale value): fetch a
           snapshot. *)
        [ send ~dst:src (Catchup_req { from_instance = before + 1 }) ]
      else begin
        let after_cp = Plog.commit_point t.log in
        let rec apply_from i acc =
          if i > after_cp then acc
          else
            match Plog.get t.log i with
            | Some entry ->
              apply_update t entry.proposal;
              span_requests t Span.State_ship ~instance:i entry.proposal.requests;
              record_commit_bookkeeping t ~instance:i entry.proposal;
              apply_from (i + 1) acc
            | None -> acc
        in
        let acts = apply_from (before + 1) [] in
        t.storage.persist_commit after_cp;
        (* A commit beyond our contiguous prefix means we missed earlier
           instances: fetch a snapshot. *)
        if after_cp < instance then
          send ~dst:src (Catchup_req { from_instance = after_cp + 1 }) :: acts
        else acts
      end

  let handle_read_confirm t ~src ~ballot ~req ~lease_anchor =
    match t.role with
    | Leader l when Ballot.equal ballot l.l_ballot -> (
      (* The confirm doubles as a lease renewal. *)
      record_grant t l ~src ~anchor:lease_anchor;
      match Hashtbl.find_opt l.l_reads req with
      | Some pr ->
        Bitset.set pr.pr_confirms src;
        check_read_ready t l pr
      | None ->
        let b =
          match Hashtbl.find_opt t.pre_confirms req with
          | Some (b0, set) when Ballot.equal b0 l.l_ballot -> set
          | _ ->
            let b = Bitset.create t.cfg.n in
            Hashtbl.replace t.pre_confirms req (l.l_ballot, b);
            (* Bound the pre-confirm table against stray confirms. *)
            if Hashtbl.length t.pre_confirms > 4096 then
              Hashtbl.reset t.pre_confirms;
            b
        in
        Bitset.set b src;
        [])
    | _ -> []

  let handle_reject t ~promised:their_promise =
    observe_round t their_promise.Ballot.round;
    if Ballot.compare their_promise t.promised > 0 then begin
      adopt_promise t their_promise;
      match t.role with
      | Leader _ | Candidate _ ->
        step_down t @ [ note "deposed by ballot %a" Ballot.pp their_promise ]
      | Follower -> []
    end
    else []

  (* ------------------------------------------------------------------ *)
  (* Timers                                                              *)

  let on_hb_tick t ~now =
    heard t ~from:t.rid ~now;
    broadcast t
      (Heartbeat
         {
           round_seen = t.round_seen;
           commit_point = Plog.commit_point t.log;
           promised = t.promised;
           sent_at = now;
           lease_anchor = lease_echo t;
         })
    @ [ after ~delay:t.cfg.hb_period_ms Hb_tick ]

  let on_suspicion_tick t ~now =
    heard t ~from:t.rid ~now;
    let candidate = candidate t ~now in
    let acts =
      match t.role with
      | Follower when candidate = t.rid -> (
        match t.candidate_since with
        | None ->
          t.candidate_since <- Some now;
          [ after ~delay:t.cfg.stability_ms (Stability_check t.round_seen) ]
        | Some _ -> [])
      | Follower | Candidate _ | Leader _ ->
        if candidate <> t.rid then t.candidate_since <- None;
        []
    in
    acts @ [ after ~delay:(t.cfg.suspicion_ms /. 2.0) Suspicion_tick ]

  let on_stability_check t ~now =
    match (t.role, t.candidate_since) with
    | Follower, Some since
      when now -. since >= t.cfg.stability_ms -. 1e-9
           (* Our own grant (or post-crash blackout) blocks our candidacy
              too; the suspicion tick re-arms the stability check after
              the grant expires, so liveness only shifts by up to one
              lease. *)
           && not (t.cfg.lease_ms > 0.0 && now < t.lease_until && t.lease_holder <> t.rid)
           (* Same candidate rule as the suspicion tick: the incumbent
              (the holder of the highest promise) wins as long as it is
              alive. Checking only for the lowest live id here would
              deadlock a leader that restarted faster than the suspicion
              timeout — it is the holder, so nobody else arms candidacy,
              yet as a restarted follower it would refuse to prepare. *)
           && candidate t ~now = t.rid ->
      start_prepare t ~now
    | _ ->
      t.candidate_since <- None;
      []

  let on_accept_retry t ~instance =
    match t.role with
    | Leader l -> (
      match l.l_phase with
      | Some (Ph_prop fl) when fl.fl_instance = instance ->
        broadcast t
          (Accept { ballot = l.l_ballot; instance; proposal = fl.fl_proposal })
        @ [ after ~delay:t.cfg.accept_retry_ms (Accept_retry instance) ]
      | _ -> [])
    | _ -> []

  let on_prepare_retry t ~round =
    match t.role with
    | Candidate c when c.c_ballot.round = round ->
      broadcast t (Prepare { ballot = c.c_ballot; commit_point = Plog.commit_point t.log })
      @ [ after ~delay:t.cfg.prepare_retry_ms (Prepare_retry round) ]
    | _ -> []

  let on_exec_done t ~token =
    match Hashtbl.find_opt t.exec_table token with
    | None -> []
    | Some work -> (
      Hashtbl.remove t.exec_table token;
      match t.role with
      | Leader l ->
        (* Writes hold the pipeline slot (Ph_exec) while executing. *)
        (match work with Exec_batch _ -> l.l_phase <- None | _ -> ());
        execute t l work
      | _ -> [])

  (* ------------------------------------------------------------------ *)
  (* Entry points                                                        *)

  let bootstrap t =
    [ after ~delay:0.0 Hb_tick; after ~delay:(t.cfg.suspicion_ms /. 2.0) Suspicion_tick ]

  (* The inline-E path passes nan as [now]; substitute the driver time so
     services always observe a real clock. *)
  let handle t ~now input =
    t.now <- now;
    match input with
    | Timer timer -> (
      match timer with
      | Hb_tick -> on_hb_tick t ~now
      | Suspicion_tick -> on_suspicion_tick t ~now
      | Stability_check _ -> on_stability_check t ~now
      | Accept_retry instance -> on_accept_retry t ~instance
      | Prepare_retry round -> on_prepare_retry t ~round
      | Exec_done token -> on_exec_done t ~token
      | Client_retry _ -> [])
    | Receive { src; msg } -> (
      if not (node_is_client src) then heard t ~from:src ~now;
      match msg with
      | Heartbeat { round_seen; commit_point; promised = their_promise; sent_at; lease_anchor }
        ->
        observe_round t round_seen;
        (* Adopting a higher promise unilaterally is always safe (it only
           makes this replica more conservative) and spreads knowledge of
           the current leadership, so a recovered old leader defers to
           the incumbent instead of deposing it (§3.6 stability). *)
        let demoted =
          if Ballot.compare their_promise t.promised <= 0 then []
          else
            match t.role with
            | Leader l when Ballot.compare their_promise l.l_ballot > 0 -> step_down t
            | Candidate c when Ballot.compare their_promise c.c_ballot > 0 -> step_down t
            | _ -> []
        in
        adopt_promise t their_promise;
        (* Lease grant (follower side): a heartbeat from the replica we
           are promised to starts or renews a grant. The enforcement
           window only ever extends; the anchor tracks the newest
           [sent_at] so reordered heartbeats cannot roll it back. *)
        if
          t.cfg.lease_ms > 0.0
          && (not (is_leader t))
          && Ballot.equal t.promised their_promise
          && their_promise.Ballot.holder = src
        then begin
          if
            t.lease_holder <> src
            || Float.is_nan t.lease_anchor
            || sent_at > t.lease_anchor
          then t.lease_anchor <- sent_at;
          t.lease_holder <- src;
          t.lease_until <- Float.max t.lease_until (now +. t.cfg.lease_ms)
        end;
        (* Grant renewal (leader side): followers echo their grant anchor
           on their own heartbeats. Only count an echo from a follower
           promised to this exact leadership. *)
        (match t.role with
        | Leader l when Ballot.equal their_promise l.l_ballot ->
          record_grant t l ~src ~anchor:lease_anchor
        | _ -> ());
        (* A heartbeat from the replica we promised to announces a commit
           point ahead of ours: we missed Commit messages — catch up. *)
        demoted
        @
        if
          (not (is_leader t))
          && src = t.promised.holder
          && commit_point > Plog.commit_point t.log
        then [ send ~dst:src (Catchup_req { from_instance = Plog.commit_point t.log + 1 }) ]
        else []
      | Client_req r -> (
        match t.role with
        | Leader l -> leader_handle_client t l r
        | Follower | Candidate _ -> follower_handle_client t r)
      | Prepare { ballot; commit_point } ->
        handle_prepare t ~now ~src ~ballot ~their_cp:commit_point
      | Prepare_ack { ballot; snapshot; accepted; _ } ->
        handle_prepare_ack t ~src ~ballot ~snapshot ~accepted
      | Accept { ballot; instance; proposal } ->
        handle_accept t ~now ~src ~ballot ~instance ~proposal
      | Accept_ack { ballot; instance } -> handle_accept_ack t ~src ~ballot ~instance
      | Commit { ballot; instance } -> handle_commit t ~now ~src ~ballot ~instance
      | Read_confirm { ballot; req; lease_anchor } ->
        handle_read_confirm t ~src ~ballot ~req ~lease_anchor
      | Reject { promised } -> handle_reject t ~promised
      | Catchup_req _ ->
        if is_leader t then
          [ send ~dst:src (Catchup { snapshot = Snapshot.encode (current_snapshot t) }) ]
        else []
      | Catchup { snapshot } ->
        install_snapshot t (Snapshot.decode snapshot);
        []
      | Reply_msg _ -> [])

  let restart t ~now =
    t.now <- now;
    (* A crashed process sends nothing; drop the demotion replies. *)
    ignore (step_down t : action list);
    Hashtbl.reset t.pre_confirms;
    (* Lease blackout: the grant (if any) died with the process, so sit
       out one full lease — refusing every candidate (holder -1 matches
       nobody) — before promising again. Without this a recovered
       follower could promise a usurper while the old leader is still
       lawfully serving leased reads against the forgotten grant. *)
    if t.cfg.lease_ms > 0.0 then begin
      t.lease_holder <- -1;
      t.lease_anchor <- Float.nan;
      t.lease_until <- now +. t.cfg.lease_ms
    end;
    t.candidate_since <- None;
    Array.fill t.last_heard 0 t.cfg.n neg_infinity;
    heard t ~from:t.rid ~now;
    bootstrap t

  let load t (p : Storage.persisted) =
    t.promised <- p.promised;
    if p.promised.round > t.round_seen then t.round_seen <- p.promised.round;
    (match p.snapshot with
    | Some s -> install_snapshot t (Snapshot.decode s)
    | None -> ());
    List.iter
      (fun (e : recovery_entry) ->
        if e.instance > Plog.commit_point t.log then
          ignore (Plog.accept t.log ~instance:e.instance ~ballot:e.ballot e.proposal))
      p.entries;
    (* Entries between the snapshot's commit point and the persisted one
       are committed: apply their updates in order to restore the state. *)
    let rec mark i =
      if i <= p.commit_point then
        match Plog.get t.log i with
        | Some entry ->
          apply_update t entry.proposal;
          (* Restore the dedup table from the committed replies: without
             this, a recovered leader would treat a retransmission of an
             already-committed request as fresh and commit it twice. The
             snapshot carries dedup state — and the 2PC and reshard
             participant tables — only up to its own commit point; the
             replayed suffix must contribute its share. *)
          track_committed t ~instance:i entry.proposal;
          (* Seed (not check) the watchdog: these commits were validated
             by the previous incarnation, and the re-seeded table is what
             lets a later re-delivery of the same instance pass. *)
          List.iter
            (fun (r : request) ->
              Watchdog.seed_commit t.wd
                ~client:(Ids.Client_id.to_int r.id.client)
                ~seq:r.id.seq ~instance:i)
            entry.proposal.requests;
          ignore (Plog.commit t.log ~instance:i);
          mark (i + 1)
        | None -> ()
    in
    mark (Plog.commit_point t.log + 1)
end
