(* The leader's batch executor (DESIGN.md §18): one instance decides a
   whole batch of queued writes and protocol markers, executed in
   arrival order on the committed state. The executor is a fold of one
   small step per work kind over a shared accumulator; every step
   consults the same footprint lock table ({!Footprint}). *)

open Types
module Ids = Grid_util.Ids
module Fp = Footprint

module Make (S : Service_intf.S) = struct
  (* A client request whose service op was decoded — and footprinted —
     once, at admission. *)
  type op_req = { o_req : request; o_op : S.op; o_fp : Footprint.t }

  type work =
    | W_write of op_req
    | W_marker of request
        (* every other queued request, dispatched on its [rtype]: T-Paxos
           commits, 2PC prepares and decisions ([Txn_commit] replays a
           prepared cross-shard branch, [Txn_abort] discards it — both as
           consensus instances, so the decision is as durable as the
           vote), and the reshard FREEZE / INSTALL / COMMIT / ABORT
           markers, each committing as a consensus instance so the
           migration state machine is exactly as durable as the log *)

  (* A leader-local transaction branch (T-Paxos). [tx_ops] and
     [tx_replies] are kept reversed. *)
  type txn = {
    mutable tx_state : S.state;
    tx_base : int;  (* commit point at branch time *)
    mutable tx_ops : (request * S.op * string option) list;  (* with witnesses *)
    mutable tx_replies : reply list;
    tx_footprint : (string, unit) Hashtbl.t;
        (* its fold order is the key order a prepared branch records *)
  }

  (* What the steps read, and the two leader tables they edit. *)
  type env = {
    rng : Grid_util.Rng.t;
    now : float;
    commit_point : int;
    txns : Participant.Txn.t;
    reshard : Participant.Reshard.t;
    window : Footprint.Window.t;
    queued : (Ids.Request_id.t, unit) Hashtbl.t;  (* queued request ids *)
    branches : (int * int, txn) Hashtbl.t;  (* (client, txn id) -> branch *)
  }

  (* The accumulator one batch folds its steps over. Lists are newest
     first. *)
  type acc = {
    a_state : S.state;  (* running batch state *)
    a_requests : request list;  (* decided by the instance *)
    a_replies : reply list;  (* recorded with it, for dedup *)
    a_to_send : reply list;  (* released when it commits *)
    a_instant : reply list;  (* answered now: aborts, conflicts, redirects *)
    a_blocked : work list;  (* parked behind a lock *)
    a_witness : string option;  (* of the last write, for singleton batches *)
    a_imported : bool;  (* an INSTALL imported a slice into [a_state] *)
    a_locks : Footprint.locks;
    a_decided : (int * bool) list;
        (* 2PC decisions taken earlier in this batch: the participant
           tables only flip when the instance commits, so without this a
           commit and a racing abort for the same tid batched together
           would both claim the branch *)
  }

  (* Answer [r] now; it needs no consensus. *)
  let instant env acc ?(payload = "") (r : request) status =
    Hashtbl.remove env.queued r.id;
    { acc with a_instant = { req = r.id; status; payload } :: acc.a_instant }

  (* Decide [r] — after [ops], whose [replies] it records too — in this
     instance. The reply releases at commit time, so whatever it
     promises is as durable as the log before anyone acts on it. *)
  let decide acc ?(ops = []) ?(replies = []) ?(payload = "") (r : request) status =
    let reply = { req = r.id; status; payload } in
    {
      acc with
      a_requests = r :: List.rev_append ops acc.a_requests;
      a_replies = reply :: List.rev_append replies acc.a_replies;
      a_to_send = reply :: acc.a_to_send;
    }

  (* Park [w] until a decision instance releases the lock it hit. It
     keeps its queued-id slot so retransmissions stay deduplicated while
     it waits. *)
  let block acc w = { acc with a_blocked = w :: acc.a_blocked }

  let lock acc holder fp = { acc with a_locks = (holder, Fp.Keys fp) :: acc.a_locks }

  (* Re-derive a branch on top of [st]: each op replays from its recorded
     witness, or re-applies if it was deterministic. *)
  let replay_ops env st ops =
    List.fold_left
      (fun st (op, witness) ->
        match witness with
        | Some w -> fst (S.replay st op ~witness:w)
        | None -> (S.apply ~rng:env.rng ~now:env.now st op).state)
      st ops

  (* A write executes on the running batch state unless its keys moved
     away (redirect) or are held by a migration or a prepared cross-shard
     branch — then it waits for that decision instead of racing it. *)
  let step_write env acc (o : op_req) =
    match Fp.check acc.a_locks Fp.Write (Fp.Keys o.o_fp) with
    | Fp.Redirect -> instant env acc o.o_req (Participant.Reshard.wrong_epoch env.reshard)
    | Fp.Wait | Fp.Conflict -> block acc (W_write o)
    | Fp.Free ->
      let outcome = S.apply ~rng:env.rng ~now:env.now acc.a_state o.o_op in
      let acc = decide acc ~payload:(S.encode_result outcome.result) o.o_req Ok in
      lock { acc with a_state = outcome.state; a_witness = outcome.witness } Fp.Written o.o_fp

  (* A leader-local branch ending in a T-Paxos commit or a 2PC prepare.
     The commit payload carries the client's op count, so a leader that
     missed early ops cannot commit a partial batch. Then the lock table:
     keys handed away redirect — never a commit of half the keys under
     the successor map, nor a YES vote on keys this group no longer owns
     — a migration in flight parks the item (keeping the branch) until
     its decision, and the batch's writes and the prepared branches
     conflict (first-prepared-wins mirrors first-committer-wins), as does
     anything committed since the branch was taken. *)
  let step_branch env acc (r : request) ~tid ~prepare =
    let key = (Ids.Client_id.to_int r.id.client, tid) in
    match Hashtbl.find_opt env.branches key with
    | None ->
      (* Ops lost to a leader switch (§3.6), or never seen. A NO vote
         needs no durability: recovery presumes abort for any
         transaction without a committed COMMIT decision. *)
      instant env acc r Txn_aborted
    | Some txn -> (
      Hashtbl.remove env.branches key;
      let expected_ops =
        try Grid_codec.Wire.decode r.payload Grid_codec.Wire.Decoder.uint
        with _ -> List.length txn.tx_ops
      in
      let fp = Hashtbl.fold (fun k () acc -> k :: acc) txn.tx_footprint [] in
      if List.length txn.tx_ops <> expected_ops then instant env acc r Txn_aborted
      else
        match Fp.check acc.a_locks (if prepare then Fp.Prepare else Fp.Commit) (Fp.Keys fp) with
        | Fp.Redirect -> instant env acc r (Participant.Reshard.wrong_epoch env.reshard)
        | Fp.Wait ->
          Hashtbl.replace env.branches key txn;
          block acc (W_marker r)
        | Fp.Conflict -> instant env acc r Txn_conflict
        | Fp.Free
          when Fp.Window.conflicts env.window ~after:txn.tx_base ~upto:env.commit_point fp ->
          instant env acc r Txn_conflict
        | Fp.Free ->
          let ops = List.rev txn.tx_ops and replies = List.rev txn.tx_replies in
          if prepare then
            (* YES: freeze the branch into the prepare request itself, so
               the committed instance carries everything a failover
               leader needs to finish the transaction, and lock its
               footprint until the decision arrives. Nothing applies to
               the batch state yet; the vote reply releases at commit
               time, which is what makes it a crash-safe promise. *)
            let branch =
              {
                Participant.Txn.p_ops = List.map (fun (r, _, w) -> (r, w)) ops;
                p_replies = replies;
                p_footprint = fp;
              }
            in
            let r' = { r with payload = Participant.Txn.encode_branch branch } in
            lock (decide acc r' Ok) Fp.Prepared fp
          else
            (* Rebase: replay the recorded ops on top of the running
               batch state. *)
            let a_state = replay_ops env acc.a_state (List.map (fun (_, op, w) -> (op, w)) ops) in
            let acc = decide acc ~ops:(List.map (fun (r, _, _) -> r) ops) ~replies r Ok in
            lock { acc with a_state } Fp.Written fp)

  (* A queued [Txn_commit] or [Txn_abort]: a 2PC decision when this group
     holds the branch prepared, else a single-shard T-Paxos commit. *)
  let step_decision env acc (r : request) ~tid =
    let decided =
      match List.assoc_opt tid acc.a_decided with
      | Some _ as d -> d
      | None -> Participant.Txn.outcome env.txns tid
    in
    match (decided, Participant.Txn.find env.txns tid, r.rtype) with
    | Some committed, _, _ ->
      (* Decision tombstone: a duplicate decision, or a coordinator
         racing its own recovery. Nothing re-executes; the reply reports
         the recorded outcome — [Ok] to an abort of a committed
         transaction tells recovery the decision was COMMIT. *)
      instant env acc r (if committed then Ok else Txn_aborted)
    | None, Some p, Txn_commit _ ->
      (* COMMIT for a branch this group voted YES on: replay the frozen
         ops (with their recorded witnesses) onto the running batch
         state. The ops, their replies and the decision marker all
         commit in this one instance; [Participant.Txn.track] releases
         the lock when it does. *)
      let ops = List.map (fun ((opr : request), w) -> (S.decode_op opr.payload, w)) p.p_ops in
      let a_state = replay_ops env acc.a_state ops in
      let acc = decide acc ~ops:(List.map fst p.p_ops) ~replies:p.p_replies r Ok in
      let acc = lock { acc with a_state } Fp.Written p.p_footprint in
      { acc with a_decided = (tid, true) :: acc.a_decided }
    | None, Some _, _ ->
      (* ABORT for a prepared branch: the marker alone is decided;
         committing it discards the branch and releases its locks. *)
      let acc = decide acc r Txn_aborted in
      { acc with a_decided = (tid, false) :: acc.a_decided }
    | None, None, Txn_abort _ ->
      (* Presumed abort: no vote on record, nothing to undo. *)
      instant env acc r Txn_aborted
    | None, None, _ -> step_branch env acc r ~tid ~prepare:false

  let step_prepare env acc (r : request) ~tid =
    match Participant.Txn.outcome env.txns tid with
    | Some committed -> instant env acc r (if committed then Ok else Txn_aborted)
    | None when Option.is_some (Participant.Txn.find env.txns tid) ->
      (* A prior prepare for this tid already committed: the YES vote is
         idempotent. *)
      instant env acc r Ok
    | None -> step_branch env acc r ~tid ~prepare:true

  (* Reshard markers are decided through consensus: the reply releases at
     commit time, so a phase transition is as durable as the log before
     the coordinator may advance past it. [Participant.Reshard.track]
     performs the transition when the instance commits — on this leader
     and every other replica alike. *)
  let step_reshard env acc (r : request) =
    let rs = env.reshard in
    let aborted = Participant.Reshard.aborted rs in
    match r.rtype with
    | Reshard_freeze e -> (
      if aborted e then instant env acc r Txn_aborted
      else if e <= rs.epoch then
        (* Stale coordinator: the map already moved past this epoch —
           hand it the current map. *)
        instant env acc r (Participant.Reshard.wrong_epoch env.reshard)
      else
        match rs.frozen with
        | Some (e', _, _, _) when e' = e -> instant env acc r Ok
        | Some _ ->
          (* One migration at a time per group. *)
          instant env acc r Txn_aborted
        | None -> (
          match Reshard_wire.decode_freeze r.payload with
          | { f_lo; f_hi; _ } ->
            (* A prepared cross-shard branch over the moving range is a
               promise whose effect lands only at its COMMIT decision —
               *after* the slice would ship. Freezing under it would
               silently drop those writes at the new owner, so refuse:
               the coordinator burns the epoch and retries once the
               branch's decision drains. *)
            let range = Fp.Range (f_lo, f_hi) in
            if Fp.check acc.a_locks Fp.Freeze range <> Fp.Free then
              instant env acc r Txn_aborted
            else
              let acc = decide acc r Ok in
              { acc with a_locks = (Fp.Freezing, range) :: acc.a_locks }
          | exception _ -> instant env acc r Txn_aborted))
    | Reshard_install e -> (
      if aborted e then instant env acc r Txn_aborted
      else if e <= rs.epoch then
        (* The install (and its commit) already went through. *)
        instant env acc r Ok
      else
        match rs.installed with
        | Some (e', _, _, _) when e' = e -> instant env acc r Ok
        | _ -> (
          match Reshard_wire.decode_install r.payload with
          | slice ->
            (* Import into the running batch state so the shipped
               Full/Delta update carries the slice: followers get the
               handoff through the ordinary ship path and lagging
               replicas through Catchup snapshots — no new transfer
               machinery. [import_range] is idempotent, so replay-path
               re-imports are harmless. *)
            decide
              { acc with a_state = S.import_range acc.a_state slice.i_blob; a_imported = true }
              r Ok
          | exception _ -> instant env acc r Txn_aborted))
    | Reshard_commit e ->
      if e <= rs.epoch then instant env acc r Ok (* duplicate *)
      else if aborted e then instant env acc r Txn_aborted
      else decide acc r Ok
    | Reshard_abort e ->
      if rs.epoch >= e then
        (* The commit decision won the race: [Ok] carrying the committed
           map tells a recovering coordinator the outcome was COMMIT —
           mirroring the 2PC "Ok to an abort of a committed transaction"
           convention. *)
        instant env acc ~payload:rs.map r Ok
      else if aborted e then instant env acc r Txn_aborted
      else decide acc r Txn_aborted
    | _ -> instant env acc r Txn_aborted

  let step env acc = function
    | W_write o -> step_write env acc o
    | W_marker r -> (
      match r.rtype with
      | Txn_prepare tid -> step_prepare env acc r ~tid
      | Txn_commit tid | Txn_abort tid -> step_decision env acc r ~tid
      | _ -> step_reshard env acc r)

  let run env ~state batch =
    List.fold_left (step env)
      {
        a_state = state;
        a_requests = [];
        a_replies = [];
        a_to_send = [];
        a_instant = [];
        a_blocked = [];
        a_witness = None;
        a_imported = false;
        a_locks = Participant.Txn.locks env.txns @ Participant.Reshard.locks env.reshard;
        a_decided = [];
      }
      batch

  (* The batch's write set: every [Written] footprint (writes, T-Paxos
     rebases, 2PC COMMIT replays), or ["*"] once an INSTALL imported a
     slice, whose keys no footprint names. *)
  let write_set acc =
    if acc.a_imported then [ "*" ]
    else List.concat_map (function Fp.Written, Fp.Keys k -> k | _ -> []) acc.a_locks

  (* The delta [S.diff] ships from [old_state] to the batch state,
     compared over the write set only; ["*"] falls back to the full
     compare. *)
  let diff ~old_state acc =
    let keys = write_set acc in
    if Fp.touches_all keys then S.diff ~old_state acc.a_state
    else S.diff_keys ~old_state keys acc.a_state
end
