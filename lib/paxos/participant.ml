(* Replica-level participant state for cross-shard 2PC (DESIGN.md §16)
   and elastic resharding (§17). Both are derived from committed
   instances only — [track] runs on every committed instance, on every
   path (live commit, catch-up replay, crash-recovery replay) — so they
   are exactly as durable as the log and every replica of a group
   reconstructs the same view, or adopts it from a snapshot. *)

open Types

(* Bound a tombstone table keyed by a monotone counter (cross-txn tids
   are allocated from one, map epochs only grow), so pruning far-below-
   max is safe: an entry for a pruned key can only be hit by a very
   stale duplicate whose prepare or freeze can no longer be live (it was
   tombstoned, hence decided). *)
let prune_tombstones tbl =
  if Hashtbl.length tbl > 8192 then begin
    let mx = Hashtbl.fold (fun k _ m -> max k m) tbl 0 in
    Hashtbl.filter_map_inplace (fun k v -> if k < mx - 4096 then None else Some v) tbl
  end

module Txn = struct
  type branch = {
    p_ops : (request * string option) list;
    p_replies : reply list;
    p_footprint : string list;
  }

  let encode_branch (p : branch) =
    Grid_codec.Wire.encode (fun e ->
        let module E = Grid_codec.Wire.Encoder in
        E.list e
          (fun (r, w) ->
            encode_request e r;
            E.option e (E.string e) w)
          p.p_ops;
        E.list e (fun r -> encode_reply e r) p.p_replies;
        E.list e (fun k -> E.string e k) p.p_footprint)

  let decode_branch s =
    Grid_codec.Wire.decode s (fun d ->
        let module D = Grid_codec.Wire.Decoder in
        let p_ops =
          D.list d (fun d ->
              let r = decode_request d in
              let w = D.option d D.string in
              (r, w))
        in
        let p_replies = D.list d decode_reply in
        let p_footprint = D.list d D.string in
        { p_ops; p_replies; p_footprint })

  (* Branches whose prepare committed but whose decision has not, and the
     decision tombstones that make commit/abort idempotent under
     duplicate delivery and coordinator failover. *)
  type t = {
    prepared : (int, branch) Hashtbl.t;  (* cross-txn tid -> branch *)
    outcomes : (int, bool) Hashtbl.t;  (* cross-txn tid -> committed? *)
  }

  let create () = { prepared = Hashtbl.create 8; outcomes = Hashtbl.create 32 }
  let find t tid = Hashtbl.find_opt t.prepared tid
  let outcome t tid = Hashtbl.find_opt t.outcomes tid

  let tids t =
    Hashtbl.fold (fun tid _ acc -> tid :: acc) t.prepared [] |> List.sort Int.compare

  (* A committed [Txn_prepare] locks the branch in; the committed
     decision releases it and leaves a tombstone so duplicate decisions —
     and racing commit-vs-abort from a coordinator and its recovery —
     resolve identically on every replica. *)
  let track t (requests : request list) =
    let decide tid committed =
      Hashtbl.remove t.prepared tid;
      Hashtbl.replace t.outcomes tid committed
    in
    List.iter
      (fun (r : request) ->
        match r.rtype with
        | Txn_prepare tid ->
          if not (Hashtbl.mem t.outcomes tid) then
            Hashtbl.replace t.prepared tid (decode_branch r.payload)
        | Txn_commit tid when Hashtbl.mem t.prepared tid -> decide tid true
        | Txn_abort tid when Hashtbl.mem t.prepared tid -> decide tid false
        | _ -> ())
      requests;
    prune_tombstones t.outcomes

  (* Prepared branches keep their footprints locked until the decision
     instance commits. *)
  let locks t =
    Hashtbl.fold
      (fun _ p acc -> (Footprint.Prepared, Footprint.Keys p.p_footprint) :: acc)
      t.prepared []

  let snapshot t =
    ( Hashtbl.fold (fun tid p acc -> (tid, encode_branch p) :: acc) t.prepared [],
      Hashtbl.fold (fun tid o acc -> (tid, o) :: acc) t.outcomes [] )

  let install t ~prepared ~outcomes =
    Hashtbl.reset t.prepared;
    Hashtbl.reset t.outcomes;
    List.iter (fun (tid, b) -> Hashtbl.replace t.prepared tid (decode_branch b)) prepared;
    List.iter (fun (tid, o) -> Hashtbl.replace t.outcomes tid o) outcomes
end

module Reshard = struct
  type t = {
    mutable epoch : int;
    mutable map : string;
    mutable frozen : (int * string * string option * int) option;
    mutable installed : (int * string * string option * int) option;
    mutable moved : Footprint.range list;
    aborted : (int, unit) Hashtbl.t;
    mutable imported : int;
  }

  let create () =
    {
      epoch = 0;
      map = "";
      frozen = None;
      installed = None;
      moved = [];
      aborted = Hashtbl.create 8;
      imported = 0;
    }

  let aborted t e = Hashtbl.mem t.aborted e

  let wrong_epoch t = Wrong_epoch { epoch = t.epoch; map = t.map }

  let phase t =
    match (t.frozen, t.installed) with
    | Some _, _ -> "frozen"
    | None, Some _ -> "installing"
    | None, None -> "idle"

  (* The committed FREEZE locks the moving range; the committed COMMIT
     activates the successor map, converting the source's frozen range
     into a moved one and dissolving the target's pending install; a
     committed ABORT tombstones the epoch so a racing late COMMIT for it
     loses identically everywhere. *)
  let track t (requests : request list) =
    List.iter
      (fun (r : request) ->
        match r.rtype with
        | Reshard_freeze e -> (
          if e > t.epoch && (not (aborted t e)) && t.frozen = None then
            match Reshard_wire.decode_freeze r.payload with
            | { f_lo; f_hi; f_target } -> t.frozen <- Some (e, f_lo, f_hi, f_target)
            | exception _ -> ())
        | Reshard_install e -> (
          if e > t.epoch && not (aborted t e) then
            match Reshard_wire.decode_install r.payload with
            | { i_lo; i_hi; i_count; _ } -> t.installed <- Some (e, i_lo, i_hi, i_count)
            | exception _ -> ())
        | Reshard_commit e when e > t.epoch ->
          (match t.frozen with
          | Some (e', lo, hi, _) when e' = e ->
            (* Source side: the handed-away range only becomes
               unroutable here, at the commit point — not at freeze
               time, so an aborted migration simply thaws. *)
            t.moved <- (lo, hi) :: t.moved;
            t.frozen <- None
          | _ -> ());
          (match t.installed with
          | Some (e', lo, hi, count) when e' = e ->
            (* Target side: only now may the imported range be served.
               If an earlier split had moved any part of this range out,
               the commit restores ownership — by interval subtraction,
               since the two transitions need not share cut points (a
               merge can bring back a wider range than the split that
               left). *)
            t.moved <- Reshard_wire.range_subtract t.moved ~lo ~hi;
            t.imported <- t.imported + count;
            t.installed <- None
          | _ -> ());
          t.epoch <- e;
          t.map <- r.payload
        | Reshard_abort e ->
          Hashtbl.replace t.aborted e ();
          (match t.frozen with
          | Some (e', _, _, _) when e' = e -> t.frozen <- None
          | _ -> ());
          (match t.installed with
          | Some (e', _, _, _) when e' = e -> t.installed <- None
          | _ -> ())
        | _ -> ())
      requests;
    prune_tombstones t.aborted

  (* Ranges handed away answer [Wrong_epoch]; the range a committed
     FREEZE is moving parks writers until the decision resolves it. *)
  let locks t =
    List.map (fun r -> (Footprint.Moved, Footprint.Range r)) t.moved
    @
    match t.frozen with
    | Some (_, lo, hi, _) -> [ (Footprint.Frozen, Footprint.Range (lo, hi)) ]
    | None -> []

  let encode t =
    Reshard_wire.encode_participant
      {
        p_epoch = t.epoch;
        p_map = t.map;
        p_frozen = t.frozen;
        p_installed = t.installed;
        p_moved = t.moved;
        p_aborted = Hashtbl.fold (fun e () acc -> e :: acc) t.aborted [];
        p_imported = t.imported;
      }

  let install t s =
    match Reshard_wire.decode_participant s with
    | p ->
      t.epoch <- p.p_epoch;
      t.map <- p.p_map;
      t.frozen <- p.p_frozen;
      t.installed <- p.p_installed;
      t.moved <- p.p_moved;
      Hashtbl.reset t.aborted;
      List.iter (fun e -> Hashtbl.replace t.aborted e ()) p.p_aborted;
      t.imported <- p.p_imported
    | exception _ -> ()
end
