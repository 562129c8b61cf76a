(* Elastic resharding tests (DESIGN.md §17): deterministic engine-level
   scripts for the migration protocol — the happy split path with
   snapshot handoff, the Wrong_epoch client redirect against a stale
   router, coordinator abandonment on both sides of the commit point,
   duplicate map-commit delivery, the pinned-transaction-across-epochs
   regression, merge (both the data-moving and the trivial kind), and
   snapshot catch-up of a target replica that slept through the
   migration. *)

module Config = Grid_paxos.Config
module Runtime = Grid_runtime.Runtime
module Scenario = Grid_runtime.Scenario
module Partition = Grid_shard.Partition
module Reshard = Grid_shard.Reshard
module Kv = Grid_services.Kv_store
module M = Grid_shard.Multi.Make (Kv)
open Grid_paxos.Types

let pp_rresult ppf = function
  | M.R_committed -> Format.pp_print_string ppf "committed"
  | M.R_aborted r -> Format.fprintf ppf "aborted: %s" r

(* Three groups over explicit cut points in footprint space
   ("kv/" ^ key): shard 0 owns [-inf, "kv/h"), shard 1 ["kv/h", "kv/p"),
   shard 2 ["kv/p", +inf). The tests below split shard 0 at "kv/f",
   moving ["kv/f", "kv/h") — e.g. key "g1" — to shard 1. *)
let cuts = [ "kv/h"; "kv/p" ]
let cut = "kv/f"

let mk_cluster ?(seed = 9) () =
  let t =
    M.create ~seed
      ~cfg:
        (Config.make ~n:3 ~record_history:true ~suspicion_ms:60.0
           ~stability_ms:20.0 ())
      ~scenario:(Scenario.uniform ()) ~route:Kv.route
      ~spec:(Partition.Range cuts) ~shards:3 ()
  in
  (match M.await_leaders t with
  | Some _ -> ()
  | None -> Alcotest.fail "leaders not elected");
  t

let settle ?(ms = 500.0) t = M.run_until t (M.now t +. ms)

let wait ?(what = "condition") t cond =
  let deadline = M.now t +. 10_000.0 in
  while (not (cond ())) && M.now t < deadline do
    M.run_until t (M.now t +. 10.0)
  done;
  if not (cond ()) then Alcotest.fail ("timed out waiting for " ^ what)

let leader_of t g =
  match M.Group.leader (M.group t g) with
  | Some l -> M.Group.replica (M.group t g) l
  | None -> Alcotest.fail (Printf.sprintf "group %d has no leader" g)

let value_at t g key = Kv.find (M.Group.R.state (leader_of t g)) key

let submit_ok what = function
  | `Submitted -> ()
  | `Busy -> Alcotest.fail (what ^ ": handle busy")

(* A client whose replies land in a list, newest first. *)
let spy_client t ~id =
  let replies = ref [] in
  let cl = M.add_client t ~id ~on_reply:(fun r -> replies := r :: !replies) () in
  (cl, replies)

let put t cl ~key ~value =
  match M.try_submit_op t cl (Kv.Put { key; value }) with
  | Ok s -> s
  | Error e -> Alcotest.failf "put %s: %a" key M.pp_submit_error e

let write_and_wait t cl replies ~key ~value =
  let before = List.length !replies in
  let s = put t cl ~key ~value in
  wait ~what:("write " ^ key) t (fun () -> List.length !replies > before);
  (s, (List.hd !replies).status)

(* ------------------------------------------------------------------ *)
(* Happy path: live split with snapshot handoff. *)

let test_split_happy_path () =
  let t = mk_cluster () in
  let cl, replies = spy_client t ~id:0 in
  ignore (write_and_wait t cl replies ~key:"g1" ~value:"before");
  ignore (write_and_wait t cl replies ~key:"d1" ~value:"stays");
  Alcotest.(check int) "moving key starts at shard 0" 0
    (Partition.owner_of_key (M.partition t) "kv/g1");
  let coord = M.add_client t ~id:1 () in
  let result = ref None in
  (match
     M.split_shard t coord ~cut ~target:1 ~on_done:(fun r -> result := Some r)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "split plan: %a" Partition.pp_reshard_error e);
  wait ~what:"split" t (fun () -> !result <> None);
  (match !result with
  | Some M.R_committed -> ()
  | Some r -> Alcotest.failf "split: %a" pp_rresult r
  | None -> assert false);
  (* The router adopted the successor map at the source's commit. *)
  Alcotest.(check int) "map epoch advanced" 1 (Partition.epoch (M.partition t));
  Alcotest.(check int) "moving key now owned by shard 1" 1
    (Partition.owner_of_key (M.partition t) "kv/g1");
  settle t;
  (* Participant state on both sides. *)
  let src = leader_of t 0 and tgt = leader_of t 1 in
  Alcotest.(check string) "source idle again" "idle"
    (M.Group.R.reshard_phase src);
  Alcotest.(check int) "source committed the epoch" 1
    (M.Group.R.reshard_epoch src);
  Alcotest.(check int) "source tracks one moved range" 1
    (M.Group.R.moved_ranges src);
  Alcotest.(check int) "target committed the epoch" 1
    (M.Group.R.reshard_epoch tgt);
  Alcotest.(check int) "target imported the slice" 1
    (M.Group.R.imported_items tgt);
  (* Snapshot handoff: the pre-split write is already at the target. *)
  Alcotest.(check (option string)) "moved key served by target"
    (Some "before") (value_at t 1 "g1");
  (* New writes route to the new owner. *)
  let s, st = write_and_wait t cl replies ~key:"g1" ~value:"after" in
  Alcotest.(check int) "write routed to shard 1" 1 s;
  Alcotest.(check bool) "write accepted" true (st = Ok);
  settle t;
  Alcotest.(check (option string)) "target applied the write" (Some "after")
    (value_at t 1 "g1");
  Alcotest.(check (option string)) "non-moving key still at source"
    (Some "stays") (value_at t 0 "d1")

(* ------------------------------------------------------------------ *)
(* A stale router: the migration completes behind the router's back
   (raw submissions), then a plain write redirects transparently. *)

let plan_of t =
  match Reshard.split (M.partition t) ~cut ~target:1 with
  | Ok (Reshard.Move p) -> p
  | Ok (Reshard.Trivial _) -> Alcotest.fail "split cannot be trivial"
  | Error e -> Alcotest.failf "plan: %a" Partition.pp_reshard_error e

let test_wrong_epoch_redirect () =
  let t = mk_cluster () in
  let cl, replies = spy_client t ~id:0 in
  ignore (write_and_wait t cl replies ~key:"g1" ~value:"v0");
  let p = plan_of t in
  let e = p.Reshard.pl_epoch in
  (* Drive the whole migration manually; M.partition t stays at epoch 0. *)
  let drv, drv_replies = spy_client t ~id:1 in
  let step what ~shard rt ~payload =
    let before = List.length !drv_replies in
    submit_ok what (M.submit_reshard t drv ~shard rt ~payload);
    wait ~what t (fun () -> List.length !drv_replies > before);
    (List.hd !drv_replies).status
  in
  Alcotest.(check bool) "freeze Ok" true
    (step "freeze" ~shard:0 (Reshard_freeze e) ~payload:p.Reshard.pl_freeze = Ok);
  let count, blob =
    match
      Kv.export_range
        (M.Group.R.state (leader_of t 0))
        ~lo:p.Reshard.pl_move.Partition.mv_lo
        ~hi:p.Reshard.pl_move.Partition.mv_hi
    with
    | Some (c, b) -> (c, b)
    | None -> Alcotest.fail "export refused"
  in
  Alcotest.(check int) "export found the key" 1 count;
  Alcotest.(check bool) "install Ok" true
    (step "install" ~shard:1 (Reshard_install e)
       ~payload:(Reshard.install_payload p ~count ~blob)
    = Ok);
  Alcotest.(check bool) "commit(source) Ok" true
    (step "commit-src" ~shard:0 (Reshard_commit e) ~payload:p.Reshard.pl_commit
    = Ok);
  Alcotest.(check bool) "commit(target) Ok" true
    (step "commit-tgt" ~shard:1 (Reshard_commit e) ~payload:p.Reshard.pl_commit
    = Ok);
  Alcotest.(check int) "router map still stale" 0
    (Partition.epoch (M.partition t));
  (* The stale router sends the write to shard 0; the source answers
     Wrong_epoch with the committed map; the wrapper adopts it and
     resubmits to shard 1 — the caller sees one Ok reply. *)
  let s, st = write_and_wait t cl replies ~key:"g1" ~value:"v1" in
  Alcotest.(check int) "initial routing used the stale map" 0 s;
  Alcotest.(check bool) "caller saw a plain Ok" true (st = Ok);
  Alcotest.(check int) "one transparent redirect" 1 (M.redirect_count cl);
  Alcotest.(check int) "router adopted the committed map" 1
    (Partition.epoch (M.partition t));
  settle t;
  Alcotest.(check (option string)) "write landed at the new owner"
    (Some "v1") (value_at t 1 "g1")

(* ------------------------------------------------------------------ *)
(* Coordinator dies after FREEZE (before the commit point): writes to
   the frozen range block, presumed-abort recovery rolls the freeze
   back and releases them, and a retried split skips the burned epoch. *)

let test_coordinator_crash_after_freeze () =
  let t = mk_cluster () in
  let p = plan_of t in
  let e = p.Reshard.pl_epoch in
  let drv, drv_replies = spy_client t ~id:0 in
  submit_ok "freeze"
    (M.submit_reshard t drv ~shard:0 (Reshard_freeze e)
       ~payload:p.Reshard.pl_freeze);
  wait ~what:"freeze" t (fun () -> !drv_replies <> []);
  Alcotest.(check string) "source frozen" "frozen"
    (M.Group.R.reshard_phase (leader_of t 0));
  (* A write into the frozen range holds. *)
  let wcl, wreplies = spy_client t ~id:1 in
  ignore (put t wcl ~key:"g1" ~value:"W");
  settle t ~ms:300.0;
  Alcotest.(check bool) "write blocked behind the freeze" true
    (!wreplies = []);
  (* ...and the coordinator is gone. A fresh client resolves: nothing
     committed, so the abort wins. *)
  let rcl = M.add_client t ~id:2 () in
  let rresult = ref None in
  M.recover_reshard t rcl ~epoch:e ~source:0 ~target:1 ~on_done:(fun r ->
      rresult := Some r);
  wait ~what:"recovery" t (fun () -> !rresult <> None);
  (match !rresult with
  | Some (M.R_aborted _) -> ()
  | Some M.R_committed -> Alcotest.fail "recovery must abort an uncommitted migration"
  | None -> assert false);
  (* The blocked write was released and ran against the unchanged map. *)
  wait ~what:"released write" t (fun () -> !wreplies <> []);
  Alcotest.(check bool) "released write succeeded" true
    ((List.hd !wreplies).status = Ok);
  settle t;
  Alcotest.(check string) "freeze rolled back" "idle"
    (M.Group.R.reshard_phase (leader_of t 0));
  Alcotest.(check int) "no epoch committed" 0
    (M.Group.R.reshard_epoch (leader_of t 0));
  Alcotest.(check (option string)) "write applied at the source" (Some "W")
    (value_at t 0 "g1");
  (* Retry: the aborted attempt burned epoch [e]; the coordinator must
     skip past the tombstone and still succeed. *)
  let coord = M.add_client t ~id:3 () in
  let result = ref None in
  (match
     M.split_shard t coord ~cut ~target:1 ~on_done:(fun r -> result := Some r)
   with
  | Ok () -> ()
  | Error err -> Alcotest.failf "retry plan: %a" Partition.pp_reshard_error err);
  wait ~what:"retried split" t (fun () -> !result <> None);
  (match !result with
  | Some M.R_committed -> ()
  | Some r -> Alcotest.failf "retried split: %a" pp_rresult r
  | None -> assert false);
  Alcotest.(check bool) "retry used a fresh epoch" true
    (Partition.epoch (M.partition t) > e);
  settle t;
  Alcotest.(check (option string)) "moved key carried to target" (Some "W")
    (value_at t 1 "g1")

(* ------------------------------------------------------------------ *)
(* Coordinator dies after COMMIT(source) — past the commit point:
   recovery must finish the commit at the target, not abort. *)

let test_recovery_finds_commit () =
  let t = mk_cluster () in
  let cl, replies = spy_client t ~id:0 in
  ignore (write_and_wait t cl replies ~key:"g1" ~value:"kept");
  let p = plan_of t in
  let e = p.Reshard.pl_epoch in
  let drv, drv_replies = spy_client t ~id:1 in
  let step what ~shard rt ~payload =
    let before = List.length !drv_replies in
    submit_ok what (M.submit_reshard t drv ~shard rt ~payload);
    wait ~what t (fun () -> List.length !drv_replies > before)
  in
  step "freeze" ~shard:0 (Reshard_freeze e) ~payload:p.Reshard.pl_freeze;
  let count, blob =
    match
      Kv.export_range
        (M.Group.R.state (leader_of t 0))
        ~lo:p.Reshard.pl_move.Partition.mv_lo
        ~hi:p.Reshard.pl_move.Partition.mv_hi
    with
    | Some (c, b) -> (c, b)
    | None -> Alcotest.fail "export refused"
  in
  step "install" ~shard:1 (Reshard_install e)
    ~payload:(Reshard.install_payload p ~count ~blob);
  step "commit-src" ~shard:0 (Reshard_commit e) ~payload:p.Reshard.pl_commit;
  (* Commit point passed; the coordinator is abandoned here. *)
  let rcl = M.add_client t ~id:2 () in
  let rresult = ref None in
  M.recover_reshard t rcl ~epoch:e ~source:0 ~target:1 ~on_done:(fun r ->
      rresult := Some r);
  wait ~what:"recovery" t (fun () -> !rresult <> None);
  (match !rresult with
  | Some M.R_committed -> ()
  | Some (M.R_aborted why) ->
    Alcotest.failf "recovery aborted a committed migration: %s" why
  | None -> assert false);
  Alcotest.(check int) "recovery adopted the committed map" 1
    (Partition.epoch (M.partition t));
  settle t;
  Alcotest.(check int) "target finished the commit" e
    (M.Group.R.reshard_epoch (leader_of t 1));
  Alcotest.(check (option string)) "moved key served by target"
    (Some "kept") (value_at t 1 "g1")

(* ------------------------------------------------------------------ *)
(* Duplicate map-commit delivery: epoch tombstones answer Ok without
   re-moving anything. *)

let test_duplicate_commit_delivery () =
  let t = mk_cluster () in
  let coord = M.add_client t ~id:0 () in
  let result = ref None in
  (match
     M.split_shard t coord ~cut ~target:1 ~on_done:(fun r -> result := Some r)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "split plan: %a" Partition.pp_reshard_error e);
  wait ~what:"split" t (fun () -> !result <> None);
  settle t;
  let e = Partition.epoch (M.partition t) in
  let moved0 = M.Group.R.moved_ranges (leader_of t 0) in
  let imported1 = M.Group.R.imported_items (leader_of t 1) in
  let payload = Partition.encode (M.partition t) in
  let dup, dups = spy_client t ~id:1 in
  let redeliver ~shard =
    let before = List.length !dups in
    submit_ok "dup commit" (M.submit_reshard t dup ~shard (Reshard_commit e) ~payload);
    wait ~what:"dup commit" t (fun () -> List.length !dups > before);
    (List.hd !dups).status
  in
  Alcotest.(check bool) "source answers the duplicate Ok" true
    (redeliver ~shard:0 = Ok);
  Alcotest.(check bool) "target answers the duplicate Ok" true
    (redeliver ~shard:1 = Ok);
  settle t;
  Alcotest.(check int) "no extra range moved" moved0
    (M.Group.R.moved_ranges (leader_of t 0));
  Alcotest.(check int) "nothing re-imported" imported1
    (M.Group.R.imported_items (leader_of t 1));
  Alcotest.(check int) "epoch unchanged" e (Partition.epoch (M.partition t))

(* ------------------------------------------------------------------ *)
(* Regression: a transaction pinned to a shard that splits mid-flight
   must never have its halves routed to different epochs. Its commit
   follows the pin and either completes against the old owner (keys
   stayed) or surfaces a typed Wrong_epoch (keys moved). *)

let test_pinned_txn_across_split () =
  let t = mk_cluster () in
  let cl, replies = spy_client t ~id:0 in
  let submit what it =
    match M.try_submit_item t cl it with
    | Ok s -> s
    | Error e -> Alcotest.failf "%s: %a" what M.pp_submit_error e
  in
  let await what before =
    wait ~what t (fun () -> List.length !replies > before);
    (List.hd !replies).status
  in
  (* Txn 1 touches the moving range; txn 2 does not. Open both before
     the split. *)
  let s1 =
    submit "txn1 op" (Runtime.In_txn (1, Kv.Put { key = "g1"; value = "T1" }))
  in
  ignore (await "txn1 op" 0);
  let s2 =
    submit "txn2 op" (Runtime.In_txn (2, Kv.Put { key = "d1"; value = "T2" }))
  in
  ignore (await "txn2 op" 1);
  Alcotest.(check int) "both pinned to shard 0" 0 (max s1 s2);
  Alcotest.(check int) "two pins held" 2 (M.pinned_txns cl);
  (* Split commits while the transactions are open. *)
  let coord = M.add_client t ~id:1 () in
  let result = ref None in
  (match
     M.split_shard t coord ~cut ~target:1 ~on_done:(fun r -> result := Some r)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "split plan: %a" Partition.pp_reshard_error e);
  wait ~what:"split" t (fun () -> !result = Some M.R_committed);
  (* Txn 1: its key moved away. The commit follows the pin to shard 0
     and comes back as a typed Wrong_epoch — not a partial commit, not
     a silent reroute. *)
  let before = List.length !replies in
  let s = submit "txn1 commit" (Runtime.Commit_txn { tid = 1; ops = 1 }) in
  Alcotest.(check int) "commit followed the pin" 0 s;
  (match await "txn1 commit" before with
  | Wrong_epoch { epoch; _ } -> Alcotest.(check int) "redirect names the epoch" 1 epoch
  | st -> Alcotest.failf "expected Wrong_epoch, got %a" pp_status st);
  settle t;
  Alcotest.(check (option string)) "txn1 never applied at the source" None
    (value_at t 0 "g1");
  Alcotest.(check (option string)) "txn1 never applied at the target" None
    (value_at t 1 "g1");
  (* Txn 2: its key stayed. The commit follows the pin and completes
     against the old epoch. *)
  let before = List.length !replies in
  let s = submit "txn2 commit" (Runtime.Commit_txn { tid = 2; ops = 1 }) in
  Alcotest.(check int) "commit followed the pin" 0 s;
  Alcotest.(check bool) "txn2 committed" true (await "txn2 commit" before = Ok);
  settle t;
  Alcotest.(check (option string)) "txn2 applied" (Some "T2")
    (value_at t 0 "d1");
  Alcotest.(check int) "pins released" 0 (M.pinned_txns cl)

(* ------------------------------------------------------------------ *)
(* Merge: the inverse move carries the data back, and a merge whose two
   sides already share an owner is a pure epoch bump. *)

let test_merge_paths () =
  let t = mk_cluster () in
  let cl, replies = spy_client t ~id:0 in
  ignore (write_and_wait t cl replies ~key:"g1" ~value:"ping");
  let coord = M.add_client t ~id:1 () in
  let run what
      (go :
        on_done:(M.rresult -> unit) ->
        (unit, Partition.reshard_error) result) =
    let result = ref None in
    (match go ~on_done:(fun r -> result := Some r) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s plan: %a" what Partition.pp_reshard_error e);
    wait ~what t (fun () -> !result <> None);
    match !result with
    | Some M.R_committed -> ()
    | Some r -> Alcotest.failf "%s: %a" what pp_rresult r
    | None -> assert false
  in
  run "split" (fun ~on_done -> M.split_shard t coord ~cut ~target:1 ~on_done);
  settle t;
  Alcotest.(check (option string)) "moved out" (Some "ping")
    (value_at t 1 "g1");
  (* Merging at "kv/h" joins ["kv/f","kv/h") and ["kv/h","kv/p") — both
     owned by shard 1 now: a trivial merge, committed synchronously. *)
  let e_before = Partition.epoch (M.partition t) in
  let fired = ref false in
  (match M.merge_shards t coord ~cut:"kv/h" ~on_done:(fun r ->
       fired := true;
       match r with
       | M.R_committed -> ()
       | r -> Alcotest.failf "trivial merge: %a" pp_rresult r)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trivial merge plan: %a" Partition.pp_reshard_error e);
  Alcotest.(check bool) "trivial merge completes synchronously" true !fired;
  Alcotest.(check bool) "trivial merge still advances the epoch" true
    (Partition.epoch (M.partition t) > e_before);
  (* Merging at the original cut moves ["kv/f","kv/p") back to shard 0 —
     including keys that always lived on shard 1, e.g. "m1". *)
  ignore (write_and_wait t cl replies ~key:"m1" ~value:"pong");
  run "merge" (fun ~on_done -> M.merge_shards t coord ~cut ~on_done);
  settle t;
  Alcotest.(check int) "keys back at shard 0" 0
    (Partition.owner_of_key (M.partition t) "kv/g1");
  Alcotest.(check (option string)) "moved-back key served by shard 0"
    (Some "ping") (value_at t 0 "g1");
  Alcotest.(check (option string)) "absorbed key served by shard 0"
    (Some "pong") (value_at t 0 "m1");
  let s, st = write_and_wait t cl replies ~key:"g1" ~value:"home" in
  Alcotest.(check int) "writes route home" 0 s;
  Alcotest.(check bool) "write accepted" true (st = Ok)

(* ------------------------------------------------------------------ *)
(* Catch-up: a target replica that slept through the migration adopts
   the imported slice from the shipped snapshot, not from a second
   transfer. *)

let test_lagging_target_catches_up () =
  let t = mk_cluster () in
  let cl, replies = spy_client t ~id:0 in
  ignore (write_and_wait t cl replies ~key:"g1" ~value:"carried");
  (* Crash a follower of the target group for the whole migration. *)
  let sleeper =
    match M.Group.leader (M.group t 1) with
    | Some l -> (l + 1) mod 3
    | None -> Alcotest.fail "group 1 has no leader"
  in
  M.crash_replica t ~shard:1 sleeper;
  let coord = M.add_client t ~id:1 () in
  let result = ref None in
  (match
     M.split_shard t coord ~cut ~target:1 ~on_done:(fun r -> result := Some r)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "split plan: %a" Partition.pp_reshard_error e);
  wait ~what:"split" t (fun () -> !result = Some M.R_committed);
  settle t;
  M.recover_replica t ~shard:1 sleeper;
  let r = M.Group.replica (M.group t 1) sleeper in
  wait ~what:"catch-up" t (fun () ->
      M.Group.R.reshard_epoch r = 1
      && Kv.find (M.Group.R.state r) "g1" = Some "carried");
  Alcotest.(check string) "recovered replica is idle" "idle"
    (M.Group.R.reshard_phase r)

(* ------------------------------------------------------------------ *)
(* A FREEZE overlapping a prepared 2PC footprint must be refused: the
   branch's writes only apply at its COMMIT decision, so shipping the
   slice under the lock would silently lose them at the new owner. *)

let test_freeze_refused_under_prepared_lock () =
  let t = mk_cluster () in
  let tid = M.alloc_cross_tid t in
  let cl, replies = spy_client t ~id:1 in
  (* Stage a branch op on a moving-range key and prepare it, leaving
     the decision open — a lock the migration must respect. *)
  submit_ok "txn op"
    (M.submit_txn_op t cl ~shard:0 ~tid (Kv.Append { key = "g1"; value = "x" }));
  wait ~what:"txn op reply" t (fun () -> List.length !replies >= 1);
  submit_ok "prepare" (M.submit_prepare t cl ~shard:0 ~tid ~ops:1);
  wait ~what:"prepare vote" t (fun () -> List.length !replies >= 2);
  (match (List.hd !replies).status with
  | Ok -> ()
  | s -> Alcotest.failf "prepare vote: %a" pp_status s);
  let coord = M.add_client t ~id:2 () in
  let result = ref None in
  (match
     M.split_shard t coord ~cut ~target:1 ~on_done:(fun r -> result := Some r)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "split plan: %a" Partition.pp_reshard_error e);
  wait ~what:"split outcome" t (fun () -> !result <> None);
  (match !result with
  | Some (M.R_aborted _) -> ()
  | Some M.R_committed -> Alcotest.fail "split committed under a prepared lock"
  | None -> assert false);
  Alcotest.(check int) "map unchanged" 0 (Partition.epoch (M.partition t));
  (* Decide the branch; the retried split then commits and the branch's
     write travels with the slice to the new owner. *)
  submit_ok "decision" (M.submit_decision t cl ~shard:0 ~tid ~commit:true);
  wait ~what:"decision reply" t (fun () -> List.length !replies >= 3);
  let result2 = ref None in
  (match
     M.split_shard t coord ~cut ~target:1 ~on_done:(fun r -> result2 := Some r)
   with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "split retry plan: %a" Partition.pp_reshard_error e);
  wait ~what:"split retry outcome" t (fun () -> !result2 <> None);
  (match !result2 with
  | Some M.R_committed -> ()
  | Some (M.R_aborted reason) -> Alcotest.failf "split retry aborted: %s" reason
  | None -> assert false);
  settle t;
  Alcotest.(check (option string))
    "txn write at new owner" (Some "x") (value_at t 1 "g1")

let suite =
  [
    ( "reshard.protocol",
      [
        Alcotest.test_case "live split with snapshot handoff" `Quick
          test_split_happy_path;
        Alcotest.test_case "stale router redirects transparently" `Quick
          test_wrong_epoch_redirect;
        Alcotest.test_case "coordinator crash after freeze aborts and retries"
          `Quick test_coordinator_crash_after_freeze;
        Alcotest.test_case "recovery finishes a committed migration" `Quick
          test_recovery_finds_commit;
        Alcotest.test_case "duplicate map-commit delivery is idempotent" `Quick
          test_duplicate_commit_delivery;
        Alcotest.test_case "pinned transaction never straddles epochs" `Quick
          test_pinned_txn_across_split;
        Alcotest.test_case "merge moves data back; same-owner merge is trivial"
          `Quick test_merge_paths;
        Alcotest.test_case "lagging target replica catches up via snapshot"
          `Quick test_lagging_target_catches_up;
        Alcotest.test_case "freeze refused while a 2PC branch is prepared"
          `Quick test_freeze_refused_under_prepared_lock;
      ] );
  ]
