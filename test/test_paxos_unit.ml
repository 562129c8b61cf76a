(* Unit tests for the paxos building blocks: ballots, message codecs,
   the replica log, stable storage, snapshots and configuration. *)

module Types = Grid_paxos.Types
module Ballot = Grid_paxos.Types.Ballot
module Plog = Grid_paxos.Plog
module Storage = Grid_paxos.Storage
module Snapshot = Grid_paxos.Snapshot
module Config = Grid_paxos.Config
module Wire = Grid_codec.Wire
module Ids = Grid_util.Ids

let mk_req ?(client = 1) ?(seq = 1) ?(rtype = Types.Write) ?(payload = "p") () : Types.request =
  { id = Ids.Request_id.make ~client:(Ids.Client_id.of_int client) ~seq; rtype; payload;
    trace = Types.no_trace }

let mk_proposal ?(payload = "p") ?(update = Types.Full "state") () : Types.proposal =
  {
    requests = [ mk_req ~payload () ];
    update;
    replies = [ { req = (mk_req ()).id; status = Types.Ok; payload = "r" } ];
  }

(* ------------------------------------------------------------------ *)
(* Ballots and proposal numbers *)

let test_ballot_order () =
  let b r h = Ballot.make ~round:r ~holder:h in
  Alcotest.(check bool) "round dominates" true (Ballot.compare (b 2 0) (b 1 5) > 0);
  Alcotest.(check bool) "holder breaks ties" true (Ballot.compare (b 1 2) (b 1 1) > 0);
  Alcotest.(check bool) "equal" true (Ballot.equal (b 3 1) (b 3 1));
  Alcotest.(check bool) "zero smallest" true (Ballot.compare Ballot.zero (b 0 0) < 0)

let prop_ballot_total_order =
  QCheck2.Test.make ~name:"ballot order is antisymmetric + transitive-ish" ~count:300
    QCheck2.Gen.(
      triple
        (pair (int_range 0 5) (int_range 0 5))
        (pair (int_range 0 5) (int_range 0 5))
        (pair (int_range 0 5) (int_range 0 5)))
    (fun ((r1, h1), (r2, h2), (r3, h3)) ->
      let a = Ballot.make ~round:r1 ~holder:h1 in
      let b = Ballot.make ~round:r2 ~holder:h2 in
      let c = Ballot.make ~round:r3 ~holder:h3 in
      let antisym = compare (Ballot.compare a b) (-(Ballot.compare b a)) = 0 in
      let trans =
        if Ballot.compare a b <= 0 && Ballot.compare b c <= 0 then
          Ballot.compare a c <= 0
        else true
      in
      antisym && trans)

let test_pnum_lexicographic () =
  let module Pnum = Grid_paxos.Types.Pnum in
  let p b i = Pnum.make ~ballot:(Ballot.make ~round:b ~holder:0) ~instance:i in
  Alcotest.(check bool) "ballot first" true (Pnum.compare (p 2 1) (p 1 99) > 0);
  Alcotest.(check bool) "instance second" true (Pnum.compare (p 1 2) (p 1 1) > 0)

let test_ballot_codec () =
  let b = Ballot.make ~round:42 ~holder:2 in
  let b' = Wire.decode (Wire.encode (fun e -> Ballot.encode e b)) Ballot.decode in
  Alcotest.(check bool) "roundtrip" true (Ballot.equal b b')

(* ------------------------------------------------------------------ *)
(* Message-component codecs *)

let gen_rtype =
  QCheck2.Gen.(
    oneof
      [
        return Types.Read;
        return Types.Write;
        return Types.Original;
        map (fun t -> Types.Txn_op t) (int_range 0 100);
        map (fun t -> Types.Txn_commit t) (int_range 0 100);
        map (fun t -> Types.Txn_abort t) (int_range 0 100);
      ])

let gen_request =
  QCheck2.Gen.(
    map
      (fun (client, seq, rtype, payload) ->
        ({ id = Ids.Request_id.make ~client:(Ids.Client_id.of_int client) ~seq;
           rtype;
           payload;
           trace = Types.no_trace }
          : Types.request))
      (quad (int_range 0 1000) (int_range 0 100000) gen_rtype string))

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"request codec roundtrip" ~count:300 gen_request (fun r ->
      let r' =
        Wire.decode (Wire.encode (fun e -> Types.encode_request e r)) Types.decode_request
      in
      Ids.Request_id.equal r.id r'.id && r.rtype = r'.rtype && r.payload = r'.payload)

let gen_status = QCheck2.Gen.oneofl [ Types.Ok; Types.Txn_aborted; Types.Txn_conflict ]

let gen_reply =
  QCheck2.Gen.(
    map
      (fun (client, seq, status, payload) ->
        ({ req = Ids.Request_id.make ~client:(Ids.Client_id.of_int client) ~seq;
           status;
           payload }
          : Types.reply))
      (quad (int_range 0 1000) (int_range 0 100000) gen_status string))

let prop_reply_roundtrip =
  QCheck2.Test.make ~name:"reply codec roundtrip" ~count:300 gen_reply (fun r ->
      let r' = Wire.decode (Wire.encode (fun e -> Types.encode_reply e r)) Types.decode_reply in
      r = r')

let gen_update =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> Types.Full s) string;
        map (fun s -> Types.Delta s) string;
        map (fun s -> Types.Witness s) string;
      ])

let prop_proposal_roundtrip =
  QCheck2.Test.make ~name:"proposal codec roundtrip" ~count:300
    QCheck2.Gen.(triple (list_size (int_range 0 5) gen_request) gen_update
                   (list_size (int_range 0 5) gen_reply))
    (fun (requests, update, replies) ->
      let p : Types.proposal = { requests; update; replies } in
      let p' =
        Wire.decode (Wire.encode (fun e -> Types.encode_proposal e p)) Types.decode_proposal
      in
      p = p')

(* The simulator's bandwidth model charges an Accept for the bytes of
   the state it ships. *)
let test_update_size () =
  let accept update =
    Types.msg_size
      (Types.Accept
         { ballot = Ballot.zero; instance = 1;
           proposal = { requests = []; update; replies = [] } })
  in
  Alcotest.(check int) "size" 5 (accept (Types.Full "12345") - accept (Types.Full ""));
  Alcotest.(check int) "delta size" 3 (accept (Types.Delta "abc") - accept (Types.Delta ""))

let test_client_node_mapping () =
  let c = Ids.Client_id.of_int 17 in
  let node = Types.client_node c in
  Alcotest.(check bool) "is client node" true (Types.node_is_client node);
  Alcotest.(check bool) "replica node is not" false (Types.node_is_client 2);
  Alcotest.(check bool) "distinct clients, distinct nodes" true
    (Types.client_node (Ids.Client_id.of_int 18) <> node)

(* ------------------------------------------------------------------ *)
(* Plog *)

let ballot r = Ballot.make ~round:r ~holder:0

let test_plog_accept_commit () =
  let log = Plog.create () in
  Alcotest.(check int) "initial cp" 0 (Plog.commit_point log);
  Alcotest.(check bool) "accept 1" true (Plog.accept log ~instance:1 ~ballot:(ballot 1) (mk_proposal ()));
  Alcotest.(check bool) "accept 2" true (Plog.accept log ~instance:2 ~ballot:(ballot 1) (mk_proposal ()));
  Alcotest.(check int) "both accepted" 2 (List.length (Plog.accepted_above log 0));
  Alcotest.(check bool) "commit 1" true (Plog.commit log ~instance:1);
  Alcotest.(check int) "cp 1" 1 (Plog.commit_point log);
  Alcotest.(check bool) "commit unknown" false (Plog.commit log ~instance:5)

let test_plog_commit_contiguity () =
  let log = Plog.create () in
  for i = 1 to 4 do
    ignore (Plog.accept log ~instance:i ~ballot:(ballot 1) (mk_proposal ()))
  done;
  ignore (Plog.commit log ~instance:3);
  Alcotest.(check int) "cp stalls before gap" 0 (Plog.commit_point log);
  ignore (Plog.commit log ~instance:1);
  Alcotest.(check int) "cp 1" 1 (Plog.commit_point log);
  ignore (Plog.commit log ~instance:2);
  Alcotest.(check int) "cp jumps over pre-committed 3" 3 (Plog.commit_point log)

let test_plog_ballot_overwrite () =
  let log = Plog.create () in
  ignore (Plog.accept log ~instance:1 ~ballot:(ballot 2) (mk_proposal ~payload:"high" ()));
  Alcotest.(check bool) "lower ballot rejected" false
    (Plog.accept log ~instance:1 ~ballot:(ballot 1) (mk_proposal ~payload:"low" ()));
  Alcotest.(check bool) "higher ballot accepted" true
    (Plog.accept log ~instance:1 ~ballot:(ballot 3) (mk_proposal ~payload:"higher" ()));
  (match Plog.get log 1 with
  | Some e ->
    Alcotest.(check string) "latest proposal wins" "higher"
      (List.hd e.proposal.requests).payload
  | None -> Alcotest.fail "entry missing");
  ignore (Plog.commit log ~instance:1);
  Alcotest.(check bool) "committed entry never overwritten" false
    (Plog.accept log ~instance:1 ~ballot:(ballot 9) (mk_proposal ()))

let test_plog_accepted_above () =
  let log = Plog.create () in
  for i = 1 to 5 do
    ignore (Plog.accept log ~instance:i ~ballot:(ballot 1) (mk_proposal ()))
  done;
  ignore (Plog.commit log ~instance:1);
  ignore (Plog.commit log ~instance:2);
  let above = Plog.accepted_above log 2 in
  Alcotest.(check (list int)) "instances above 2" [ 3; 4; 5 ]
    (List.map (fun (e : Types.recovery_entry) -> e.instance) above)

let test_plog_prune () =
  let log = Plog.create () in
  for i = 1 to 3 do
    ignore (Plog.accept log ~instance:i ~ballot:(ballot 1)
              (mk_proposal ~update:(Types.Full "big state") ()));
    ignore (Plog.commit log ~instance:i)
  done;
  Plog.prune_below log 2;
  (match Plog.get log 1 with
  | Some e ->
    Alcotest.(check bool) "pruned flag" true e.pruned;
    Alcotest.(check bool) "state dropped" true (e.proposal.update = Types.Full "");
    Alcotest.(check int) "requests kept" 1 (List.length e.proposal.requests)
  | None -> Alcotest.fail "entry 1 missing");
  (match Plog.get log 3 with
  | Some e -> Alcotest.(check bool) "3 not pruned" false e.pruned
  | None -> Alcotest.fail "entry 3 missing");
  Alcotest.(check (list int)) "pruned entries not in accepted_above" [ 3 ]
    (List.map
       (fun (e : Types.recovery_entry) -> e.instance)
       (Plog.accepted_above log 2))

let test_plog_install_commit_point () =
  let log = Plog.create () in
  ignore (Plog.accept log ~instance:1 ~ballot:(ballot 1) (mk_proposal ()));
  Plog.install_commit_point log 10;
  Alcotest.(check int) "cp jumped" 10 (Plog.commit_point log);
  Alcotest.(check bool) "old entries dropped" true (Plog.get log 1 = None);
  Plog.install_commit_point log 5;
  Alcotest.(check int) "never moves backward" 10 (Plog.commit_point log)

let test_plog_committed_requests () =
  let log = Plog.create () in
  ignore (Plog.accept log ~instance:1 ~ballot:(ballot 1) (mk_proposal ~payload:"a" ()));
  ignore (Plog.accept log ~instance:2 ~ballot:(ballot 1) (mk_proposal ~payload:"b" ()));
  ignore (Plog.commit log ~instance:1);
  Alcotest.(check (list string)) "only committed, in order" [ "a" ]
    (List.map (fun (r : Types.request) -> r.payload) (Plog.committed_requests log))

let test_plog_instance_validation () =
  let log = Plog.create () in
  Alcotest.check_raises "instance 0 invalid" (Invalid_argument "Plog.accept: instances start at 1")
    (fun () -> ignore (Plog.accept log ~instance:0 ~ballot:(ballot 1) (mk_proposal ())))

(* ------------------------------------------------------------------ *)
(* Storage *)

let test_storage_memory () =
  let store, read = Storage.memory () in
  store.persist_promise (ballot 3);
  store.persist_entry ~instance:1 ~ballot:(ballot 3) (mk_proposal ());
  store.persist_entry ~instance:2 ~ballot:(ballot 3) (mk_proposal ~payload:"q" ());
  store.persist_commit 1;
  store.persist_commit 0;  (* regressions ignored *)
  store.persist_snapshot "snap";
  let p = read () in
  Alcotest.(check bool) "promise" true (Ballot.equal (ballot 3) p.promised);
  Alcotest.(check int) "entries" 2 (List.length p.entries);
  Alcotest.(check int) "commit point" 1 p.commit_point;
  Alcotest.(check (option string)) "snapshot" (Some "snap") p.snapshot

let with_tmp f =
  let dir = Filename.temp_file "grid_storage" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f (Filename.concat dir "replica0"))

let test_storage_file_roundtrip () =
  with_tmp (fun path ->
      let store, recovered, _ = Storage.file ~path in
      Alcotest.(check bool) "fresh store empty" true (recovered = None);
      store.persist_promise (ballot 5);
      store.persist_entry ~instance:1 ~ballot:(ballot 5) (mk_proposal ~payload:"x" ());
      store.persist_commit 1;
      store.persist_snapshot "snappy";
      (* Reopen. *)
      let _store2, recovered2, _ = Storage.file ~path in
      match recovered2 with
      | None -> Alcotest.fail "expected recovery"
      | Some p ->
        Alcotest.(check bool) "promise" true (Ballot.equal (ballot 5) p.promised);
        Alcotest.(check int) "commit" 1 p.commit_point;
        Alcotest.(check (option string)) "snapshot" (Some "snappy") p.snapshot;
        (match p.entries with
        | [ e ] ->
          Alcotest.(check int) "instance" 1 e.instance;
          Alcotest.(check string) "payload" "x" (List.hd e.proposal.requests).payload
        | _ -> Alcotest.fail "expected one entry"))

let test_storage_file_torn_tail () =
  with_tmp (fun path ->
      let store, _, _ = Storage.file ~path in
      store.persist_promise (ballot 2);
      store.persist_commit 7;
      (* Simulate a torn write: append garbage that parses as a frame
         header but fails the CRC. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (path ^ ".log") in
      output_string oc "\x08\x00\x00\x00garbage!";
      close_out oc;
      let _store2, recovered, _ = Storage.file ~path in
      match recovered with
      | None -> Alcotest.fail "expected recovery despite torn tail"
      | Some p ->
        Alcotest.(check int) "commit survives" 7 p.commit_point;
        Alcotest.(check bool) "promise survives" true (Ballot.equal (ballot 2) p.promised))

let test_storage_file_latest_entry_wins () =
  with_tmp (fun path ->
      let store, _, _ = Storage.file ~path in
      store.persist_entry ~instance:1 ~ballot:(ballot 1) (mk_proposal ~payload:"old" ());
      store.persist_entry ~instance:1 ~ballot:(ballot 2) (mk_proposal ~payload:"new" ());
      let _s, recovered, _ = Storage.file ~path in
      match recovered with
      | Some { entries = [ e ]; _ } ->
        Alcotest.(check string) "latest record wins" "new"
          (List.hd e.proposal.requests).payload
      | _ -> Alcotest.fail "expected single entry")

let test_storage_null () =
  let store = Storage.null () in
  store.persist_promise (ballot 1);
  store.persist_entry ~instance:1 ~ballot:(ballot 1) (mk_proposal ());
  store.persist_commit 1;
  store.persist_snapshot "s"
(* nothing to assert: just must not fail *)

(* Recovery edges: what the report says and what survives when the log
   is torn, bit-flipped, or missing. *)

let log_size path =
  let ic = open_in_bin (path ^ ".log") in
  let n = in_channel_length ic in
  close_in ic;
  n

let xor_byte file off =
  let fd = Unix.openfile file [ Unix.O_RDWR ] 0o644 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

(* Chop 1–64 random trailing bytes off [path ^ ".log"], as a crash mid
   write would. [false] if there was nothing to tear. *)
let tear_log ~path ~rng =
  let log_path = path ^ ".log" in
  if not (Sys.file_exists log_path) then false
  else begin
    let ic = open_in_bin log_path in
    let len = in_channel_length ic in
    let all = really_input_string ic len in
    close_in ic;
    if len < 2 then false
    else begin
      let cut = 1 + Grid_util.Rng.int rng (min len 64) in
      let oc = open_out_bin log_path in
      output_string oc (String.sub all 0 (len - cut));
      close_out oc;
      true
    end
  end

let test_storage_tear_log_recovery () =
  with_tmp (fun path ->
      let store, _, _ = Storage.file ~path in
      store.persist_promise (ballot 4);
      store.persist_commit 3;
      for i = 1 to 4 do
        store.persist_entry ~instance:i ~ballot:(ballot 4)
          (mk_proposal ~payload:"keep" ())
      done;
      let rng = Grid_util.Rng.of_int 11 in
      Alcotest.(check bool) "tear applied" true (tear_log ~path ~rng);
      let _s, recovered, report = Storage.file ~path in
      Alcotest.(check bool) "torn tail flagged" true report.Storage.torn_tail;
      Alcotest.(check bool) "log truncated to valid prefix" true
        report.log_truncated;
      Alcotest.(check bool) "suffix dropped" true (report.bytes_dropped > 0);
      (match recovered with
      | None -> Alcotest.fail "prefix must recover"
      | Some p ->
        Alcotest.(check bool) "promise survives" true
          (Ballot.equal (ballot 4) p.promised);
        Alcotest.(check int) "commit survives" 3 p.commit_point);
      (* The salvage rewrote the file to its valid prefix, so the next
         recovery sees a clean log. *)
      let _s2, _, report2 = Storage.file ~path in
      Alcotest.(check bool) "second recovery clean" false
        (report2.Storage.torn_tail || report2.interior_corruption
       || report2.log_truncated))

let test_storage_interior_corruption () =
  with_tmp (fun path ->
      let store, _, _ = Storage.file ~path in
      store.persist_promise (ballot 9);
      store.persist_commit 2;
      let prefix_len = log_size path in
      store.persist_entry ~instance:3 ~ballot:(ballot 9) (mk_proposal ~payload:"mid" ());
      store.persist_entry ~instance:4 ~ballot:(ballot 9) (mk_proposal ~payload:"last" ());
      (* Flip a bit inside the instance-3 record: its CRC fails while
         valid-looking data (the instance-4 record) sits behind it — the
         untrusted suffix is abandoned, the prefix salvaged. *)
      xor_byte (path ^ ".log") (prefix_len + 6);
      let _s, recovered, report = Storage.file ~path in
      Alcotest.(check bool) "interior corruption flagged" true
        report.Storage.interior_corruption;
      Alcotest.(check bool) "log truncated" true report.log_truncated;
      Alcotest.(check int) "prefix salvaged" prefix_len report.bytes_salvaged;
      Alcotest.(check bool) "suffix abandoned" true (report.bytes_dropped > 0);
      match recovered with
      | None -> Alcotest.fail "prefix must recover"
      | Some p ->
        Alcotest.(check int) "commit survives" 2 p.commit_point;
        (* The lost instances resync from peers at runtime. *)
        Alcotest.(check int) "corrupt-suffix entries gone" 0
          (List.length p.entries))

let test_storage_snapshot_only () =
  with_tmp (fun path ->
      let store, _, _ = Storage.file ~path in
      store.persist_snapshot "snap-only";
      (* Lose the log entirely. *)
      Sys.remove (path ^ ".log");
      let _s, recovered, report = Storage.file ~path in
      Alcotest.(check bool) "snapshot used" true report.Storage.snapshot_used;
      Alcotest.(check bool) "no corruption flagged" false
        (report.torn_tail || report.interior_corruption || report.snapshot_corrupt);
      match recovered with
      | None -> Alcotest.fail "snapshot alone must recover"
      | Some p ->
        Alcotest.(check (option string)) "snapshot body" (Some "snap-only") p.snapshot;
        Alcotest.(check int) "no entries" 0 (List.length p.entries))

let test_storage_snapshot_corrupt () =
  with_tmp (fun path ->
      let store, _, _ = Storage.file ~path in
      store.persist_commit 5;
      store.persist_snapshot "to-be-mangled";
      xor_byte (path ^ ".snap") 2;
      let _s, recovered, report = Storage.file ~path in
      Alcotest.(check bool) "snapshot corruption detected" true
        report.Storage.snapshot_corrupt;
      Alcotest.(check bool) "corrupt snapshot not used" false report.snapshot_used;
      match recovered with
      | None -> Alcotest.fail "log must still recover"
      | Some p ->
        Alcotest.(check (option string)) "fell back to log replay" None p.snapshot;
        Alcotest.(check int) "commit from log" 5 p.commit_point)

let test_storage_faulty_wrapper () =
  let inner, read = Storage.memory () in
  let store, ctl = Storage.faulty ~rng:(Grid_util.Rng.of_int 3) inner in
  (* No rates armed: transparent. *)
  store.persist_promise (ballot 2);
  Alcotest.(check bool) "passthrough" true (Ballot.equal (ballot 2) (read ()).promised);
  (* Armed tear: the persist dies mid-write, the record is lost. *)
  ctl.Storage.tear_rate <- 1.0;
  Alcotest.check_raises "torn persist raises" Storage.Crashed (fun () ->
      store.persist_commit 1);
  Alcotest.(check int) "tear counted" 1 ctl.torn;
  Alcotest.(check int) "record lost" 0 (read ()).commit_point;
  ctl.tear_rate <- 0.0;
  (* Meta-only drops: commit/snapshot records vanish silently, but the
     promise and entry records the durability contract depends on land. *)
  ctl.drop_rate <- 1.0;
  store.persist_commit 4;
  store.persist_snapshot "gone";
  store.persist_entry ~instance:1 ~ballot:(ballot 2) (mk_proposal ());
  store.persist_promise (ballot 3);
  let p = read () in
  Alcotest.(check int) "commit dropped" 0 p.commit_point;
  Alcotest.(check (option string)) "snapshot dropped" None p.snapshot;
  Alcotest.(check int) "entry persisted despite drop dice" 1 (List.length p.entries);
  Alcotest.(check bool) "promise persisted despite drop dice" true
    (Ballot.equal (ballot 3) p.promised);
  Alcotest.(check int) "drops counted" 2 ctl.dropped

(* ------------------------------------------------------------------ *)
(* Snapshot *)

let test_snapshot_roundtrip () =
  let snap =
    {
      Snapshot.commit_point = 12;
      state = "opaque-state";
      dedup =
        [
          (1, { Types.req = Ids.Request_id.make ~client:(Ids.Client_id.of_int 1) ~seq:3;
                status = Types.Ok; payload = "r1" });
          (2, { Types.req = Ids.Request_id.make ~client:(Ids.Client_id.of_int 2) ~seq:9;
                status = Types.Txn_aborted; payload = "" });
        ];
      prepared = [ (1_000_000_007, "opaque-branch") ];
      outcomes = [ (1_000_000_001, true); (1_000_000_002, false) ];
      reshard = "";
    }
  in
  let snap' = Snapshot.decode (Snapshot.encode snap) in
  Alcotest.(check int) "cp" 12 snap'.commit_point;
  Alcotest.(check string) "state" "opaque-state" snap'.state;
  Alcotest.(check int) "dedup size" 2 (List.length snap'.dedup);
  Alcotest.(check int) "prepared size" 1 (List.length snap'.prepared);
  Alcotest.(check bool) "outcomes roundtrip"
    true
    (snap'.outcomes = [ (1_000_000_001, true); (1_000_000_002, false) ])

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_quorum () =
  Alcotest.(check int) "n=1" 1 (Config.quorum (Config.default ~n:1));
  Alcotest.(check int) "n=3" 2 (Config.quorum (Config.default ~n:3));
  Alcotest.(check int) "n=4" 3 (Config.quorum (Config.default ~n:4));
  Alcotest.(check int) "n=5" 3 (Config.quorum (Config.default ~n:5));
  Alcotest.(check int) "n=7" 4 (Config.quorum (Config.default ~n:7))

let test_config_replica_ids () =
  Alcotest.(check (list int)) "ids" [ 0; 1; 2 ] (Config.replica_ids (Config.default ~n:3))

let test_config_validation () =
  Alcotest.check_raises "n=0" (Invalid_argument "Config.default: need at least one replica")
    (fun () -> ignore (Config.default ~n:0))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "paxos.ballot",
      Alcotest.test_case "order" `Quick test_ballot_order
      :: Alcotest.test_case "pnum lexicographic" `Quick test_pnum_lexicographic
      :: Alcotest.test_case "codec" `Quick test_ballot_codec
      :: qcheck [ prop_ballot_total_order ] );
    ( "paxos.codecs",
      Alcotest.test_case "update size" `Quick test_update_size
      :: Alcotest.test_case "client node mapping" `Quick test_client_node_mapping
      :: qcheck [ prop_request_roundtrip; prop_reply_roundtrip; prop_proposal_roundtrip ] );
    ( "paxos.plog",
      [
        Alcotest.test_case "accept/commit" `Quick test_plog_accept_commit;
        Alcotest.test_case "commit contiguity" `Quick test_plog_commit_contiguity;
        Alcotest.test_case "ballot overwrite rules" `Quick test_plog_ballot_overwrite;
        Alcotest.test_case "accepted_above" `Quick test_plog_accepted_above;
        Alcotest.test_case "prune" `Quick test_plog_prune;
        Alcotest.test_case "install commit point" `Quick test_plog_install_commit_point;
        Alcotest.test_case "committed requests" `Quick test_plog_committed_requests;
        Alcotest.test_case "instance validation" `Quick test_plog_instance_validation;
      ] );
    ( "paxos.storage",
      [
        Alcotest.test_case "memory roundtrip" `Quick test_storage_memory;
        Alcotest.test_case "file roundtrip" `Quick test_storage_file_roundtrip;
        Alcotest.test_case "torn tail tolerated" `Quick test_storage_file_torn_tail;
        Alcotest.test_case "latest entry wins" `Quick test_storage_file_latest_entry_wins;
        Alcotest.test_case "null storage" `Quick test_storage_null;
        Alcotest.test_case "tear_log recovery + salvage" `Quick
          test_storage_tear_log_recovery;
        Alcotest.test_case "interior corruption salvages prefix" `Quick
          test_storage_interior_corruption;
        Alcotest.test_case "snapshot-only recovery" `Quick test_storage_snapshot_only;
        Alcotest.test_case "corrupt snapshot falls back to log" `Quick
          test_storage_snapshot_corrupt;
        Alcotest.test_case "faulty wrapper tears and drops" `Quick
          test_storage_faulty_wrapper;
      ] );
    ("paxos.snapshot", [ Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip ]);
    ( "paxos.config",
      [
        Alcotest.test_case "quorum" `Quick test_config_quorum;
        Alcotest.test_case "replica ids" `Quick test_config_replica_ids;
        Alcotest.test_case "validation" `Quick test_config_validation;
      ] );
  ]
