(* Property and fuzz tier for the wire codec (V1, DESIGN.md §15).

   Three obligations:
   - every [Types.msg] constructor roundtrips (exhaustive samples +
     randomized instances);
   - the bytes are the seed's: golden encodings pinned as hex;
   - decoding is total: truncations, byte flips and random garbage
     produce a typed [Error], never an exception or silent garbage.

   Message equality goes through the canonical body encoding rather
   than [(=)]: lease anchors and heartbeat clocks are floats that can be
   [nan], and [nan <> nan] would fail structural comparison on messages
   that are byte-identical on the wire. *)

module Types = Grid_paxos.Types
module WC = Grid_paxos.Wire_codec
module Wire = Grid_codec.Wire
module Wire_intf = Grid_codec.Wire_intf
module Ids = Grid_util.Ids

(* Canonical bytes of a message: the body encoding. Equal canon = equal
   message, nan-safe. *)
let canon m = Wire.encode (fun e -> Types.encode_msg e m)

(* ------------------------------------------------------------------ *)
(* Exhaustive constructor samples. *)

let ballot = Types.Ballot.make ~round:3 ~holder:1

let req ?(rtype = Types.Write) ?(trace = Types.no_trace) ?(payload = "op") seq :
    Types.request =
  { id = Ids.Request_id.make ~client:(Ids.Client_id.of_int 4) ~seq;
    rtype; payload; trace }

let traced = { Types.tid = 77; parent = "span-3" }

let reply ?(status = Types.Ok) ?(payload = "res") seq : Types.reply =
  { req = (req seq).id; status; payload }

let proposal_aligned : Types.proposal =
  { requests = [ req 1; req 2 ];
    update = Types.Delta "d";
    replies = [ reply 1; reply 2 ] }

let proposal_misaligned : Types.proposal =
  (* Reply ids do not match the request batch. *)
  { requests = [ req 1 ];
    update = Types.Full "state";
    replies = [ reply 9 ] }

(* At least one sample per constructor, plus the variants of each
   optional part (traced/untraced, lease present/absent,
   aligned/misaligned replies, option arms). *)
let sample_msgs : (string * Types.msg) list =
  [
    ("client_req", Client_req (req 1));
    ("client_req traced", Client_req (req ~trace:traced 2));
    ("client_req txn", Client_req (req ~rtype:(Types.Txn_op 5) 3));
    ("client_req txn_prepare",
     Client_req (req ~rtype:(Types.Txn_prepare 1_000_000_042) 4));
    ("client_req reshard_freeze",
     Client_req (req ~rtype:(Types.Reshard_freeze 3) 5));
    ("client_req reshard_install",
     Client_req (req ~rtype:(Types.Reshard_install 3) 6));
    ("client_req reshard_commit",
     Client_req (req ~rtype:(Types.Reshard_commit 3) 7));
    ("client_req reshard_abort",
     Client_req (req ~rtype:(Types.Reshard_abort 3) 8));
    ("reply", Reply_msg (reply 1));
    ("reply overloaded",
     Reply_msg (reply ~status:(Types.Overloaded { retry_after_ms = 12.5 }) 2));
    ("reply wrong_epoch",
     Reply_msg (reply ~status:(Types.Wrong_epoch { epoch = 4; map = "map!" }) 3));
    ("prepare", Prepare { ballot; commit_point = 41 });
    ("prepare_ack empty",
     Prepare_ack { ballot; commit_point = 41; snapshot = None; accepted = [] });
    ("prepare_ack full",
     Prepare_ack
       { ballot; commit_point = 41; snapshot = Some "snap";
         accepted =
           [ { Types.instance = 42; ballot; proposal = proposal_aligned } ] });
    ("accept", Accept { ballot; instance = 42; proposal = proposal_aligned });
    ("accept misaligned",
     Accept { ballot; instance = 42; proposal = proposal_misaligned });
    ("accept traced",
     Accept
       { ballot; instance = 43;
         proposal =
           { proposal_aligned with requests = [ req ~trace:traced 1; req 2 ] } });
    ("accept_ack", Accept_ack { ballot; instance = 42 });
    ("reject", Reject { promised = ballot });
    ("commit", Commit { ballot; instance = 42 });
    ("read_confirm leased",
     Read_confirm { ballot; req = (req 5).id; lease_anchor = 123.5 });
    ("read_confirm no lease",
     Read_confirm { ballot; req = (req 5).id; lease_anchor = Float.nan });
    ("heartbeat leased",
     Heartbeat
       { round_seen = 3; commit_point = 41; promised = ballot; sent_at = 99.25;
         lease_anchor = 98.0 });
    ("heartbeat no lease",
     Heartbeat
       { round_seen = 3; commit_point = 41; promised = ballot; sent_at = 99.25;
         lease_anchor = Float.nan });
    ("catchup_req", Catchup_req { from_instance = 17 });
    ("catchup", Catchup { snapshot = String.make 100 's' });
  ]

let test_every_constructor_roundtrips () =
  (* The sample set must cover all 12 wire tags, and [all_msg_kinds]
     (one byte counter per entry) must list their kinds in tag order. A
     message's tag is the first byte of its encoding. *)
  let tag m = Char.code (WC.encode m).[0] in
  let one_per_tag =
    List.sort_uniq (fun a b -> Int.compare (tag a) (tag b)) (List.map snd sample_msgs)
  in
  Alcotest.(check int) "all 12 tags sampled" 12 (List.length one_per_tag);
  Alcotest.(check (list string)) "all_msg_kinds in tag order"
    (List.map Types.msg_kind one_per_tag) Types.all_msg_kinds;
  List.iter
    (fun (name, m) ->
      match WC.decode (WC.encode m) with
      | Stdlib.Ok m' -> Alcotest.(check string) name (canon m) (canon m')
      | Stdlib.Error e ->
        Alcotest.fail
          (Printf.sprintf "%s: %s" name (Wire_intf.decode_error_to_string e)))
    sample_msgs

let hex s =
  String.concat "" (List.of_seq (Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (String.to_seq s)))

(* The encodings every build since the seed has put on the wire, taken
   from the seed's codec. A changed byte breaks every older peer. *)
let test_golden_bytes () =
  let accept =
    Types.Accept
      { ballot; instance = 42;
        proposal =
          { proposal_aligned with requests = [ req ~trace:traced 1; req ~trace:traced 2 ] } }
  in
  List.iter
    (fun (name, m, expected) -> Alcotest.(check string) name expected (hex (WC.encode m)))
    [
      ("client_req", Types.Client_req (req ~trace:traced 1), "00040101026f704d067370616e2d33");
      ( "accept", accept,
        "0406022a02040101026f704d067370616e2d33040201026f704d067370616e2d33010164020401000372657304020003726573"
      );
      ( "heartbeat leased",
        Types.Heartbeat
          { round_seen = 3; commit_point = 41; promised = ballot; sent_at = 99.25;
            lease_anchor = 98.0 },
        "09032906020000000000d058400000000000805840" );
    ]

let is_error = function Stdlib.Error _ -> true | Stdlib.Ok _ -> false

let test_decode_error_metadata () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true (is_error (WC.decode s)))
    (* Tags 12–15 were the semi-passive messages, which have no codec
       now; "\x0e\x07\x02" is a whole former [Sp_ack]. *)
    [ ""; "\xA2"; "\x10"; "\x0c"; "\x0d"; "\x0e"; "\x0f"; "\x0e\x07\x02" ];
  match WC.decode "" with
  | Stdlib.Error e -> Alcotest.(check int) "error names its codec" WC.version e.version
  | Stdlib.Ok _ -> Alcotest.fail "empty input decoded"

(* ------------------------------------------------------------------ *)
(* Randomized instances and fuzz. *)

open QCheck2

let gen_payload = Gen.(string_size (int_bound 24))

let gen_trace =
  Gen.oneof
    [ Gen.return Types.no_trace;
      Gen.map2
        (fun tid parent -> { Types.tid = tid + 1; parent })
        (Gen.int_bound 1000) gen_payload ]

let gen_rtype =
  Gen.oneofl
    [ Types.Read; Types.Write; Types.Original; Types.Txn_op 3;
      Types.Txn_commit 9; Types.Txn_abort 9;
      Types.Txn_prepare 1_000_000_007;
      Types.Reshard_freeze 1; Types.Reshard_install 2;
      Types.Reshard_commit 3; Types.Reshard_abort 4 ]

let gen_status =
  Gen.oneofl
    [ Types.Ok; Types.Txn_aborted; Types.Txn_conflict; Types.Retry;
      Types.Overloaded { retry_after_ms = 40.0 };
      Types.Wrong_epoch { epoch = 7; map = "m" };
      Types.Wrong_epoch { epoch = 1; map = "" } ]

let gen_ballot =
  Gen.map2
    (fun round holder -> Types.Ballot.make ~round ~holder)
    Gen.small_nat (Gen.int_bound 4)

let gen_float = Gen.oneofl [ 0.0; 1.5; -2.25; 9999.125; Float.nan ]

let gen_request =
  Gen.map3
    (fun (client, seq) (rtype, payload) trace ->
      { Types.id =
          Ids.Request_id.make ~client:(Ids.Client_id.of_int client)
            ~seq:(seq + 1);
        rtype; payload; trace })
    (Gen.pair (Gen.int_bound 9) (Gen.int_bound 100))
    (Gen.pair gen_rtype gen_payload)
    gen_trace

let gen_reply_for (r : Types.request) =
  Gen.map2
    (fun status payload -> { Types.req = r.id; status; payload })
    gen_status gen_payload

let gen_proposal =
  (* Half the time the replies line up with the request batch (the
     committed-entry shape), half the time they do not. *)
  let open Gen in
  gen_request >>= fun r1 ->
  gen_request >>= fun r2 ->
  gen_reply_for r1 >>= fun p1 ->
  gen_reply_for r2 >>= fun p2 ->
  gen_reply_for r2 >>= fun stray ->
  map2
    (fun update aligned ->
      { Types.requests = [ r1; r2 ];
        update;
        replies = (if aligned then [ p1; p2 ] else [ stray ]) })
    (oneofl
       [ Types.Full "full-state"; Types.Delta "delta"; Types.Witness "w" ])
    bool

let gen_msg =
  let open Gen in
  gen_ballot >>= fun ballot ->
  gen_request >>= fun r ->
  gen_proposal >>= fun p ->
  gen_reply_for r >>= fun rep ->
  gen_float >>= fun f1 ->
  gen_float >>= fun f2 ->
  int_bound 100 >>= fun n ->
  oneofl
    [ Types.Client_req r;
      Types.Reply_msg rep;
      Types.Prepare { ballot; commit_point = n };
      Types.Prepare_ack
        { ballot; commit_point = n; snapshot = None; accepted = [] };
      Types.Prepare_ack
        { ballot; commit_point = n; snapshot = Some "snap";
          accepted = [ { Types.instance = n + 1; ballot; proposal = p } ] };
      Types.Accept { ballot; instance = n; proposal = p };
      Types.Accept_ack { ballot; instance = n };
      Types.Reject { promised = ballot };
      Types.Commit { ballot; instance = n };
      Types.Read_confirm { ballot; req = r.id; lease_anchor = f1 };
      Types.Heartbeat
        { round_seen = n; commit_point = n; promised = ballot; sent_at = f1;
          lease_anchor = f2 };
      Types.Catchup_req { from_instance = n };
      Types.Catchup { snapshot = "snap" } ]

let prop_roundtrip =
  Test.make ~name:"v1 roundtrips random messages" ~count:400 gen_msg (fun m ->
      match WC.decode (WC.encode m) with
      | Stdlib.Ok m' -> canon m' = canon m
      | Stdlib.Error _ -> false)

(* Decoding never raises: every mangled input yields Ok or a typed
   Error. (An [Ok] is legitimate — a flip inside a payload string is a
   different valid message; a truncation at an optional tail decodes
   with the field absent.) *)
let total_decode s =
  match WC.decode s with
  | Stdlib.Ok _ | Stdlib.Error _ -> true
  | exception e ->
    Printf.eprintf "decode raised %s\n" (Printexc.to_string e);
    false

let prop_truncation_total =
  Test.make ~name:"v1 truncated frames decode totally" ~count:400
    Gen.(pair gen_msg (int_bound 1000))
    (fun (m, cut) ->
      let s = WC.encode m in
      total_decode (String.sub s 0 (cut mod max 1 (String.length s))))

let prop_byteflip_total =
  Test.make ~name:"v1 byte-flipped frames decode totally" ~count:600
    Gen.(triple gen_msg (int_bound 10_000) (int_range 1 255))
    (fun (m, pos, x) ->
      let s = Bytes.of_string (WC.encode m) in
      let pos = pos mod Bytes.length s in
      Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor x));
      total_decode (Bytes.to_string s))

let prop_garbage_total =
  Test.make ~name:"v1 random garbage decodes totally" ~count:600
    Gen.(string_size (int_bound 64))
    total_decode

(* ------------------------------------------------------------------ *)
(* CRC-32: the check value, chaining, a bitwise reference, and no
   allocation per byte. *)

(* The polynomial applied one bit at a time, in [Int32], with no table. *)
let crc32_bitwise s =
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c := Int32.logxor !c (Int32.of_int (Char.code ch));
      for _ = 0 to 7 do
        let lsb = Int32.logand !c 1l in
        c := Int32.shift_right_logical !c 1;
        if lsb <> 0l then c := Int32.logxor !c 0xEDB88320l
      done)
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* The standard check value pins both the table and the reference. *)
let test_crc_check_value () =
  Alcotest.(check int32) "crc32" 0xCBF43926l (Wire.crc32 "123456789");
  Alcotest.(check int32) "bitwise reference" 0xCBF43926l (crc32_bitwise "123456789")

let prop_crc_matches_bitwise =
  Test.make ~name:"crc32 equals the bitwise reference" ~count:300
    Gen.(string_size (int_bound 300))
    (fun s -> Int32.equal (Wire.crc32 s) (crc32_bitwise s))

let prop_crc_chained =
  Test.make ~name:"chained ~crc over random splits equals one shot" ~count:300
    Gen.(pair (string_size (int_bound 200)) (list_size (int_bound 6) (int_bound 200)))
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts = List.sort_uniq Int.compare (List.map (fun c -> c mod (n + 1)) cuts) in
      let crc, last =
        List.fold_left
          (fun (crc, from) cut -> (Wire.crc32 ~crc (String.sub s from (cut - from)), cut))
          (0l, 0) cuts
      in
      let crc = Wire.crc32 ~crc (String.sub s last (n - last)) in
      Int32.equal crc (Wire.crc32 s))

(* The byte loop allocates nothing: a 1 MiB checksum costs a constant
   handful of words (the boxed result), not words per byte. *)
let test_crc_allocation_free () =
  let s = String.init (1 lsl 20) (fun i -> Char.chr ((i * 7) land 0xFF)) in
  ignore (Sys.opaque_identity (Wire.crc32 s));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Wire.crc32 s));
  let words = Gc.minor_words () -. before in
  if words > 64.0 then Alcotest.failf "crc32 of 1 MiB allocated %.0f minor words" words

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "wire.versions",
      [
        Alcotest.test_case "every constructor roundtrips" `Quick
          test_every_constructor_roundtrips;
        Alcotest.test_case "v1 golden bytes" `Quick test_golden_bytes;
        Alcotest.test_case "decode errors name their codec" `Quick
          test_decode_error_metadata;
      ] );
    ( "wire.crc",
      [
        Alcotest.test_case "check value" `Quick test_crc_check_value;
        Alcotest.test_case "1 MiB allocates no words per byte" `Quick test_crc_allocation_free;
      ]
      @ qcheck [ prop_crc_matches_bitwise; prop_crc_chained ] );
    ( "wire.properties",
      qcheck
        [ prop_roundtrip; prop_truncation_total; prop_byteflip_total; prop_garbage_total ] );
  ]
