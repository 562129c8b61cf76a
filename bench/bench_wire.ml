(* Wire-codec benchmark (ours): encode/decode cost and on-wire bytes of
   the V1 codec ({!Grid_paxos.Wire_codec}, DESIGN.md §15). Two
   questions:

   - ns/msg to encode and to decode a representative message mix — the
     CPU the transport pays per delivery;
   - bytes/request on the wire for one replicated write and one
     confirmed read in a 3-replica group, frame overhead (4-byte length
     header + 4-byte CRC trailer) included.

   With --json-dir the samples land in BENCH_wire.json. *)

module Types = Grid_paxos.Types
module WC = Grid_paxos.Wire_codec
module Ids = Grid_util.Ids
module Stats = Grid_util.Stats
module T = Grid_util.Text_table

let ballot = Types.Ballot.make ~round:2 ~holder:1

let request ?(payload = String.make 64 'p') ?(trace = Types.no_trace) seq :
    Types.request =
  {
    id = Ids.Request_id.make ~client:(Ids.Client_id.of_int 7) ~seq;
    rtype = Types.Write;
    payload;
    trace;
  }

let read_request seq : Types.request =
  {
    id = Ids.Request_id.make ~client:(Ids.Client_id.of_int 7) ~seq;
    rtype = Types.Read;
    payload = String.make 8 'g';
    trace = Types.no_trace;
  }

let proposal : Types.proposal =
  {
    requests = [ request 11 ];
    update = Types.Delta (String.make 128 's');
    replies =
      [ { Types.req = (request 11).id; status = Types.Ok; payload = "r" } ];
  }

let reply : Types.reply =
  { req = (request 11).id; status = Types.Ok; payload = String.make 16 'v' }

(* One replicated write through a 3-replica group: the client broadcasts
   to all replicas; the leader runs one accept round and replies. *)
let write_flow : Types.msg list =
  let cr = Types.Client_req (request 11) in
  let accept = Types.Accept { ballot; instance = 42; proposal } in
  let ack = Types.Accept_ack { ballot; instance = 42 } in
  let commit = Types.Commit { ballot; instance = 42 } in
  [ cr; cr; cr; accept; accept; ack; ack; commit; commit; Types.Reply_msg reply ]

(* One X-Paxos confirmed read: broadcast, two follower confirmations to
   the leader, one reply. Lease anchors are [nan] (leases off), the
   common configuration. *)
let read_flow : Types.msg list =
  let cr = Types.Client_req (read_request 12) in
  let confirm =
    Types.Read_confirm
      { ballot; req = (read_request 12).id; lease_anchor = Float.nan }
  in
  [ cr; cr; cr; confirm; confirm; Types.Reply_msg reply ]

(* Mixed message set for the CPU timing: the two request flows plus the
   background traffic (heartbeats, recovery, semi-passive rounds). *)
let timing_mix : Types.msg list =
  write_flow @ read_flow
  @ [
      Types.Heartbeat
        {
          round_seen = 2;
          commit_point = 41;
          promised = ballot;
          sent_at = 12345.0;
          lease_anchor = Float.nan;
        };
      Types.Prepare { ballot; commit_point = 41 };
      Types.Prepare_ack
        {
          ballot;
          commit_point = 41;
          snapshot = None;
          accepted = [ { Types.instance = 42; ballot; proposal } ];
        };
      Types.Sp_propose { instance = 43; round = 1; proposal };
      Types.Sp_ack { instance = 43; round = 1 };
      Types.Sp_decide { instance = 43; proposal };
    ]

let frame_overhead = 8 (* 4-byte length header + 4-byte CRC trailer *)

let flow_bytes flow =
  List.fold_left (fun acc m -> acc + frame_overhead + String.length (WC.encode m)) 0 flow

(* ns/msg over [iters] passes of the mix; one call = one sample. *)
let time_ns f n_msgs ~iters =
  let t0 = Sys.time () in
  for _ = 1 to iters do
    f ()
  done;
  (Sys.time () -. t0) *. 1e9 /. Float.of_int (iters * n_msgs)

let bench_codec ~trials ~iters =
  let msgs = Array.of_list timing_mix in
  let encoded = Array.map WC.encode msgs in
  (* Every decode must succeed — a codec that errors on its own output
     would corrupt the timing with exception overhead. *)
  Array.iter
    (fun s ->
      match WC.decode s with
      | Ok _ -> ()
      | Error e ->
        failwith
          (Printf.sprintf "bench_wire: self-decode failed: %s"
             (Grid_codec.Wire_intf.decode_error_to_string e)))
    encoded;
  let enc = Stats.create () and dec = Stats.create () in
  let n = Array.length msgs in
  let encode_pass () = Array.iter (fun m -> ignore (WC.encode m)) msgs in
  let decode_pass () = Array.iter (fun s -> ignore (WC.decode s)) encoded in
  (* Warm up, then interleave so allocator drift cancels. *)
  ignore (time_ns encode_pass n ~iters);
  ignore (time_ns decode_pass n ~iters);
  for _ = 1 to trials do
    let e = time_ns encode_pass n ~iters in
    let d = time_ns decode_pass n ~iters in
    Stats.add enc e;
    Stats.add dec d;
    Report.sample ~experiment:"wire" ~config:"v1 encode (ns/msg)" e;
    Report.sample ~experiment:"wire" ~config:"v1 decode (ns/msg)" d
  done;
  (enc, dec)

let run ~quick ~only =
  if only = None || only = Some "wire" then begin
    Experiment.section "wire — codec cost: ns/msg and bytes/request (ours)";
    let trials = if quick then 8 else 24 in
    let iters = if quick then 500 else 2_000 in
    let table =
      T.create
        ~columns:
          [ ("Codec", T.Left); ("Encode ns/msg", T.Right);
            ("Decode ns/msg", T.Right); ("Write B/req", T.Right);
            ("Read B/req", T.Right) ]
    in
    let enc, dec = bench_codec ~trials ~iters in
    let wb = flow_bytes write_flow and rb = flow_bytes read_flow in
    Report.sample ~experiment:"wire" ~config:"v1 write flow (bytes/request)"
      (Float.of_int wb);
    Report.sample ~experiment:"wire" ~config:"v1 read flow (bytes/request)"
      (Float.of_int rb);
    T.add_row table
      [ "V1"; T.cell_f (Stats.mean enc); T.cell_f (Stats.mean dec);
        string_of_int wb; string_of_int rb ];
    print_string (T.render table)
  end
