(* TCP transport tests: framing over a socketpair, plus a real loopback
   cluster (3 replicas + a client) driving the same engines the simulator
   runs. *)

module Framing = Grid_net.Framing
module Wire = Grid_codec.Wire
module Wire_codec = Grid_paxos.Wire_codec
module Counter = Grid_services.Counter
module Config = Grid_paxos.Config
open Grid_paxos.Types

module Tcp = Grid_net.Tcp_node.Make (Counter)

(* ------------------------------------------------------------------ *)
(* Framing *)

(* Blocking I/O for a test playing a peer by hand. Reads run the node
   loop's path: [fill] the connection's decoder, take the frame at its
   front. [fill] treats a read that times out as "nothing yet", so a
   receive timeout bounds each wait (no [select]: some tests read an fd
   past FD_SETSIZE). One reader per connection, since the decoder keeps
   any bytes past the frame. *)
let reader ?(timeout_s = 5.0) fd =
  Unix.setsockopt_float fd SO_RCVTIMEO timeout_s;
  let d = Framing.decoder () in
  let rec next ~deadline ~eof =
    match Framing.next d with
    | Stdlib.Ok (Some payload) -> Stdlib.Ok payload
    | Stdlib.Error _ as e -> e
    | Stdlib.Ok None when eof -> Stdlib.Error (Framing.at_eof d)
    | Stdlib.Ok None ->
      if Unix.gettimeofday () > deadline then Alcotest.failf "no frame within %.0f s" timeout_s;
      next ~deadline ~eof:(not (Framing.fill d fd))
  in
  fun () -> next ~deadline:(Unix.gettimeofday () +. timeout_s) ~eof:false

let read_msg recv = Result.bind (recv ()) Framing.decode_msg

let frame_ok what recv =
  match recv () with
  | Stdlib.Ok payload -> payload
  | Stdlib.Error e -> Alcotest.failf "%s: %s" what (Format.asprintf "%a" Framing.pp_read_error e)

(* Blocking writes; each returns the bytes put on the wire. *)
let write_all fd s = Unix.write_substring fd s 0 (String.length s)
let write_frame fd payload = write_all fd (Framing.frame payload)
let write_msg fd m = write_frame fd (Wire_codec.encode m)

let test_framing_roundtrip () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let recv = reader b in
      let n = write_frame a "hello frame" in
      Alcotest.(check int) "bytes = header + payload + crc" (4 + 11 + 4) n;
      Alcotest.(check string) "roundtrip" "hello frame" (frame_ok "roundtrip" recv);
      (* Two frames in one read come out one at a time. *)
      ignore (write_all a (Framing.frame "" ^ Framing.frame "second"));
      Alcotest.(check string) "empty payload" "" (frame_ok "empty" recv);
      Alcotest.(check string) "frame behind it" "second" (frame_ok "second" recv);
      let big = String.make 100_000 'z' in
      ignore (write_frame a big);
      Alcotest.(check string) "large payload" big (frame_ok "large" recv))

let test_framing_closed () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.close a;
  Fun.protect
    ~finally:(fun () -> Unix.close b)
    (fun () ->
      Alcotest.(check bool) "eof is a typed Eof, not an exception" true
        (reader b () = Stdlib.Error Framing.Eof))

let test_framing_corruption () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let corrupt bytes =
        ignore (write_all a bytes);
        match reader b () with Stdlib.Error (Framing.Corrupt _) -> true | _ -> false
      in
      (* A frame whose CRC does not match its payload. *)
      Alcotest.(check bool) "corruption detected as typed Corrupt" true
        (corrupt "\x08\x00\x00\x00ABCDWXYZ");
      (* A length header past [max_frame] is refused before its body. *)
      Alcotest.(check bool) "oversized length is Corrupt" true
        (corrupt "\x01\x00\x00\x01"))

let test_framing_truncated_body () =
  (* EOF in the middle of a frame body is corruption, not a clean Eof. *)
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close b)
    (fun () ->
      let partial = "\x40\x00\x00\x00only-a-few-bytes" in
      ignore (Unix.write_substring a partial 0 (String.length partial));
      Unix.close a;
      Alcotest.(check bool) "truncated body is Corrupt" true
        (match reader b () with Stdlib.Error (Framing.Corrupt _) -> true | _ -> false))

let sample_msgs =
  [
    Client_req
      { id = Grid_util.Ids.Request_id.make ~client:(Grid_util.Ids.Client_id.of_int 4) ~seq:2;
        rtype = Read;
        payload = "op";
        trace = no_trace };
    Prepare { ballot = Ballot.make ~round:3 ~holder:1; commit_point = 17 };
    Accept
      { ballot = Ballot.make ~round:3 ~holder:1;
        instance = 18;
        proposal = { requests = []; update = Full "state"; replies = [] } };
    Commit { ballot = Ballot.make ~round:3 ~holder:1; instance = 18 };
    Heartbeat
      { round_seen = 5;
        commit_point = 17;
        promised = Ballot.make ~round:3 ~holder:1;
        sent_at = 42.5;
        lease_anchor = 40.0 };
    Catchup { snapshot = "snap" };
  ]

let test_msg_wire_roundtrip () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let written = List.map (write_msg a) sample_msgs in
      let recv = reader b in
      List.iter2
        (fun expected wrote ->
          match read_msg recv with
          | Stdlib.Ok (got, bytes) ->
            Alcotest.(check string) "message kinds match" (msg_kind expected) (msg_kind got);
            Alcotest.(check int) "both ends count the same bytes" wrote bytes
          | Stdlib.Error e -> Alcotest.failf "%a" Framing.pp_read_error e)
        sample_msgs written)

(* ------------------------------------------------------------------ *)
(* Loopback cluster *)

let free_port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close fd;
  port

let test_loopback_cluster () =
  let ports = Array.init 3 (fun _ -> free_port ()) in
  let addr i = Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i)) in
  let peers_of i =
    List.filter_map (fun j -> if j = i then None else Some (j, addr j)) [ 0; 1; 2 ]
  in
  let cfg =
    Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0
      ~client_retry_ms:150.0 ~accept_retry_ms:50.0 ()
  in
  let replicas =
    List.map
      (fun i -> Tcp.start_replica ~cfg ~id:i ~port:ports.(i) ~peers:(peers_of i) ())
      [ 0; 1; 2 ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter Tcp.stop_replica replicas)
    (fun () ->
      (* Wait for an election. *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_leader () =
        if List.exists Tcp.replica_is_leader replicas then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "no leader elected on loopback cluster"
        else begin
          Thread.delay 0.02;
          wait_leader ()
        end
      in
      wait_leader ();
      let client =
        Tcp.start_client ~id:1 ~replicas:(List.map (fun i -> (i, addr i)) [ 0; 1; 2 ]) ()
      in
      Fun.protect
        ~finally:(fun () -> Tcp.stop_client client)
        (fun () ->
          (* Five writes then a read, synchronously. *)
          for k = 1 to 5 do
            match Tcp.call_op client (Counter.Add k) ~timeout_s:5.0 with
            | Some reply -> Alcotest.(check bool) "write ok" true (reply.status = Ok)
            | None -> Alcotest.fail (Printf.sprintf "write %d timed out" k)
          done;
          (match Tcp.call_op client Counter.Get ~timeout_s:5.0 with
          | Some reply ->
            Alcotest.(check int) "read sees all writes" 15
              (Counter.decode_result reply.payload)
          | None -> Alcotest.fail "read timed out");
          (* All replicas converge. *)
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec wait_converged () =
            let states = List.map Tcp.replica_state replicas in
            if List.for_all (fun s -> s = 15) states then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail
                (Printf.sprintf "replicas did not converge: %s"
                   (String.concat "," (List.map string_of_int states)))
            else begin
              Thread.delay 0.02;
              wait_converged ()
            end
          in
          wait_converged ()))

(* ------------------------------------------------------------------ *)
(* Admin endpoint: the replica port answers plain HTTP alongside the
   protocol handshake. *)

(* A read that waits more than [timeout_s] ends the response there. *)
let http_get ?(timeout_s = 5.0) port path =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.setsockopt_float fd SO_RCVTIMEO timeout_s;
      Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      (try drain () with Unix.Unix_error _ -> ());
      let raw = Buffer.contents buf in
      let status =
        match String.index_opt raw '\r' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      let body =
        let sep = "\r\n\r\n" in
        let n = String.length raw and k = String.length sep in
        let rec find i =
          if i + k > n then ""
          else if String.sub raw i k = sep then String.sub raw (i + k) (n - i - k)
          else find (i + 1)
        in
        find 0
      in
      (status, body))

(* The value of one counter in a Prometheus exposition. *)
let metric_value text name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)

(* One counter as the node's [GET /metrics] serves it. *)
let scraped port name = metric_value (snd (http_get port "/metrics")) name

let contains haystack needle =
  let n = String.length haystack and k = String.length needle in
  let rec scan i = i + k <= n && (String.sub haystack i k = needle || scan (i + 1)) in
  scan 0

let test_admin_endpoint () =
  let ports = Array.init 3 (fun _ -> free_port ()) in
  let addr i = Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i)) in
  let peers_of i =
    List.filter_map (fun j -> if j = i then None else Some (j, addr j)) [ 0; 1; 2 ]
  in
  let cfg =
    Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0
      ~client_retry_ms:150.0 ~accept_retry_ms:50.0 ()
  in
  let replicas =
    List.map
      (fun i -> Tcp.start_replica ~cfg ~id:i ~port:ports.(i) ~peers:(peers_of i) ())
      [ 0; 1; 2 ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter Tcp.stop_replica replicas)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_leader () =
        if List.exists Tcp.replica_is_leader replicas then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "no leader elected on loopback cluster"
        else begin
          Thread.delay 0.02;
          wait_leader ()
        end
      in
      wait_leader ();
      let leader_id =
        let rec find i = function
          | [] -> Alcotest.fail "leader vanished"
          | r :: rest -> if Tcp.replica_is_leader r then i else find (i + 1) rest
        in
        find 0 replicas
      in
      (* Commit some work so the scrape reflects live state. *)
      let client =
        Tcp.start_client ~id:1 ~replicas:(List.map (fun i -> (i, addr i)) [ 0; 1; 2 ]) ()
      in
      Fun.protect
        ~finally:(fun () -> Tcp.stop_client client)
        (fun () ->
          for k = 1 to 3 do
            match Tcp.call_op client (Counter.Add k) ~timeout_s:5.0 with
            | Some reply -> Alcotest.(check bool) "write ok" true (reply.status = Ok)
            | None -> Alcotest.fail (Printf.sprintf "write %d timed out" k)
          done;
          (* /health on the leader: role, commit point, zero violations. *)
          let status, body = http_get ports.(leader_id) "/health" in
          Alcotest.(check bool) "health 200" true (contains status "200");
          Alcotest.(check bool) "health says leader" true
            (contains body {|"role":"leader"|});
          Alcotest.(check bool) "health has commit point" true
            (contains body {|"commit_point":|});
          Alcotest.(check bool) "health watchdog silent" true
            (contains body {|"watchdog_violations":0|});
          (* No migration has run: epoch 0, idle, nothing moved. *)
          Alcotest.(check bool) "health reports reshard state" true
            (contains body
               {|"reshard":{"epoch":0,"phase":"idle","moved_ranges":0,"imported_items":0}|});
          (* /metrics: Prometheus exposition with transport and watchdog
             series. *)
          let status, body = http_get ports.(leader_id) "/metrics" in
          Alcotest.(check bool) "metrics 200" true (contains status "200");
          Alcotest.(check bool) "metrics transport counters" true
            (contains body "grid_net_messages_sent_total");
          Alcotest.(check bool) "metrics byte counters" true
            (contains body "grid_net_bytes_total");
          Alcotest.(check bool) "metrics per-kind byte counters" true
            (contains body "grid_net_bytes_total_accept");
          Alcotest.(check bool) "metrics decode errors silent" true
            (contains body "grid_net_decode_errors_total 0");
          Alcotest.(check bool) "metrics watchdog silent" true
            (contains body "grid_watchdog_violations_total 0");
          Alcotest.(check bool) "metrics reshard epoch gauge" true
            (contains body "grid_reshard_epoch 0");
          Alcotest.(check bool) "metrics reshard migrating gauge" true
            (contains body "grid_reshard_migrating 0");
          (* /flightrec: the always-on recorder dumps parseable JSONL. *)
          let status, body = http_get ports.(leader_id) "/flightrec" in
          Alcotest.(check bool) "flightrec 200" true (contains status "200");
          let events = Grid_obs.Span.load_string body in
          Alcotest.(check bool) "flightrec has events" true (events <> []);
          (* Unknown paths 404; the protocol survives admin traffic. *)
          let status, _ = http_get ports.(leader_id) "/nope" in
          Alcotest.(check bool) "404 on unknown path" true (contains status "404");
          (match Tcp.call_op client Counter.Get ~timeout_s:5.0 with
          | Some reply ->
            Alcotest.(check int) "protocol alive after admin scrapes" 6
              (Counter.decode_result reply.payload)
          | None -> Alcotest.fail "read after admin scrapes timed out");
          Array.iter
            (fun port ->
              Alcotest.(check (option int)) "watchdog silent on every replica" (Some 0)
                (scraped port "grid_watchdog_violations_total"))
            ports))

(* The admin sniff must classify a peer by whatever prefix has arrived,
   not stall or guess from the first byte: an HTTP client and a protocol
   peer both dribbling one byte at a time must land on their own path. *)
let test_sniff_dribbling_clients () =
  let port = free_port () in
  let cfg = Config.make ~n:1 ~hb_period_ms:10.0 ~suspicion_ms:60.0 () in
  let r = Tcp.start_replica ~cfg ~id:0 ~port ~peers:[] () in
  Fun.protect
    ~finally:(fun () -> Tcp.stop_replica r)
    (fun () ->
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      let dribble fd s ~head =
        String.iteri
          (fun i c ->
            ignore (Unix.write_substring fd (String.make 1 c) 0 1);
            if i < head then Thread.delay 0.004)
          s
      in
      (* HTTP client, one byte at a time through the whole method. *)
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.connect fd addr;
          dribble fd "GET /health HTTP/1.0\r\n\r\n" ~head:6;
          let buf = Bytes.create 4096 in
          let n = try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0 in
          let raw = Bytes.sub_string buf 0 (max n 0) in
          Alcotest.(check bool) "dribbled GET answered with HTTP 200" true
            (contains raw "200"));
      (* Protocol peer: dribble the first bytes of a real hello frame;
         the replica must still answer with its own hello instead of
         handing the socket to the HTTP responder. *)
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.connect fd addr;
          dribble fd (Framing.hello ~node_id:9) ~head:3;
          match Result.bind (reader fd ()) Framing.parse_hello with
          | Stdlib.Ok peer ->
            Alcotest.(check int) "dribbled hello negotiated with replica" 0 peer
          | Stdlib.Error e ->
            Alcotest.failf "dribbled protocol peer misclassified: %a"
              Framing.pp_read_error e))

(* Hellos written and read by hand, as an older or newer build would put
   them on the wire: [uint node_id], then [uint max_version] unless
   [version] is [None] (a pre-versioning build). *)
let write_raw_hello fd ~node_id ~version =
  ignore
    (write_frame fd
       (Wire.encode (fun e ->
            Wire.Encoder.uint e node_id;
            Option.iter (Wire.Encoder.uint e) version)))

let read_raw_hello what recv =
  let d = Wire.Decoder.of_string (frame_ok what recv) in
  let node_id = Wire.Decoder.uint d in
  let version = Wire.Decoder.uint d in
  Wire.Decoder.expect_end d;
  (node_id, version)

let test_loopback_duplicate_request () =
  (* A client retransmission arriving after the commit must hit the dedup
     table: the leader resends the cached reply and the op is not applied
     a second time. Speaks the wire protocol directly so both copies
     carry the identical request id. *)
  let ports = Array.init 3 (fun _ -> free_port ()) in
  let addr i = Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i)) in
  let peers_of i =
    List.filter_map (fun j -> if j = i then None else Some (j, addr j)) [ 0; 1; 2 ]
  in
  let cfg =
    Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0
      ~client_retry_ms:150.0 ~accept_retry_ms:50.0 ()
  in
  let replicas =
    List.map
      (fun i -> Tcp.start_replica ~cfg ~id:i ~port:ports.(i) ~peers:(peers_of i) ())
      [ 0; 1; 2 ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter Tcp.stop_replica replicas)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_leader () =
        match List.find_opt (fun (_, h) -> Tcp.replica_is_leader h)
                (List.mapi (fun i h -> (i, h)) replicas)
        with
        | Some (i, _) -> i
        | None ->
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "no leader elected on loopback cluster"
          else begin
            Thread.delay 0.02;
            wait_leader ()
          end
      in
      let leader = wait_leader () in
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.setsockopt fd TCP_NODELAY true;
          Unix.connect fd (addr leader);
          let recv = reader fd in
          let cid = Grid_util.Ids.Client_id.of_int 9 in
          (* Speak the handshake as an older build that also spoke V2
             would: advertise 2, and get a hello advertising 1 back. *)
          write_raw_hello fd ~node_id:(client_node cid) ~version:(Some 2);
          Alcotest.(check (pair int int)) "replica answers with its id and V1" (leader, 1)
            (read_raw_hello "hello ack" recv);
          let req =
            { id = Grid_util.Ids.Request_id.make ~client:cid ~seq:1;
              rtype = Write;
              payload = Counter.encode_op (Counter.Add 7);
              trace = no_trace }
          in
          let read_reply what =
            match read_msg recv with
            | Stdlib.Ok (Reply_msg r, _) -> r
            | Stdlib.Ok (m, _) -> Alcotest.failf "%s: expected a reply, got %s" what (msg_kind m)
            | Stdlib.Error e ->
              Alcotest.failf "%s: %s" what
                (Format.asprintf "%a" Framing.pp_read_error e)
          in
          ignore (write_msg fd (Client_req req));
          let r1 = read_reply "first send" in
          Alcotest.(check bool) "first reply ok" true (r1.status = Ok);
          (* Retransmit the identical request after the commit. *)
          ignore (write_msg fd (Client_req req));
          let r2 = read_reply "duplicate send" in
          Alcotest.(check bool) "cached reply ok" true (r2.status = Ok);
          Alcotest.(check string) "cached reply payload identical" r1.payload
            r2.payload;
          (* Exactly-once: the +7 was applied a single time. *)
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec wait_converged () =
            let states = List.map Tcp.replica_state replicas in
            if List.for_all (fun s -> s = 7) states then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail
                (Printf.sprintf "states after duplicate delivery: %s"
                   (String.concat "," (List.map string_of_int states)))
            else begin
              Thread.delay 0.02;
              wait_converged ()
            end
          in
          wait_converged ()))

(* ------------------------------------------------------------------ *)
(* Transport robustness *)

module Kv = Grid_services.Kv_store
module Tcp_kv = Grid_net.Tcp_node.Make (Kv)

(* Without SIGPIPE ignored, a write to a peer that died kills the whole
   process. Creating a node ignores it, so the write fails with EPIPE,
   which the send path handles by dropping the connection. *)
let test_sigpipe_ignored () =
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let nowhere = Unix.ADDR_INET (Unix.inet_addr_loopback, free_port ()) in
  let client = Tcp.start_client ~id:7 ~replicas:[ (0, nowhere) ] () in
  Tcp.stop_client client;
  let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Alcotest.(check bool) "node creation ignores SIGPIPE" true (previous = Sys.Signal_ignore);
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.close b;
  Fun.protect
    ~finally:(fun () -> Unix.close a)
    (fun () ->
      match write_frame a "to a dead peer" with
      | _ -> Alcotest.fail "write to a closed peer succeeded"
      | exception Unix.Unix_error (EPIPE, _, _) -> ())

(* An older build that also spoke V2 advertises 2 in its hellos; this
   build advertises 1, and the two settle on V1 whichever side dials
   (the dialer side is [test_loopback_duplicate_request]). A hello with
   no version field is a pre-versioning V1 peer; one advertising 0 is
   refused: counted as a decode error, socket closed unanswered. *)
let test_old_peer_hellos () =
  let port = free_port () in
  let peer = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.bind peer (ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen peer 4;
  (* Replica 0 of a 2-replica group whose replica 1 is this test. *)
  let cfg = Config.make ~n:2 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0 () in
  let r = Tcp.start_replica ~cfg ~id:0 ~port ~peers:[ (1, Unix.getsockname peer) ] () in
  let connect () =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
    fd
  in
  Fun.protect
    ~finally:(fun () ->
      Tcp.stop_replica r;
      Unix.close peer)
    (fun () ->
      let dialed = Unix.select [ peer ] [] [] 10.0 <> ([], [], []) in
      let accepted = if dialed then Some (Unix.accept peer) else None in
      let fd, _ =
        match accepted with Some a -> a | None -> Alcotest.fail "the replica never dialed its peer"
      in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let recv = reader fd in
          Alcotest.(check (pair int int)) "dialer's hello: its id and V1" (0, 1)
            (read_raw_hello "dialer's hello" recv);
          write_raw_hello fd ~node_id:1 ~version:(Some 2);
          (* V1 frames both ways: promise the replica's Prepare and it
             wins its election on this peer's vote. *)
          let rec await_prepare () =
            match read_msg recv with
            | Stdlib.Ok (Prepare { ballot; _ }, _) -> ballot
            | Stdlib.Ok _ -> await_prepare ()
            | Stdlib.Error e -> Alcotest.failf "V1 frame from the replica: %a" Framing.pp_read_error e
          in
          let ballot = await_prepare () in
          ignore
            (write_msg fd
               (Prepare_ack { ballot; commit_point = 0; snapshot = None; accepted = [] }));
          let deadline = Unix.gettimeofday () +. 5.0 in
          while (not (Tcp.replica_is_leader r)) && Unix.gettimeofday () < deadline do
            Thread.delay 0.01
          done;
          Alcotest.(check bool) "elected on the promise sent as V1" true (Tcp.replica_is_leader r));
      let client = client_node (Grid_util.Ids.Client_id.of_int 9) in
      let fd = connect () in
      write_raw_hello fd ~node_id:client ~version:None;
      Alcotest.(check (pair int int)) "versionless hello answered with V1" (0, 1)
        (read_raw_hello "hello ack" (reader fd));
      Unix.close fd;
      let fd = connect () in
      write_raw_hello fd ~node_id:client ~version:(Some 0);
      Alcotest.(check bool) "hello below V1 closed unanswered" true
        (reader fd () = Stdlib.Error Framing.Eof);
      Unix.close fd;
      Alcotest.(check (option int)) "refusal counted" (Some 1)
        (scraped port "grid_net_decode_errors_total"))

(* A silent inbound connection must not wedge the port: with one open
   and sending nothing, a protocol peer's hello and an admin request
   that arrive after it are still answered. *)
let test_silent_connection () =
  let port = free_port () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let cfg = Config.make ~n:1 ~hb_period_ms:10.0 ~suspicion_ms:60.0 () in
  let r = Tcp.start_replica ~cfg ~id:0 ~port ~peers:[] () in
  let silent = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close silent;
      Tcp.stop_replica r)
    (fun () ->
      Unix.connect silent addr;
      (* The replica accepts the silent connection first. *)
      Thread.delay 0.05;
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd addr;
          write_raw_hello fd ~node_id:(client_node (Grid_util.Ids.Client_id.of_int 9))
            ~version:(Some 1);
          match Result.bind (reader ~timeout_s:2.0 fd ()) Framing.parse_hello with
          | Stdlib.Ok id -> Alcotest.(check int) "hello answered past a silent connection" 0 id
          | Stdlib.Error e -> Alcotest.failf "hello refused: %a" Framing.pp_read_error e);
      let status, _ = http_get ~timeout_s:2.0 port "/health" in
      Alcotest.(check bool) "health answered past a silent connection" true
        (contains status "200"))

(* A peer that accepts the replica's dial and never sends its hello must
   not wedge the replica: it keeps answering admin requests, and stopping
   it does not wait for that hello. *)
let test_half_open_dial () =
  let port = free_port () in
  let peer = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.bind peer (ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen peer 4;
  let cfg = Config.make ~n:2 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0 () in
  let r = Tcp.start_replica ~cfg ~id:0 ~port ~peers:[ (1, Unix.getsockname peer) ] () in
  let accepted = ref None in
  (* Closing the peer's sockets ends a handshake that blocks, so a stop
     that waits for one still returns. *)
  let release () =
    Option.iter Unix.close !accepted;
    accepted := None;
    try Unix.close peer with Unix.Unix_error _ -> ()
  in
  let stopped = Atomic.make false in
  Fun.protect
    ~finally:(fun () ->
      release ();
      if not (Atomic.get stopped) then Tcp.stop_replica r)
    (fun () ->
      if Unix.select [ peer ] [] [] 10.0 = ([], [], []) then
        Alcotest.fail "the replica never dialed its peer";
      accepted := Some (fst (Unix.accept peer));
      let status, body = http_get ~timeout_s:2.0 port "/health" in
      Alcotest.(check bool) "health answered during a half-open dial" true
        (contains status "200" && contains body {|"node":0|});
      let stopper =
        Thread.create
          (fun () ->
            Tcp.stop_replica r;
            Atomic.set stopped true)
          ()
      in
      let deadline = Unix.gettimeofday () +. 2.0 in
      while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      let in_time = Atomic.get stopped in
      release ();
      Thread.join stopper;
      Alcotest.(check bool) "stop_replica returns within 2 s" true in_time)

(* A dial whose peer accepts and never sends its hello fails at the
   hello deadline: the replica closes it, counts a dial failure and,
   after its backoff, dials again. *)
let test_silent_dial_times_out () =
  let port = free_port () in
  let peer = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.bind peer (ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen peer 4;
  let cfg = Config.make ~n:2 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0 () in
  let r = Tcp.start_replica ~cfg ~id:0 ~port ~peers:[ (1, Unix.getsockname peer) ] () in
  let accepted = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Tcp.stop_replica r;
      List.iter Unix.close !accepted;
      Unix.close peer)
    (fun () ->
      let accept_within what s =
        if Unix.select [ peer ] [] [] s = ([], [], []) then Alcotest.fail what;
        let fd = fst (Unix.accept peer) in
        accepted := fd :: !accepted;
        fd
      in
      let first = accept_within "the replica never dialed its peer" 10.0 in
      (* Past the deadline the replica closes the dial; until then its
         hello and the frames queued behind it arrive here. *)
      Unix.setsockopt_float first SO_RCVTIMEO 0.5;
      let buf = Bytes.create 4096 in
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec drain () =
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "silent dial still open after 5 s";
        match Unix.read first buf 0 4096 with
        | 0 -> ()
        | _ | (exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _)) -> drain ()
      in
      drain ();
      ignore (accept_within "no redial after the silent dial failed" 5.0);
      match
        scraped port "grid_net_dial_failures_total"
      with
      | Some n when n >= 1 -> ()
      | v ->
        Alcotest.failf "dial failures: %s"
          (Option.fold ~none:"none" ~some:string_of_int v))

(* One thread per node: protocol connections and admin requests add
   none. *)
let test_thread_count () =
  if not (Sys.file_exists "/proc/self/task") then Alcotest.skip ();
  let threads () = Array.length (Sys.readdir "/proc/self/task") in
  let port = free_port () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let cfg = Config.make ~n:1 ~hb_period_ms:10.0 ~suspicion_ms:60.0 () in
  let r = Tcp.start_replica ~cfg ~id:0 ~port ~peers:[] () in
  let conns = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Unix.close !conns;
      Tcp.stop_replica r)
    (fun () ->
      let before = threads () in
      for i = 1 to 8 do
        let fd = Unix.socket PF_INET SOCK_STREAM 0 in
        conns := fd :: !conns;
        Unix.connect fd addr;
        write_raw_hello fd ~node_id:(client_node (Grid_util.Ids.Client_id.of_int (20 + i)))
          ~version:(Some 1);
        Alcotest.(check (pair int int)) "hello answered" (0, 1) (read_raw_hello "hello" (reader fd))
      done;
      for _ = 1 to 4 do
        let status, _ = http_get port "/health" in
        Alcotest.(check bool) "health 200" true (contains status "200")
      done;
      Alcotest.(check int) "threads after 8 connections and 4 admin requests" before
        (threads ()))

(* [select] cannot watch an fd at or above FD_SETSIZE: a connection
   accepted onto one is closed and counted, and the loop serves on. *)
let test_fd_limit () =
  let port = free_port () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let cfg = Config.make ~n:1 ~hb_period_ms:10.0 ~suspicion_ms:60.0 () in
  let r = Tcp.start_replica ~cfg ~id:0 ~port ~peers:[] () in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let fillers = ref [] in
  let release () =
    List.iter Unix.close !fillers;
    fillers := []
  in
  Fun.protect
    ~finally:(fun () ->
      release ();
      Unix.close null;
      Tcp.stop_replica r)
    (fun () ->
      (* Take every free fd below the limit. *)
      let rec fill () =
        match Unix.dup null with
        | exception Unix.Unix_error (EMFILE, _, _) -> false
        | fd -> (
          fillers := fd :: !fillers;
          match Unix.select [ fd ] [] [] 0.0 with
          | _ -> fill ()
          | exception Unix.Unix_error (EINVAL, _, _) -> true)
      in
      if not (fill ()) then Alcotest.skip ();
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd addr;
          Alcotest.(check bool) "connection beyond FD_SETSIZE closed" true
            (reader fd () = Stdlib.Error Framing.Eof));
      release ();
      Alcotest.(check (option int)) "closed connection counted" (Some 1)
        (scraped port "grid_net_fd_limit_closed_total");
      let status, _ = http_get port "/health" in
      Alcotest.(check bool) "health answered afterwards" true (contains status "200"))

(* A message whose frame exceeds [Framing.max_frame] is dropped and
   counted; the sender's event loop and its connection survive. The
   oversized request stays outstanding at its client, so the loop's own
   retransmissions — each dropped and counted again — show it is still
   running, and a second client shows the cluster still serves. *)
let test_oversized_frame_dropped () =
  let port = free_port () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let cfg = Config.make ~n:1 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0 () in
  let replica = Tcp_kv.start_replica ~cfg ~id:0 ~port ~peers:[] () in
  Fun.protect
    ~finally:(fun () -> Tcp_kv.stop_replica replica)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      while (not (Tcp_kv.replica_is_leader replica)) && Unix.gettimeofday () < deadline do
        Thread.delay 0.02
      done;
      let put c value =
        Tcp_kv.call_op c (Kv.Put { key = "k"; value }) ~timeout_s:5.0
      in
      let big = Tcp_kv.start_client ~id:1 ~replicas:[ (0, addr) ] ~retry_ms:50.0 () in
      Fun.protect
        ~finally:(fun () -> Tcp_kv.stop_client big)
        (fun () ->
          (match put big "warm-up" with
          | Some r -> Alcotest.(check bool) "warm-up ok" true (r.status = Ok)
          | None -> Alcotest.fail "warm-up timed out");
          let huge = String.make (Framing.max_frame + 1) 'x' in
          Alcotest.(check bool) "oversized request gets no reply" true
            (Tcp_kv.call_op big (Kv.Put { key = "k"; value = huge }) ~timeout_s:0.3 = None);
          let dropped () =
            Option.value ~default:0
              (metric_value (Grid_obs.Metrics.expose (Tcp_kv.client_metrics big))
                 "grid_net_oversized_dropped_total")
          in
          let await_drops n =
            let deadline = Unix.gettimeofday () +. 10.0 in
            while dropped () < n && Unix.gettimeofday () < deadline do
              Thread.delay 0.02
            done;
            dropped () >= n
          in
          Alcotest.(check bool) "drop counted" true (await_drops 1);
          Alcotest.(check bool) "the loop keeps retransmitting" true
            (await_drops (dropped () + 1));
          Alcotest.(check (option int)) "connection kept" (Some 1)
            (metric_value (Grid_obs.Metrics.expose (Tcp_kv.client_metrics big))
               "grid_net_connections"));
      let small = Tcp_kv.start_client ~id:2 ~replicas:[ (0, addr) ] () in
      Fun.protect
        ~finally:(fun () -> Tcp_kv.stop_client small)
        (fun () ->
          match put small "small" with
          | Some r -> Alcotest.(check bool) "cluster still serves" true (r.status = Ok)
          | None -> Alcotest.fail "write after the oversized one timed out"))

(* ------------------------------------------------------------------ *)
(* Client call wait: the caller sleeps until the loop thread hands it the
   reply or the call's deadline passes on the loop. *)

(* A loopback 3-replica cluster whose replicas can be stopped and
   restarted on their ports. A restarted replica comes back empty and
   catches up from the leader. Peers redial within 50 ms and followers
   suspect the leader only after 300 ms, so restarted followers rejoin
   the surviving leader instead of electing one of their own. *)
module Cluster (S : Grid_paxos.Service_intf.S) = struct
  module T = Grid_net.Tcp_node.Make (S)

  type t = {
    cfg : Config.t;
    ports : int array;
    nodes : T.replica_handle option array;
  }

  let addr c i = Unix.ADDR_INET (Unix.inet_addr_loopback, c.ports.(i))
  let ids c = List.init (Array.length c.ports) Fun.id

  let start c i =
    let peers = List.filter_map (fun j -> if j = i then None else Some (j, addr c j)) (ids c) in
    c.nodes.(i) <-
      Some (T.start_replica ~cfg:c.cfg ~id:i ~port:c.ports.(i) ~peers ~backoff_cap_ms:50.0 ())

  let stop c i =
    Option.iter T.stop_replica c.nodes.(i);
    c.nodes.(i) <- None

  let leader c =
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec wait () =
      let live = List.filter_map (fun i -> Option.map (fun h -> (i, h)) c.nodes.(i)) (ids c) in
      match List.find_opt (fun (_, h) -> T.replica_is_leader h) live with
      | Some (i, _) -> i
      | None ->
        if Unix.gettimeofday () > deadline then Alcotest.fail "no leader elected";
        Thread.delay 0.02;
        wait ()
    in
    wait ()

  let with_cluster f =
    let cfg =
      Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:300.0 ~stability_ms:20.0
        ~client_retry_ms:50.0 ~accept_retry_ms:50.0 ()
    in
    let c = { cfg; ports = Array.init 3 (fun _ -> free_port ()); nodes = Array.make 3 None } in
    List.iter (start c) (ids c);
    Fun.protect ~finally:(fun () -> List.iter (stop c) (ids c)) (fun () -> f c)

  let with_client c f =
    let h =
      T.start_client ~id:1 ~replicas:(List.map (fun i -> (i, addr c i)) (ids c))
        ~retry_ms:50.0 ~backoff_cap_ms:50.0 ()
    in
    Fun.protect ~finally:(fun () -> T.stop_client h) (fun () -> f h)

  (* Stop every replica but the leader: no quorum remains. *)
  let drop_quorum c =
    let l = leader c in
    List.iter (fun i -> if i <> l then stop c i) (ids c)

  let restore_quorum c =
    List.iter (fun i -> if Option.is_none c.nodes.(i) then start c i) (ids c)
end

module Counter_cluster = Cluster (Counter)
module Kv_cluster = Cluster (Kv)

let elapsed_s f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* A reply wakes the caller as soon as the loop thread has it, so a
   loopback read costs well under a millisecond; a fixed 2 ms poll would
   put every call above 2 ms. *)
let test_call_latency () =
  let module C = Counter_cluster in
  C.with_cluster (fun c ->
      ignore (C.leader c);
      C.with_client c (fun h ->
          let get () =
            match C.T.call_op h Counter.Get ~timeout_s:5.0 with
            | Some r when r.status = Ok -> ()
            | _ -> Alcotest.fail "get failed"
          in
          for _ = 1 to 20 do get () done;
          let ms = Array.init 200 (fun _ -> 1000.0 *. snd (elapsed_s get)) in
          Array.sort Float.compare ms;
          let p50 = ms.(100) in
          if p50 >= 1.5 then Alcotest.failf "median call %.3f ms, want < 1.5 ms" p50))

(* With no replica up, the loop ends the call at its deadline: not
   before it, and not much after. Its request stays outstanding, so the
   next call finds the client busy and fails at once. *)
let test_call_deadline () =
  let module C = Counter_cluster in
  C.with_cluster (fun c ->
      List.iter (C.stop c) (C.ids c);
      C.with_client c (fun h ->
          let r, dt = elapsed_s (fun () -> C.T.call_op h (Counter.Add 1) ~timeout_s:0.2) in
          Alcotest.(check bool) "no reply" true (r = None);
          if dt < 0.2 || dt > 0.5 then
            Alcotest.failf "call returned after %.3f s, want within [0.2, 0.5]" dt;
          let r, dt = elapsed_s (fun () -> C.T.call_op h (Counter.Add 2) ~timeout_s:5.0) in
          Alcotest.(check bool) "busy call gets no reply" true (r = None);
          if dt > 0.1 then Alcotest.failf "busy call took %.3f s to fail" dt))

(* A finished call's deadline must not end a later call on the same
   handle: B outlives A's 0.3 s deadline while the quorum is down and
   still gets its own reply once the quorum is back. *)
let test_stale_deadline () =
  let module C = Counter_cluster in
  C.with_cluster (fun c ->
      ignore (C.leader c);
      C.with_client c (fun h ->
          (match C.T.call_op h (Counter.Add 1) ~timeout_s:0.3 with
          | Some r -> Alcotest.(check int) "A applied" 1 (Counter.decode_result r.payload)
          | None -> Alcotest.fail "call A timed out");
          C.drop_quorum c;
          let restorer =
            Thread.create
              (fun () ->
                Thread.delay 0.5;
                C.restore_quorum c)
              ()
          in
          let r, dt = elapsed_s (fun () -> C.T.call_op h (Counter.Add 10) ~timeout_s:5.0) in
          Thread.join restorer;
          match r with
          | Some r ->
            Alcotest.(check bool) "B ok" true (r.status = Ok);
            Alcotest.(check int) "B's own result" 11 (Counter.decode_result r.payload);
            if dt < 0.5 then Alcotest.failf "B answered after %.3f s, before the quorum" dt
          | None -> Alcotest.failf "call B ended after %.3f s without a reply" dt))

(* A call that timed out leaves its request outstanding at the client,
   which retransmits it until the restored quorum answers. That late
   reply must never complete a later call: until it is absorbed, calls
   fail as busy; after it, they get their own replies again. *)
let test_late_reply_not_returned () =
  let module C = Kv_cluster in
  C.with_cluster (fun c ->
      ignore (C.leader c);
      C.with_client c (fun h ->
          (match C.T.call_op h (Kv.Put { key = "a"; value = "warm" }) ~timeout_s:5.0 with
          | Some r -> Alcotest.(check bool) "warm-up ok" true (r.status = Ok)
          | None -> Alcotest.fail "warm-up timed out");
          C.drop_quorum c;
          Alcotest.(check bool) "A times out without a quorum" true
            (C.T.call_op h (Kv.Put { key = "a"; value = "first" }) ~timeout_s:0.3 = None);
          C.restore_quorum c;
          let deadline = Unix.gettimeofday () +. 10.0 in
          let rec get () =
            match C.T.call_op h (Kv.Get "a") ~timeout_s:5.0 with
            | Some r -> r
            | None ->
              if Unix.gettimeofday () > deadline then Alcotest.fail "no reply after restore";
              Thread.delay 0.02;
              get ()
          in
          let r = get () in
          Alcotest.(check bool) "B ok" true (r.status = Ok);
          match Kv.decode_result r.payload with
          | Kv.Value (Some v) ->
            Alcotest.(check bool) "B reads a written value" true (v = "warm" || v = "first")
          | _ -> Alcotest.fail "B returned a reply that is not its Get's"))

let suite =
  [
    ( "net.framing",
      [
        Alcotest.test_case "roundtrip" `Quick test_framing_roundtrip;
        Alcotest.test_case "closed" `Quick test_framing_closed;
        Alcotest.test_case "corruption" `Quick test_framing_corruption;
        Alcotest.test_case "truncated body" `Quick test_framing_truncated_body;
        Alcotest.test_case "msg wire roundtrip (v1 codec)" `Quick test_msg_wire_roundtrip;
      ] );
    ( "net.loopback",
      [
        Alcotest.test_case "3-replica cluster + client" `Slow test_loopback_cluster;
        Alcotest.test_case "admin endpoint serves metrics/health/flightrec" `Slow
          test_admin_endpoint;
        Alcotest.test_case "duplicate request hits the dedup table" `Slow
          test_loopback_duplicate_request;
        Alcotest.test_case "sniff classifies dribbling clients" `Slow
          test_sniff_dribbling_clients;
        Alcotest.test_case "SIGPIPE ignored" `Quick test_sigpipe_ignored;
        Alcotest.test_case "oversized frame dropped, loop survives" `Slow
          test_oversized_frame_dropped;
        Alcotest.test_case "v2 and versionless peers settle on v1" `Slow
          test_old_peer_hellos;
        Alcotest.test_case "silent connection wedges no handshake" `Slow
          test_silent_connection;
        Alcotest.test_case "half-open dial wedges no loop" `Slow test_half_open_dial;
        Alcotest.test_case "silent dial times out and redials" `Slow
          test_silent_dial_times_out;
        Alcotest.test_case "one thread per node" `Slow test_thread_count;
        Alcotest.test_case "fd beyond FD_SETSIZE closed and counted" `Slow test_fd_limit;
      ] );
    ( "net.call",
      [
        Alcotest.test_case "reply wakes the caller" `Slow test_call_latency;
        Alcotest.test_case "deadline ends the call" `Slow test_call_deadline;
        Alcotest.test_case "finished call's deadline is stale" `Slow test_stale_deadline;
        Alcotest.test_case "late reply never completes a later call" `Slow
          test_late_reply_not_returned;
      ] );
  ]
