(* pbnode: the OCaml half of the wall-clock benchmark. run.py spawns it in
   three roles and drives each over stdin/stdout, one command per line:

     pbnode replica --id I --ports P0,P1,P2 --dir D [--trace]
       prints "up <id> <open_ms>", then obeys "mark" (open the counter
       window), "end" (close it and write D/r<I>-<pid>.stats.json) and
       "quit" (rewrite that file and exit). EOF exits. With --trace the
       spans are fetched from the replica's GET /flightrec.
     pbnode load --ports P0,P1,P2 --workload W --seed N --seconds S
                 --out F [--trace]
       preloads the keys and prints "ready <first Ok reply, ms>"; on "go"
       runs the closed
       loop for S seconds and prints "window <t0_ms> <t1_ms>"; on
       "verify" reads back every key, writes F (and with --trace one
       span dump per session next to it) and prints "done".
     pbnode stitch --from T0 --to T1 DUMP...
       prints one TSV row per request sent in [T0, T1] (Stitch).
     pbnode selftest
       checks the stitcher on a canned trace.

   Replicas use the configuration of bin/replica.exe and file storage;
   with --trace they also run behind the Timing wrappers and record
   every span. *)

module Span = Grid_obs.Span
module Kv = Grid_services.Kv_store

let now_ms () = Unix.gettimeofday () *. 1000.0
let addr port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)
let die fmt = Printf.ksprintf (fun s -> prerr_endline ("pbnode: " ^ s); exit 3) fmt

let parse_ports s = List.map int_of_string (String.split_on_char ',' s)

(* ------------------------------------------------------------------ *)
(* Replica *)

let cluster_cfg () =
  Grid_paxos.Config.make ~n:3 ~hb_period_ms:50.0 ~suspicion_ms:300.0
    ~stability_ms:100.0 ~accept_retry_ms:100.0 ()

let gc_json (g0 : Gc.stat) (g1 : Gc.stat) =
  Printf.sprintf {|{"minor_words":%.0f,"major_collections":%d,"top_heap_mb":%.4f}|}
    (g1.minor_words -. g0.minor_words)
    (g1.major_collections - g0.major_collections)
    (float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1048576.0)

let serve ~id ~dir ~open_ms ~timers =
  Printf.printf "up %d %.4f\n%!" id open_ms;
  let g0 = ref (Gc.quick_stat ()) and g1 = ref None in
  (* One file per process (a restarted replica reuses the id). *)
  let path = Filename.concat dir (Printf.sprintf "r%d-%d.stats.json" id (Unix.getpid ())) in
  let write_stats () =
    let g1 = match !g1 with Some g -> g | None -> Gc.quick_stat () in
    (* Written aside and renamed: a reader that sees the file sees all of
       it, even if the process is killed right after. *)
    let oc = open_out (path ^ ".tmp") in
    Printf.fprintf oc {|{"id":%d,"open_ms":%.4f,"timers":{%s},"gc":%s}|} id open_ms
      (String.concat "," (List.map Timing.to_json timers))
      (gc_json !g0 g1);
    close_out oc;
    Sys.rename (path ^ ".tmp") path
  in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> exit 0
    | "mark" ->
      List.iter Timing.mark timers;
      g0 := Gc.quick_stat ();
      loop ()
    | "end" ->
      List.iter Timing.close timers;
      g1 := Some (Gc.quick_stat ());
      write_stats ();
      loop ()
    | "quit" ->
      write_stats ();
      exit 0
    | _ -> loop ()
  in
  loop ()

let run_replica ~id ~ports ~dir ~trace =
  let port = List.nth ports id in
  let peers =
    List.filteri (fun i _ -> i <> id) (List.mapi (fun i p -> (i, addr p)) ports)
  in
  let cfg = cluster_cfg () in
  let t0 = Unix.gettimeofday () in
  let store, _, _ =
    Grid_paxos.Storage.file ~path:(Filename.concat dir (Printf.sprintf "r%d" id))
  in
  let open_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  if trace then begin
    (* The span recorder is served by GET /flightrec. *)
    let module T = Timing.Timed (Kv) in
    let module N = Grid_net.Tcp_node.Make (T) in
    let obs = Span.Recorder.create ~capacity:(1 lsl 20) ~enabled:true () in
    let _h =
      N.start_replica ~cfg ~id ~port ~peers ~storage:(Timing.timed_storage store)
        ~obs ()
    in
    serve ~id ~dir ~open_ms ~timers:(T.timers @ Timing.storage_timers)
  end
  else begin
    let module N = Grid_net.Tcp_node.Make (Kv) in
    let _h = N.start_replica ~cfg ~id ~port ~peers ~storage:store () in
    serve ~id ~dir ~open_ms ~timers:[]
  end

(* ------------------------------------------------------------------ *)
(* Load generator *)

module N = Grid_net.Tcp_node.Make (Kv)

type spec = { nkeys : int; value_len : int; reads : bool }

let spec_of = function
  | "write" | "failover" -> { nkeys = 64; value_len = 16; reads = false }
  | "read" -> { nkeys = 64; value_len = 16; reads = true }
  (* 2500 x 850 B (2.1 MB): the per-op work puts the median request
     midway between two steps of the client's 2 ms reply poll, so a host
     20% faster or slower does not move it a step; 2000 x 1 KiB sat on a
     step (2.2 or 4.2 ms run to run), 3000 x 700 B near the next one. *)
  | "bigstate" -> { nkeys = 2500; value_len = 850; reads = false }
  | w -> die "unknown workload %S" w

let sessions = 2
let aux_handles = 8  (* parallel clients for preload and read-back *)
let request_timeout_s = 5.0
let key i = Printf.sprintf "k%05d" i

(* Values are a unique prefix padded from a seeded pad, so the last acked
   write of every key is recognisable and inputs repeat per seed. *)
let make_value pad ~len ~prefix ~offset =
  let room = len - String.length prefix in
  if room < 0 then die "value prefix %S longer than %d" prefix len;
  prefix ^ String.sub pad (offset mod (String.length pad - room)) room

let with_handles ~replicas ~base n f =
  let hs =
    List.init n (fun i -> N.start_client ~id:(base + i) ~replicas ())
  in
  let ths = List.mapi (fun i h -> Thread.create (fun () -> f i h) ()) hs in
  List.iter Thread.join ths;
  List.iter N.stop_client hs

type session = {
  idx : int;
  rng : Random.State.t;
  owned : int array;
  obs : Span.Recorder.t;
  mutable handle : N.client_handle;
  mutable cid : int;
  mutable seq : int;
  mutable writes : int;
  mutable meters : (string * string) list;
      (* (exposition at window start, at end) per handle used *)
  mutable start_meters : string;
  rows : Buffer.t;
}

let run_load ~ports ~workload ~seed ~seconds ~out ~trace =
  let spec = spec_of workload in
  let replicas = List.mapi (fun i p -> (i, addr p)) ports in
  let pad =
    let st = Random.State.make [| seed; 0x5eed |] in
    String.init 8192 (fun _ -> Char.chr (97 + Random.State.int st 26))
  in
  let preload = Array.init spec.nkeys (fun i ->
      make_value pad ~len:spec.value_len ~prefix:(Printf.sprintf "p%d." i)
        ~offset:(i * 131))
  in
  (* Each session owns the keys congruent to its index, so the last acked
     value of every key is known; [pending] holds values whose write
     outcome is unknown (timed out) since that ack. *)
  let acked = Array.copy preload in
  let pending = Array.make spec.nkeys [] in
  let next_cid = ref 10 in
  let fresh_cid () =
    incr next_cid;
    !next_cid
  in
  let first_ok = Atomic.make infinity in
  with_handles ~replicas ~base:100 aux_handles (fun a h ->
      let i = ref a in
      while !i < spec.nkeys do
        let op = Kv.Put { key = key !i; value = preload.(!i) } in
        (match N.call_op h op ~timeout_s:request_timeout_s with
        | Some { status = Grid_paxos.Types.Ok; _ } ->
          let t = now_ms () in
          if t < Atomic.get first_ok then Atomic.set first_ok t
        | _ -> die "preload of %s failed" (key !i));
        i := !i + aux_handles
      done);
  let ss =
    Array.init sessions (fun idx ->
        let obs =
          if trace then Span.Recorder.create ~capacity:(1 lsl 20) ~enabled:true ()
          else Span.Recorder.disabled
        in
        let cid = fresh_cid () in
        let handle = N.start_client ~id:cid ~replicas ~obs () in
        {
          idx;
          rng = Random.State.make [| seed; idx |];
          owned =
            Array.of_list
              (List.filter (fun i -> i mod sessions = idx) (List.init spec.nkeys Fun.id));
          obs;
          handle;
          cid;
          seq = 0;
          writes = 0;
          meters = [];
          start_meters = "";
          rows = Buffer.create (1 lsl 16);
        })
  in
  Printf.printf "ready %.4f\n%!" (Atomic.get first_ok);
  if input_line stdin <> "go" then exit 1;
  Array.iter (fun s -> s.start_meters <- Grid_obs.Metrics.expose (N.client_metrics s.handle)) ss;
  let t0 = now_ms () in
  let t_end = t0 +. (seconds *. 1000.0) in
  let run s =
    while now_ms () < t_end do
      let k = s.owned.(Random.State.int s.rng (Array.length s.owned)) in
      let op, value =
        if spec.reads then (Kv.Get (key k), "")
        else begin
          s.writes <- s.writes + 1;
          let value =
            make_value pad ~len:spec.value_len
              ~prefix:(Printf.sprintf "%d.%d." s.idx s.writes)
              ~offset:(Random.State.int s.rng 8192)
          in
          (Kv.Put { key = key k; value }, value)
        end
      in
      let t_send = now_ms () in
      let reply = N.call_op s.handle op ~timeout_s:request_timeout_s in
      let t_ret = now_ms () in
      s.seq <- s.seq + 1;
      let status =
        match reply with
        | None -> 1
        | Some { status = Grid_paxos.Types.Ok; payload; _ } ->
          if spec.reads then
            match Kv.decode_result payload with
            | Kv.Value (Some v) when v = acked.(k) -> 0
            | _ -> 3
          else begin
            acked.(k) <- value;
            pending.(k) <- [];
            0
          end
        | Some _ -> 2
      in
      if status <> 0 && not spec.reads then pending.(k) <- value :: pending.(k);
      Printf.bprintf s.rows "[%d,%d,%d,%.4f,%.4f,%d]," s.idx s.cid s.seq t_send
        t_ret status;
      if reply = None then begin
        (* A timed-out handle still owns its outstanding request; carry on
           with a fresh client instead of inheriting its late reply. *)
        s.meters <- (s.start_meters, Grid_obs.Metrics.expose (N.client_metrics s.handle)) :: s.meters;
        N.stop_client s.handle;
        s.cid <- fresh_cid ();
        s.seq <- 0;
        s.handle <- N.start_client ~id:s.cid ~replicas ~obs:s.obs ();
        s.start_meters <- ""
      end
    done
  in
  let ths = Array.map (fun s -> Thread.create run s) ss in
  Array.iter Thread.join ths;
  Array.iter
    (fun s ->
      s.meters <- (s.start_meters, Grid_obs.Metrics.expose (N.client_metrics s.handle)) :: s.meters)
    ss;
  Printf.printf "window %.4f %.4f\n%!" t0 t_end;
  if input_line stdin <> "verify" then exit 1;
  (* Read back every key: it must hold its last acked value, or one of
     the writes whose outcome the client never learned. *)
  let mismatches = Atomic.make 0 and unreadable = Atomic.make 0 in
  with_handles ~replicas ~base:200 aux_handles (fun a h ->
      let i = ref a in
      while !i < spec.nkeys do
        (match N.call_op h (Kv.Get (key !i)) ~timeout_s:request_timeout_s with
        | Some { status = Grid_paxos.Types.Ok; payload; _ } -> (
          match Kv.decode_result payload with
          | Kv.Value (Some v) when v = acked.(!i) || List.mem v pending.(!i) -> ()
          | _ -> Atomic.incr mismatches)
        | _ -> Atomic.incr unreadable);
        i := !i + aux_handles
      done);
  Array.iter (fun s -> N.stop_client s.handle) ss;
  let json_str s = Grid_obs.Json.to_string (Grid_obs.Json.Str s) in
  let oc = open_out out in
  Printf.fprintf oc
    {|{"window":[%.4f,%.4f],"keys":%d,"mismatches":%d,"unreadable":%d,"meters":[%s],"rows":[%s]}|}
    t0 t_end spec.nkeys (Atomic.get mismatches) (Atomic.get unreadable)
    (String.concat ","
       (List.concat_map
          (fun s ->
            List.map
              (fun (a, b) -> Printf.sprintf "[%s,%s]" (json_str a) (json_str b))
              s.meters)
          (Array.to_list ss)))
    (let b = Buffer.create 1024 in
     Array.iter (fun s -> Buffer.add_buffer b s.rows) ss;
     if Buffer.length b > 0 then Buffer.truncate b (Buffer.length b - 1);
     Buffer.contents b);
  close_out oc;
  if trace then
    Array.iter
      (fun s ->
        Span.dump_file
          (Printf.sprintf "%s.spans%d.jsonl" (Filename.remove_extension out) s.idx)
          (Span.Recorder.events s.obs))
      ss;
  print_endline "done"

(* ------------------------------------------------------------------ *)
(* Stitching and its self-test *)

let run_stitch ~from ~until files =
  let events = List.concat_map Span.load_file files in
  print_endline Stitch.header;
  List.iter
    (fun r -> print_endline (Stitch.row_to_tsv r))
    (Stitch.rows ~from ~until events)

(* Two requests from client 11, recorded by three processes and dumped in
   no particular order; the second is a read (no accept round), a third
   request lies outside the window. *)
let selftest () =
  let rid seq =
    Grid_util.Ids.Request_id.make ~client:(Grid_util.Ids.Client_id.of_int 11) ~seq
  in
  let sp actor time seq phase =
    let rec_ = Span.Recorder.create ~enabled:true () in
    Span.Recorder.span rec_ ~time ~actor ~req:(rid seq) ~instance:(-1)
      ~detail:(if seq = 2 then "read" else "write") phase;
    Span.Recorder.events rec_
  in
  let client =
    List.concat
      [ sp "c11" 10.0 1 Client_send; sp "c11" 15.0 1 Reply;
        sp "c11" 20.0 2 Client_send; sp "c11" 23.5 2 Reply;
        sp "c11" 99.0 3 Client_send ]
  in
  let leader =
    List.concat
      [ sp "r0" 11.0 1 Leader_receive; sp "r0" 11.5 1 Apply; sp "r0" 12.0 1 Propose;
        sp "r0" 13.0 1 Accept_quorum; sp "r0" 13.2 1 Commit;
        sp "r0" 21.0 2 Leader_receive; sp "r0" 21.2 2 Apply ]
  in
  let follower = sp "r1" 13.4 1 State_ship @ sp "r1" 12.5 1 State_ship in
  let reload es = Span.load_string (Span.dump_string es) in
  let events = reload follower @ reload client @ reload leader in
  let rows = Stitch.rows ~from:0.0 ~until:50.0 events in
  let fail msg = prerr_endline ("selftest: " ^ msg); exit 1 in
  if List.length rows <> 2 then fail "expected two rows in the window";
  let r1 = List.find (fun (r : Stitch.row) -> r.seq = 1) rows in
  let r2 = List.find (fun (r : Stitch.row) -> r.seq = 2) rows in
  if r1.client <> 11 then fail "client id";
  if r1.times <> [| 10.0; 11.0; 11.5; 12.0; 13.0; 13.2; 12.5; 15.0 |] then
    fail "write row: phases or first-occurrence times";
  if r2.protocol <> "x-paxos read" then fail ("read protocol " ^ r2.protocol);
  if not (Float.is_nan r2.times.(3) && Float.is_nan r2.times.(4)) then
    fail "read row must have no accept round";
  if r2.times.(7) <> 23.5 then fail "read reply time";
  print_endline "selftest: stitch ok"

(* ------------------------------------------------------------------ *)

let () =
  let id = ref 0 and ports = ref "" and dir = ref "." and trace = ref false in
  let workload = ref "write" and seed = ref 1 and seconds = ref 10.0 in
  let out = ref "load.json" and from = ref 0.0 and until = ref infinity in
  let files = ref [] in
  let specs =
    [
      ("--id", Arg.Set_int id, "replica id");
      ("--ports", Arg.Set_string ports, "comma-separated replica ports");
      ("--dir", Arg.Set_string dir, "replica storage and dump directory");
      ("--trace", Arg.Set trace, "time the layers and record every span");
      ("--workload", Arg.Set_string workload, "write|read|bigstate|failover");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured window");
      ("--out", Arg.Set_string out, "load result file");
      ("--from", Arg.Set_float from, "stitch window start (ms)");
      ("--to", Arg.Set_float until, "stitch window end (ms)");
    ]
  in
  match Array.to_list Sys.argv with
  | _ :: role :: _ -> (
    let argv = Array.of_list (List.tl (Array.to_list Sys.argv)) in
    Arg.parse_argv ~current:(ref 0) argv specs (fun f -> files := f :: !files)
      "pbnode ROLE [options]";
    match role with
    | "replica" -> run_replica ~id:!id ~ports:(parse_ports !ports) ~dir:!dir ~trace:!trace
    | "load" ->
      run_load ~ports:(parse_ports !ports) ~workload:!workload ~seed:!seed
        ~seconds:!seconds ~out:!out ~trace:!trace
    | "stitch" -> run_stitch ~from:!from ~until:!until (List.rev !files)
    | "selftest" -> selftest ()
    | r -> die "unknown role %S" r)
  | _ -> die "usage: pbnode (replica|load|stitch|selftest) [options]"
