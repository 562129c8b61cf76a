(* Drive a TCP cluster with a closed-loop workload and print latency
   statistics, mirroring the paper's measurement client.

     dune exec bin/client.exe -- \
       --cluster 127.0.0.1:4000,127.0.0.1:4001,127.0.0.1:4002 \
       --service counter --workload write --count 100

   Workloads: read | write | original | mixed (alternating). *)

open Cmdliner
module Stats = Grid_util.Stats

type workload = W_read | W_write | W_original | W_mixed

let workload_conv =
  let parse = function
    | "read" -> Stdlib.Ok W_read
    | "write" -> Stdlib.Ok W_write
    | "original" -> Stdlib.Ok W_original
    | "mixed" -> Stdlib.Ok W_mixed
    | s -> Error (`Msg (Printf.sprintf "unknown workload %S" s))
  in
  let print ppf w =
    Format.pp_print_string ppf
      (match w with
      | W_read -> "read"
      | W_write -> "write"
      | W_original -> "original"
      | W_mixed -> "mixed")
  in
  Arg.conv (parse, print)

let run cluster service workload count client_id =
  let start (type a) (module S : Grid_paxos.Service_intf.S with type op = a)
      ~(read_op : a) ~(write_op : a) =
    let module Tcp = Grid_net.Tcp_node.Make (S) in
    let client = Tcp.start_client ~id:client_id ~replicas:cluster () in
    let acc = Stats.create () in
    let failures = ref 0 in
    let request k =
      let unreplicated, op =
        match workload with
        | W_read -> (false, read_op)
        | W_write -> (false, write_op)
        | W_original -> (true, write_op)
        | W_mixed -> (false, if k mod 2 = 0 then read_op else write_op)
      in
      let t0 = Unix.gettimeofday () in
      match Tcp.call_op client ~unreplicated op ~timeout_s:10.0 with
      | Some _ -> Stats.add acc ((Unix.gettimeofday () -. t0) *. 1000.0)
      | None -> incr failures
    in
    for k = 1 to count do
      request k
    done;
    Tcp.stop_client client;
    Printf.printf "%d requests: mean RRT %.3f ms \xc2\xb1%.3f (99%% CI), p-min %.3f, p-max %.3f, %d timeouts\n"
      (Stats.count acc) (Stats.mean acc)
      (Stats.confidence_interval ~confidence:0.99 acc)
      (Stats.min_value acc) (Stats.max_value acc) !failures
  in
  match service with
  | Service_select.Counter ->
    start
      (module Grid_services.Counter)
      ~read_op:Grid_services.Counter.Get
      ~write_op:(Grid_services.Counter.Add 1)
  | Service_select.Kv ->
    start
      (module Grid_services.Kv_store)
      ~read_op:(Grid_services.Kv_store.Get "k")
      ~write_op:(Grid_services.Kv_store.Put { key = "k"; value = "v" })
  | Service_select.Noop ->
    start
      (module Grid_services.Noop)
      ~read_op:Grid_services.Noop.Noop_read
      ~write_op:Grid_services.Noop.Noop_write

let cluster_arg =
  Arg.(
    required
    & opt (some Service_select.cluster_conv) None
    & info [ "cluster" ] ~docv:"ADDRS" ~doc:"Comma-separated replica host:port list.")

let service_arg =
  Arg.(
    value
    & opt Service_select.service_conv Service_select.Counter
    & info [ "service" ] ~docv:"SERVICE" ~doc:"Service (counter|kv|noop).")

let workload_arg =
  Arg.(
    value
    & opt workload_conv W_mixed
    & info [ "workload" ] ~docv:"KIND" ~doc:"read|write|original|mixed.")

let count_arg =
  Arg.(value & opt int 20 & info [ "count" ] ~docv:"N" ~doc:"Requests to send.")

let id_arg = Arg.(value & opt int 1 & info [ "client-id" ] ~docv:"C" ~doc:"Client id.")

let cmd =
  let doc = "Closed-loop measurement client for a TCP replica cluster" in
  Cmd.v
    (Cmd.info "grid-client" ~doc)
    Term.(
      const run $ cluster_arg $ service_arg $ workload_arg $ count_arg $ id_arg)

let () = exit (Cmd.eval cmd)
