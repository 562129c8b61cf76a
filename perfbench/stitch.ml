(* Stitch span dumps from several processes into one row per request.

   Every process stamps spans with the shared host clock (ms since the
   epoch), so concatenating the dumps and grouping by request id with
   [Grid_obs.Lifecycle.timelines] yields each request's path across the
   client, the leader and the followers. A row keeps the first time each
   lifecycle phase was seen, or [nan] where the request never reached it
   (reads have no accept round; a killed leader took its spans along). *)

module Span = Grid_obs.Span
module Lifecycle = Grid_obs.Lifecycle

let phases =
  Span.
    [
      Client_send;
      Leader_receive;
      Apply;
      Propose;
      Accept_quorum;
      Commit;
      State_ship;
      Reply;
    ]

type row = {
  client : int;
  seq : int;
  protocol : string;
  times : float array;  (* indexed like [phases] *)
}

(* Requests whose [Client_send] falls in [\[from, until\]]. *)
let rows ~from ~until events =
  Lifecycle.timelines events
  |> List.filter_map (fun (tl : Lifecycle.timeline) ->
         match Lifecycle.phase_time tl Span.Client_send with
         | Some t when t >= from && t <= until ->
           Some
             {
               client = Grid_util.Ids.Client_id.to_int tl.req.client;
               seq = tl.req.seq;
               protocol = Lifecycle.protocol_name tl.protocol;
               times =
                 Array.of_list
                   (List.map
                      (fun p ->
                        Option.value ~default:Float.nan (Lifecycle.phase_time tl p))
                      phases);
             }
         | _ -> None)

let header =
  String.concat "\t"
    ("client" :: "seq" :: "protocol" :: List.map Span.phase_name phases)

let row_to_tsv r =
  String.concat "\t"
    (string_of_int r.client :: string_of_int r.seq :: r.protocol
    :: Array.to_list (Array.map (Printf.sprintf "%.4f") r.times))
