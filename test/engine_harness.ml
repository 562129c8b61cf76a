(* A hand-driven harness for engine-level protocol tests: three replica
   engines wired through explicit, inspectable mailboxes. Unlike the
   simulator, nothing moves unless the test says so — each test scripts
   exactly which messages are delivered and which timers fire, so it can
   place the protocol in precise states (mid-prepare, gap recovery,
   stale-ballot races). *)

module Ids = Grid_util.Ids
open Grid_paxos.Types

module Make (S : Grid_paxos.Service_intf.S) = struct
  module Replica = Grid_paxos.Replica.Make (S)

  type t = {
    replicas : Replica.t array;
    (* Undelivered messages, in send order. *)
    mutable pending : (int * int * msg) list;  (* (src, dst, msg) *)
    mutable timers : (int * timer) list;
    mutable replies : reply list;
    mutable now : float;
  }

  let absorb t i actions =
    List.iter
      (function
        | Send { dst; msg } ->
          if node_is_client dst then begin
            match msg with
            | Reply_msg r -> t.replies <- r :: t.replies
            | _ -> ()
          end
          else t.pending <- t.pending @ [ (i, dst, msg) ]
        | After { timer; _ } -> t.timers <- t.timers @ [ (i, timer) ]
        | Note _ -> ())
      actions

  let create ?(n = 3) ?(cfg_tweak = Fun.id) () =
    let cfg = cfg_tweak (Grid_paxos.Config.make ~n ~record_history:true ()) in
    let replicas = Array.init n (fun i -> Replica.create ~cfg ~id:i ~seed:(100 + i) ()) in
    let t = { replicas; pending = []; timers = []; replies = []; now = 0.0 } in
    Array.iteri (fun i r -> absorb t i (Replica.bootstrap r)) replicas;
    t

  let advance t dt = t.now <- t.now +. dt

  let feed t i input = absorb t i (Replica.handle t.replicas.(i) ~now:t.now input)

  (* Deliver the oldest pending message matching the filter; false if none. *)
  let deliver ?(filter = fun _ _ _ -> true) t =
    let rec split acc = function
      | [] -> None
      | ((src, dst, msg) as m) :: rest ->
        if filter src dst msg then Some (m, List.rev_append acc rest)
        else split (m :: acc) rest
    in
    match split [] t.pending with
    | None -> false
    | Some ((src, dst, msg), rest) ->
      t.pending <- rest;
      feed t dst (Receive { src; msg });
      true

  let deliver_all ?filter t =
    let guard = ref 100_000 in
    while deliver ?filter t && !guard > 0 do
      decr guard
    done

  (* Drop every pending message matching the filter (message loss). *)
  let drop t ~filter =
    t.pending <- List.filter (fun (src, dst, msg) -> not (filter src dst msg)) t.pending

  (* Fire the oldest pending timer of replica [i] matching [want]. *)
  let fire t i want =
    let rec split acc = function
      | [] -> None
      | ((j, timer) as e) :: rest ->
        if j = i && want timer then Some (timer, List.rev_append acc rest)
        else split (e :: acc) rest
    in
    match split [] t.timers with
    | None -> false
    | Some (timer, rest) ->
      t.timers <- rest;
      feed t i (Timer timer);
      true

  (* Promote replica [i] to leader by driving its election by hand and
     letting every message flow. *)
  let elect t i =
    feed t i (Timer Suspicion_tick);
    advance t 1000.0;
    feed t i (Timer Suspicion_tick);
    (* Let the stability hold-down (cfg default 30 ms) elapse. *)
    advance t 50.0;
    ignore (fire t i (function Stability_check _ -> true | _ -> false));
    deliver_all t;
    assert (Replica.is_leader t.replicas.(i))

  let client_request ?(client = 1) ~seq ~rtype ~payload () : request =
    { id = Ids.Request_id.make ~client:(Ids.Client_id.of_int client) ~seq; rtype; payload;
      trace = no_trace }

  (* Broadcast a client request to every replica. *)
  let submit t (r : request) =
    Array.iteri
      (fun i _ -> feed t i (Receive { src = client_node r.id.client; msg = Client_req r }))
      t.replicas

  let take_replies t =
    let r = List.rev t.replies in
    t.replies <- [];
    r

  let pending_kinds t = List.map (fun (_, _, m) -> msg_kind m) t.pending
end

include Make (Grid_services.Counter)
