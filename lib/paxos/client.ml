open Types
module Ids = Grid_util.Ids
module Rng = Grid_util.Rng
module Span = Grid_obs.Span

type t = {
  cid : Ids.Client_id.t;
  replicas : int list;
  retry_ms : float;
  rng : Rng.t;
  mutable seq : int;
  mutable pending : request option;
  (* Overload backoff for the pending request: consecutive [Overloaded]
     replies seen, and the earliest time a retransmission may go out.
     Backstop retry-timer firings inside the window are suppressed. *)
  mutable backoff_attempts : int;
  mutable backoff_until : float;
  obs : Span.Recorder.t;
  actor : string;  (* precomputed "c<id>" so recording allocates nothing *)
  sid_send : string;  (* precomputed own client_send span id *)
}

let create ~id ~replicas ?(retry_ms = 500.0) ?seed ?(obs = Span.Recorder.disabled)
    ?actor () =
  if replicas = [] then invalid_arg "Client.create: no replicas";
  let seed = match seed with Some s -> s | None -> 0xC11E47 + Ids.Client_id.to_int id in
  let actor =
    match actor with
    | Some a -> a
    | None -> "c" ^ string_of_int (Ids.Client_id.to_int id)
  in
  {
    cid = id;
    replicas;
    retry_ms;
    rng = Rng.of_int seed;
    seq = 0;
    pending = None;
    backoff_attempts = 0;
    backoff_until = neg_infinity;
    obs;
    actor;
    sid_send = Span.span_id ~actor Span.Client_send;
  }

(* Retransmission intervals are jittered ±25% so retries cannot phase-lock
   with a periodic failure pattern. *)
let retry_delay t = t.retry_ms *. (0.75 +. Rng.float t.rng 0.5)

(* Exponential backoff after the [attempt]-th consecutive [Overloaded]:
   the leader's [retry_after_ms] hint doubled per attempt, capped at
   8 x retry_ms (but never below the hint itself — the leader knows its
   backlog better than our static timeout), jittered ±25% like ordinary
   retries so a shed client cohort does not retry in phase. *)
let backoff_delay t ~retry_after_ms ~attempt =
  let scaled = retry_after_ms *. Float.pow 2.0 (Float.of_int (attempt - 1)) in
  let capped = Float.min scaled (Float.max retry_after_ms (8.0 *. t.retry_ms)) in
  capped *. (0.75 +. Rng.float t.rng 0.5)

let id t = t.cid
let node t = client_node t.cid
let outstanding t = t.pending

let broadcast t (r : request) =
  List.map (fun dst -> send ~dst (Client_req r)) t.replicas

(* Trace context: an explicit [trace] (from the shard router) wins;
   otherwise, when recording is on, derive a deterministic trace id from
   (client, seq) so standalone runs also stitch. The request carries our
   [Client_send] span id as parent, so leader-side spans hang under it. *)
let submit t ?(now = 0.0) ?trace rtype ~payload =
  match t.pending with
  | Some _ -> `Busy
  | None ->
    t.seq <- t.seq + 1;
    let tid, parent =
      match trace with
      | Some (tid, parent) -> (tid, parent)
      | None ->
        if Span.Recorder.enabled t.obs then
          ((Ids.Client_id.to_int t.cid * 1_000_000) + t.seq, "")
        else (0, "")
    in
    let r =
      {
        id = Ids.Request_id.make ~client:t.cid ~seq:t.seq;
        rtype;
        payload;
        trace = (if tid = 0 then no_trace else { tid; parent = t.sid_send });
      }
    in
    t.pending <- Some r;
    t.backoff_attempts <- 0;
    t.backoff_until <- neg_infinity;
    Span.Recorder.span ~tid ~parent t.obs ~time:now ~actor:t.actor ~req:r.id
      ~instance:(-1) ~detail:"" Span.Client_send;
    `Sent (broadcast t r @ [ after ~delay:(retry_delay t) (Client_retry t.seq) ])

let handle t ~now input =
  match input with
  | Timer (Client_retry seq) -> (
    match t.pending with
    | Some r when r.id.seq = seq ->
      if now +. 1e-9 < t.backoff_until then
        (* Backstop timer fired inside an overload-backoff window: stay
           quiet — the timer armed by the [Overloaded] handler will
           retransmit when the window closes. *)
        ([], None)
      else (broadcast t r @ [ after ~delay:(retry_delay t) (Client_retry seq) ], None)
    | _ -> ([], None))
  | Timer _ -> ([], None)
  | Receive { msg = Reply_msg reply; _ } -> (
    match t.pending with
    | Some r when Ids.Request_id.equal r.id reply.req -> (
      match reply.status with
      | Retry ->
        (* The replica holding our read lost leadership: rebroadcast at
           once (the new leader will answer) instead of waiting out the
           retry timer, which stays armed as a backstop. *)
        (broadcast t r, None)
      | Overloaded { retry_after_ms } ->
        (* Admission pushback: the request is NOT complete. Honor the
           leader's hint with jittered exponential backoff instead of
           rebroadcasting on the blind retry_ms schedule. *)
        t.backoff_attempts <- t.backoff_attempts + 1;
        let delay =
          backoff_delay t ~retry_after_ms ~attempt:t.backoff_attempts
        in
        t.backoff_until <- now +. delay;
        Span.Recorder.span ~tid:r.trace.tid ~parent:t.sid_send t.obs ~time:now
          ~actor:t.actor ~req:reply.req ~instance:(-1) ~detail:"overloaded"
          Span.Reply;
        ([ after ~delay (Client_retry r.id.seq) ], None)
      | Ok | Txn_aborted | Txn_conflict | Wrong_epoch _ ->
        t.pending <- None;
        t.backoff_attempts <- 0;
        t.backoff_until <- neg_infinity;
        Span.Recorder.span ~tid:r.trace.tid ~parent:t.sid_send t.obs ~time:now
          ~actor:t.actor ~req:reply.req ~instance:(-1) ~detail:"" Span.Reply;
        ([], Some reply))
    | _ -> ([], None) (* duplicate or stale reply *))
  | Receive _ -> ([], None)
