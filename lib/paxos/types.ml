(** Protocol types shared by every engine in [grid_paxos]: ballots,
    requests, replies, state updates, wire messages, and the input/action
    vocabulary of the pure step machines.

    Engines never touch a clock, a socket or an RNG directly: they consume
    {!input} values and emit {!action} values, and a driver (simulator,
    TCP runtime, or model checker) interprets them. *)

module Wire = Grid_codec.Wire
module Ids = Grid_util.Ids

(** Ballot numbers: lexicographically ordered (round, holder) pairs, so
    ballots of distinct replicas never collide. *)
module Ballot = struct
  type t = { round : int; holder : int }

  let zero = { round = 0; holder = -1 }
  let make ~round ~holder = { round; holder }

  let compare a b =
    match Int.compare a.round b.round with
    | 0 -> Int.compare a.holder b.holder
    | c -> c

  let equal a b = compare a b = 0
  let pp ppf b = Format.fprintf ppf "(%d.%d)" b.round b.holder

  let encode e b =
    Wire.Encoder.int e b.round;
    Wire.Encoder.int e b.holder

  let decode d =
    let round = Wire.Decoder.int d in
    let holder = Wire.Decoder.int d in
    { round; holder }
end

(** Proposal numbers: (ballot, instance), ordered lexicographically — the
    order the paper uses for replica logs (§3.3). *)
module Pnum = struct
  type t = { ballot : Ballot.t; instance : int }

  let make ~ballot ~instance = { ballot; instance }

  let compare a b =
    match Ballot.compare a.ballot b.ballot with
    | 0 -> Int.compare a.instance b.instance
    | c -> c

  let pp ppf p = Format.fprintf ppf "%a@%d" Ballot.pp p.ballot p.instance
end

(** How a request wants to be coordinated. [Read] uses X-Paxos, [Write]
    the basic protocol, [Original] no coordination at all (the paper's
    unreplicated baseline). Transactional requests carry a per-client
    transaction number; their coordination is deferred to the commit
    (T-Paxos). [Txn_prepare] is the 2PC prepare for a cross-shard
    transaction: the participant group votes by committing the request
    (with its branch re-encoded into the payload) as a consensus
    instance, so the YES vote survives any minority of crashes.

    The [Reshard_*] requests are the elastic-resharding control plane
    (DESIGN.md §17), each carrying the epoch of the map transition it
    belongs to: FREEZE locks the moving key range at the source group,
    INSTALL delivers the shipped range snapshot at the target, COMMIT
    activates the successor partition map, ABORT cancels an in-flight
    transition. All four are consensus instances, so the migration state
    machine survives any minority of crashes in either group. *)
type rtype =
  | Read
  | Write
  | Original
  | Txn_op of int
  | Txn_commit of int
  | Txn_abort of int
  | Txn_prepare of int
  | Reshard_freeze of int
  | Reshard_install of int
  | Reshard_commit of int
  | Reshard_abort of int

let rtype_tag = function
  | Read -> 0
  | Write -> 1
  | Original -> 2
  | Txn_op _ -> 3
  | Txn_commit _ -> 4
  | Txn_abort _ -> 5
  | Txn_prepare _ -> 6
  | Reshard_freeze _ -> 7
  | Reshard_install _ -> 8
  | Reshard_commit _ -> 9
  | Reshard_abort _ -> 10

(* Constant labels: returning string literals keeps instrumented paths
   (e.g. [Leader_receive] span details) allocation-free. *)
let rtype_label = function
  | Read -> "read"
  | Write -> "write"
  | Original -> "original"
  | Txn_op _ -> "txn_op"
  | Txn_commit _ -> "txn_commit"
  | Txn_abort _ -> "txn_abort"
  | Txn_prepare _ -> "txn_prepare"
  | Reshard_freeze _ -> "reshard_freeze"
  | Reshard_install _ -> "reshard_install"
  | Reshard_commit _ -> "reshard_commit"
  | Reshard_abort _ -> "reshard_abort"

(* The transaction id or map epoch a request belongs to. *)
let rtype_arg = function
  | Read | Write | Original -> None
  | Txn_op t | Txn_commit t | Txn_abort t | Txn_prepare t | Reshard_freeze t
  | Reshard_install t | Reshard_commit t | Reshard_abort t ->
    Some t

let carries_op = function
  | Read | Write | Original | Txn_op _ -> true
  | _ -> false

let changes_state = function Write | Original | Txn_op _ -> true | _ -> false

let pp_rtype ppf rt =
  match rtype_arg rt with
  | None -> Format.pp_print_string ppf (rtype_label rt)
  | Some t -> Format.fprintf ppf "%s(%d)" (rtype_label rt) t

let encode_rtype e rt =
  Wire.Encoder.uint e (rtype_tag rt);
  Option.iter (Wire.Encoder.uint e) (rtype_arg rt)

let decode_rtype d =
  match Wire.Decoder.uint d with
  | 0 -> Read
  | 1 -> Write
  | 2 -> Original
  | 3 -> Txn_op (Wire.Decoder.uint d)
  | 4 -> Txn_commit (Wire.Decoder.uint d)
  | 5 -> Txn_abort (Wire.Decoder.uint d)
  | 6 -> Txn_prepare (Wire.Decoder.uint d)
  | 7 -> Reshard_freeze (Wire.Decoder.uint d)
  | 8 -> Reshard_install (Wire.Decoder.uint d)
  | 9 -> Reshard_commit (Wire.Decoder.uint d)
  | 10 -> Reshard_abort (Wire.Decoder.uint d)
  | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "bad rtype %d" n })

(** Causal trace context carried inside the request as it crosses
    process boundaries: the trace id shared by every span of one
    end-to-end request, and the span id of the sender-side span the next
    hop should parent its spans under. [no_trace] for untraced traffic —
    the hot paths branch on [tid = 0] and touch nothing else. *)
type trace_ctx = { tid : int; parent : string }

let no_trace = { tid = 0; parent = "" }

(** A client request. [payload] is the service operation, already encoded
    by the service codec; the replication layer never interprets it. *)
type request = {
  id : Ids.Request_id.t;
  rtype : rtype;
  payload : string;
  trace : trace_ctx;
}

let encode_request e (r : request) =
  Wire.Encoder.uint e (Ids.Client_id.to_int r.id.client);
  Wire.Encoder.uint e r.id.seq;
  encode_rtype e r.rtype;
  Wire.Encoder.string e r.payload;
  Wire.Encoder.uint e r.trace.tid;
  Wire.Encoder.string e r.trace.parent

let decode_request d : request =
  let client = Ids.Client_id.of_int (Wire.Decoder.uint d) in
  let seq = Wire.Decoder.uint d in
  let rtype = decode_rtype d in
  let payload = Wire.Decoder.string d in
  let tid = Wire.Decoder.uint d in
  let parent = Wire.Decoder.string d in
  { id = Ids.Request_id.make ~client ~seq; rtype; payload; trace = { tid; parent } }

type status =
  | Ok
  | Txn_aborted  (** transaction rolled back (explicit abort, conflict, or leader switch) *)
  | Txn_conflict  (** first-committer-wins conflict at commit *)
  | Retry
      (** the replica lost leadership while holding this request; the
          client should retransmit (it will reach the new leader) rather
          than wait out its retry timer *)
  | Overloaded of { retry_after_ms : float }
      (** the leader's admission window is full and the request was shed
          before entering the queue; the client should back off for at
          least [retry_after_ms] before retransmitting *)
  | Wrong_epoch of { epoch : int; map : string }
      (** the request touched a key this group no longer (or does not
          yet) own: the partition map moved under the client. [map] is
          the group's current encoded {!Grid_shard.Partition} map at
          [epoch]; the client adopts it and re-routes (DESIGN.md §17) *)

let pp_status ppf = function
  | Ok -> Format.pp_print_string ppf "ok"
  | Txn_aborted -> Format.pp_print_string ppf "aborted"
  | Txn_conflict -> Format.pp_print_string ppf "conflict"
  | Retry -> Format.pp_print_string ppf "retry"
  | Overloaded { retry_after_ms } ->
    Format.fprintf ppf "overloaded(retry_after=%.1fms)" retry_after_ms
  | Wrong_epoch { epoch; map } ->
    Format.fprintf ppf "wrong_epoch(e=%d,map=%dB)" epoch (String.length map)

(* A final status completes the request at the client; [Retry] and
   [Overloaded] are pushback — the request is still pending and will be
   retransmitted. Checkers use this to decide which replies count.
   [Wrong_epoch] is final: retransmitting to the same group can never
   succeed — the router must re-route under the carried map. *)
let status_is_final = function
  | Ok | Txn_aborted | Txn_conflict | Wrong_epoch _ -> true
  | Retry | Overloaded _ -> false

type reply = { req : Ids.Request_id.t; status : status; payload : string }

let status_tag = function
  | Ok -> 0
  | Txn_aborted -> 1
  | Txn_conflict -> 2
  | Retry -> 3
  | Overloaded _ -> 4
  | Wrong_epoch _ -> 5

let encode_status e s =
  Wire.Encoder.uint e (status_tag s);
  match s with
  | Ok | Txn_aborted | Txn_conflict | Retry -> ()
  | Overloaded { retry_after_ms } -> Wire.Encoder.float e retry_after_ms
  | Wrong_epoch { epoch; map } ->
    Wire.Encoder.uint e epoch;
    Wire.Encoder.string e map

let decode_status d =
  match Wire.Decoder.uint d with
  | 0 -> Ok
  | 1 -> Txn_aborted
  | 2 -> Txn_conflict
  | 3 -> Retry
  | 4 -> Overloaded { retry_after_ms = Wire.Decoder.float d }
  | 5 ->
    let epoch = Wire.Decoder.uint d in
    let map = Wire.Decoder.string d in
    Wrong_epoch { epoch; map }
  | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "bad status %d" n })

let encode_reply e (r : reply) =
  Wire.Encoder.uint e (Ids.Client_id.to_int r.req.client);
  Wire.Encoder.uint e r.req.seq;
  encode_status e r.status;
  Wire.Encoder.string e r.payload

let decode_reply d : reply =
  let client = Ids.Client_id.of_int (Wire.Decoder.uint d) in
  let seq = Wire.Decoder.uint d in
  let status = decode_status d in
  let payload = Wire.Decoder.string d in
  { req = Ids.Request_id.make ~client ~seq; status; payload }

(** The state shipped inside an accepted proposal (§3.3). [Full] carries
    the whole encoded service state; [Delta] a service-specific diff
    against the previous committed state; [Witness] only the
    determinization information needed to re-execute the request
    deterministically at every replica (the paper's first
    overhead-reduction option). *)
type state_update = Full of string | Delta of string | Witness of string

let state_update_size = function Full s | Delta s | Witness s -> String.length s

let encode_state_update e = function
  | Full s ->
    Wire.Encoder.uint e 0;
    Wire.Encoder.string e s
  | Delta s ->
    Wire.Encoder.uint e 1;
    Wire.Encoder.string e s
  | Witness s ->
    Wire.Encoder.uint e 2;
    Wire.Encoder.string e s

let decode_state_update d =
  let tag = Wire.Decoder.uint d in
  let s = Wire.Decoder.string d in
  match tag with
  | 0 -> Full s
  | 1 -> Delta s
  | 2 -> Witness s
  | n ->
    raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "bad state_update %d" n })

(** One value proposed/accepted in a consensus instance: the request
    batch (singleton outside T-Paxos), the state after executing it, and
    the replies produced. This tuple is the paper's [<req, state>]; we
    additionally replicate the replies so that after a leader switch the
    new leader can re-answer duplicate requests it never executed. *)
type proposal = { requests : request list; update : state_update; replies : reply list }

let encode_proposal e (p : proposal) =
  Wire.Encoder.list e (encode_request e) p.requests;
  encode_state_update e p.update;
  Wire.Encoder.list e (encode_reply e) p.replies

let decode_proposal d : proposal =
  let requests = Wire.Decoder.list d decode_request in
  let update = decode_state_update d in
  let replies = Wire.Decoder.list d decode_reply in
  { requests; update; replies }

(** A log entry carried in recovery messages. *)
type recovery_entry = { instance : int; ballot : Ballot.t; proposal : proposal }

type msg =
  | Client_req of request
  | Reply_msg of reply
  | Prepare of { ballot : Ballot.t; commit_point : int }
      (** New leader's multi-instance prepare; [commit_point] tells
          replicas which entries the leader already knows committed. *)
  | Prepare_ack of {
      ballot : Ballot.t;
      commit_point : int;  (** the follower's committed prefix *)
      snapshot : string option;
          (** encoded snapshot, present iff the follower is ahead of the
              leader's [commit_point] *)
      accepted : recovery_entry list;
          (** accepted-but-not-committed entries above both commit points *)
    }
  | Accept of { ballot : Ballot.t; instance : int; proposal : proposal }
  | Accept_ack of { ballot : Ballot.t; instance : int }
  | Reject of { promised : Ballot.t }
      (** Nack carrying the higher promise that caused the rejection. *)
  | Commit of { ballot : Ballot.t; instance : int }
  | Read_confirm of { ballot : Ballot.t; req : Ids.Request_id.t; lease_anchor : float }
      (** X-Paxos: follower confirms leadership to the highest-ballot
          holder it has accepted, naming the read it saw. [lease_anchor]
          piggybacks a lease renewal: the [sent_at] of the leader
          heartbeat the sender's current grant is anchored to ([nan] when
          it holds no grant or leases are disabled). *)
  | Heartbeat of {
      round_seen : int;
      commit_point : int;
      promised : Ballot.t;
      sent_at : float;
          (** sender's local clock at send time; followers anchor lease
              grants to the leader's [sent_at] so expiry can be compared
              leader-clock against leader-clock *)
      lease_anchor : float;
          (** grant echo, as in [Read_confirm]; [nan] when none *)
    }
  | Catchup_req of { from_instance : int }
  | Catchup of { snapshot : string }

(* A tag is the stable on-wire identity of a constructor and must never
   be renumbered. [encode_msg] writes it; [decode_msg] maps it back. *)
let msg_tag = function
  | Client_req _ -> 0
  | Reply_msg _ -> 1
  | Prepare _ -> 2
  | Prepare_ack _ -> 3
  | Accept _ -> 4
  | Accept_ack _ -> 5
  | Reject _ -> 6
  | Commit _ -> 7
  | Read_confirm _ -> 8
  | Heartbeat _ -> 9
  | Catchup_req _ -> 10
  | Catchup _ -> 11

(* The body codec below is protocol version 1: the seed's unversioned
   encoding, kept byte-identical so every build since the seed can talk
   to this one (test_wire pins its bytes). *)

let encode_msg e m =
  Wire.Encoder.uint e (msg_tag m);
  match m with
  | Client_req r -> encode_request e r
  | Reply_msg r -> encode_reply e r
  | Prepare { ballot; commit_point } ->
    Ballot.encode e ballot;
    Wire.Encoder.uint e commit_point
  | Prepare_ack { ballot; commit_point; snapshot; accepted } ->
    Ballot.encode e ballot;
    Wire.Encoder.uint e commit_point;
    Wire.Encoder.option e (Wire.Encoder.string e) snapshot;
    Wire.Encoder.list e
      (fun (entry : recovery_entry) ->
        Wire.Encoder.uint e entry.instance;
        Ballot.encode e entry.ballot;
        encode_proposal e entry.proposal)
      accepted
  | Accept { ballot; instance; proposal } ->
    Ballot.encode e ballot;
    Wire.Encoder.uint e instance;
    encode_proposal e proposal
  | Accept_ack { ballot; instance } ->
    Ballot.encode e ballot;
    Wire.Encoder.uint e instance
  | Reject { promised } -> Ballot.encode e promised
  | Commit { ballot; instance } ->
    Ballot.encode e ballot;
    Wire.Encoder.uint e instance
  | Read_confirm { ballot; req; lease_anchor } ->
    Ballot.encode e ballot;
    Wire.Encoder.uint e (Ids.Client_id.to_int req.client);
    Wire.Encoder.uint e req.seq;
    Wire.Encoder.float e lease_anchor
  | Heartbeat { round_seen; commit_point; promised; sent_at; lease_anchor } ->
    Wire.Encoder.uint e round_seen;
    Wire.Encoder.uint e commit_point;
    Ballot.encode e promised;
    Wire.Encoder.float e sent_at;
    Wire.Encoder.float e lease_anchor
  | Catchup_req { from_instance } -> Wire.Encoder.uint e from_instance
  | Catchup { snapshot } -> Wire.Encoder.string e snapshot

let decode_msg d =
  match Wire.Decoder.uint d with
  | 0 -> Client_req (decode_request d)
  | 1 -> Reply_msg (decode_reply d)
  | 2 ->
    let ballot = Ballot.decode d in
    let commit_point = Wire.Decoder.uint d in
    Prepare { ballot; commit_point }
  | 3 ->
    let ballot = Ballot.decode d in
    let commit_point = Wire.Decoder.uint d in
    let snapshot = Wire.Decoder.option d Wire.Decoder.string in
    let accepted =
      Wire.Decoder.list d (fun d ->
          let instance = Wire.Decoder.uint d in
          let ballot = Ballot.decode d in
          let proposal = decode_proposal d in
          { instance; ballot; proposal })
    in
    Prepare_ack { ballot; commit_point; snapshot; accepted }
  | 4 ->
    let ballot = Ballot.decode d in
    let instance = Wire.Decoder.uint d in
    let proposal = decode_proposal d in
    Accept { ballot; instance; proposal }
  | 5 ->
    let ballot = Ballot.decode d in
    let instance = Wire.Decoder.uint d in
    Accept_ack { ballot; instance }
  | 6 -> Reject { promised = Ballot.decode d }
  | 7 ->
    let ballot = Ballot.decode d in
    let instance = Wire.Decoder.uint d in
    Commit { ballot; instance }
  | 8 ->
    let ballot = Ballot.decode d in
    let client = Ids.Client_id.of_int (Wire.Decoder.uint d) in
    let seq = Wire.Decoder.uint d in
    let lease_anchor = Wire.Decoder.float d in
    Read_confirm { ballot; req = Ids.Request_id.make ~client ~seq; lease_anchor }
  | 9 ->
    let round_seen = Wire.Decoder.uint d in
    let commit_point = Wire.Decoder.uint d in
    let promised = Ballot.decode d in
    let sent_at = Wire.Decoder.float d in
    let lease_anchor = Wire.Decoder.float d in
    Heartbeat { round_seen; commit_point; promised; sent_at; lease_anchor }
  | 10 -> Catchup_req { from_instance = Wire.Decoder.uint d }
  | 11 -> Catchup { snapshot = Wire.Decoder.string d }
  | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "bad msg tag %d" n })

(* Approximate wire size, for the simulator's bandwidth model: payload
   bytes plus a small fixed header per field. *)
let request_size (r : request) = String.length r.payload + 16
let reply_size (r : reply) = String.length r.payload + 16

let proposal_size (p : proposal) =
  List.fold_left (fun acc r -> acc + request_size r) 0 p.requests
  + state_update_size p.update
  + List.fold_left (fun acc r -> acc + reply_size r) 0 p.replies
  + 8

let msg_size = function
  | Client_req r -> request_size r + 8
  | Reply_msg r -> reply_size r + 8
  | Prepare _ -> 24
  | Prepare_ack { snapshot; accepted; _ } ->
    24
    + (match snapshot with Some s -> String.length s | None -> 0)
    + List.fold_left (fun acc (e : recovery_entry) -> acc + proposal_size e.proposal) 0
        accepted
  | Accept { proposal; _ } -> 24 + proposal_size proposal
  | Accept_ack _ -> 24
  | Reject _ -> 16
  | Commit _ -> 24
  | Read_confirm _ -> 32
  | Heartbeat _ -> 32
  | Catchup_req _ -> 16
  | Catchup { snapshot } -> 16 + String.length snapshot

(* Every message kind, in tag order — per-kind metric registration and
   the wire benches iterate this instead of hand-maintaining a list. *)
let all_msg_kinds =
  [
    "client_req"; "reply"; "prepare"; "prepare_ack"; "accept"; "accept_ack";
    "reject"; "commit"; "read_confirm"; "heartbeat"; "catchup_req"; "catchup";
  ]

let msg_kind = function
  | Client_req _ -> "client_req"
  | Reply_msg _ -> "reply"
  | Prepare _ -> "prepare"
  | Prepare_ack _ -> "prepare_ack"
  | Accept _ -> "accept"
  | Accept_ack _ -> "accept_ack"
  | Reject _ -> "reject"
  | Commit _ -> "commit"
  | Read_confirm _ -> "read_confirm"
  | Heartbeat _ -> "heartbeat"
  | Catchup_req _ -> "catchup_req"
  | Catchup _ -> "catchup"

(** Timers a replica can arm. Timers are never cancelled explicitly:
    handlers re-check state and ignore stale firings, which keeps driver
    plumbing trivial. *)
type timer =
  | Hb_tick  (** periodic heartbeat broadcast *)
  | Suspicion_tick  (** periodic liveness evaluation *)
  | Stability_check of int
      (** candidate hold-down started while observing this round *)
  | Accept_retry of int  (** instance number *)
  | Prepare_retry of int  (** ballot round *)
  | Exec_done of int  (** execution-cost token *)
  | Client_retry of int  (** client-side retransmission, by sequence *)

type input = Receive of { src : int; msg : msg } | Timer of timer

(** Node-id convention: replicas occupy [0 .. n-1]; client [c] is node
    [client_node_base + c]. Drivers and engines share this mapping. *)
let client_node_base = 10_000

let client_node c = client_node_base + Ids.Client_id.to_int c
let node_is_client node = node >= client_node_base

type action =
  | Send of { dst : int; msg : msg }
  | After of { delay : float; timer : timer }
  | Note of string  (** trace hint; drivers may log or ignore *)

let send ~dst msg = Send { dst; msg }
let after ~delay timer = After { delay; timer }
