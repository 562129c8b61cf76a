(* Online invariant watchdogs: the offline stress oracles (duplicate
   commit, lost acknowledged write, stale read, lease mutual exclusion)
   recast as cheap runtime checkers that run inside the replica on every
   commit/reply instead of post-hoc over a recorded outcome.

   A [t] is the shared sink for one process/runtime: it owns the
   violation count, the per-check counters when given a [Metrics.t]
   (they reach the Prometheus exposition as [grid_watchdog_*_total])
   and the cross-replica lease view. Each replica incarnation gets its own
   [monitor] holding the per-replica commit table; a monitor dies with
   its incarnation and is re-seeded from storage on recovery, so a
   legitimately re-proposed request after a torn persist never counts as
   a duplicate.

   Every check is a single branch when the sink is disabled. This module
   stays independent of [grid_paxos]: it sees only ints, floats and
   strings. *)

type check = Dup_commit | Lost_ack | Stale_read | Lease_conflict

let check_name = function
  | Dup_commit -> "dup_commit"
  | Lost_ack -> "lost_ack"
  | Stale_read -> "stale_read"
  | Lease_conflict -> "lease_conflict"

exception Violation of string

type t = {
  enabled : bool;
  fail_stop : bool;
  mutable total : int;
  on_violation : check:string -> detail:string -> unit;
  (* the cross-replica lease view, per replica group (shards lease
     independently): last claimed holder and the local time its lease
     runs out (on the holder's clock) *)
  leases : (string, string * float) Hashtbl.t;
  m_total : Metrics.counter option;
  m_dup : Metrics.counter option;
  m_lost : Metrics.counter option;
  m_stale : Metrics.counter option;
  m_lease : Metrics.counter option;
}

let create ?(fail_stop = false) ?metrics ?(on_violation = fun ~check:_ ~detail:_ -> ())
    () =
  let reg name help =
    Option.map (fun m -> Metrics.counter m name ~help) metrics
  in
  {
    enabled = true;
    fail_stop;
    total = 0;
    on_violation;
    leases = Hashtbl.create 4;
    m_total =
      reg "grid_watchdog_violations_total"
        "Runtime invariant violations caught by the watchdogs";
    m_dup =
      reg "grid_watchdog_dup_commit_total"
        "Requests observed committing at two different instances";
    m_lost =
      reg "grid_watchdog_lost_ack_total"
        "Ok replies sent for writes with no recorded commit";
    m_stale =
      reg "grid_watchdog_stale_read_total"
        "Reads answered from a state older than their admission watermark";
    m_lease =
      reg "grid_watchdog_lease_conflict_total"
        "Lease-local reads served while another replica's lease was live";
  }

let disabled =
  let t = create () in
  { t with enabled = false }

let violations t = t.total

let reset t =
  t.total <- 0;
  Hashtbl.reset t.leases

let fire t which detail =
  t.total <- t.total + 1;
  Option.iter Metrics.inc t.m_total;
  Option.iter Metrics.inc
    (match which with
    | Dup_commit -> t.m_dup
    | Lost_ack -> t.m_lost
    | Stale_read -> t.m_stale
    | Lease_conflict -> t.m_lease);
  t.on_violation ~check:(check_name which) ~detail;
  if t.fail_stop then
    raise (Violation (Printf.sprintf "watchdog[%s]: %s" (check_name which) detail))

(* ------------------------------------------------------------------ *)
(* Per-replica monitor                                                  *)

type monitor = {
  sink : t;
  actor : string;
  group : string;
      (* which lease domain this replica belongs to: the shard prefix of
         the actor label ("s1/r0" -> "s1/", plain "r0" -> ""), since
         every group leases independently *)
  committed : (int * int, int) Hashtbl.t;  (* (client, seq) -> instance *)
  order : (int * int) Queue.t;  (* insertion order, for bounded eviction *)
  capacity : int;
}

let monitor ?(capacity = 65536) sink ~actor =
  let group =
    match String.rindex_opt actor '/' with
    | Some i -> String.sub actor 0 (i + 1)
    | None -> ""
  in
  { sink; actor; group; committed = Hashtbl.create 256; order = Queue.create (); capacity }

let remember m key instance =
  if not (Hashtbl.mem m.committed key) then begin
    if Queue.length m.order >= m.capacity then begin
      match Queue.take_opt m.order with
      | Some old -> Hashtbl.remove m.committed old
      | None -> ()
    end;
    Queue.add key m.order
  end;
  Hashtbl.replace m.committed key instance

(* Seeding (log replay at recovery, or a known-good commit fed by a
   driver) records without checking: these commits were already
   validated in a previous incarnation. *)
let seed_commit m ~client ~seq ~instance =
  if m.sink.enabled then remember m (client, seq) instance

let record_commit m ~client ~seq ~instance =
  if m.sink.enabled then begin
    let key = (client, seq) in
    (match Hashtbl.find_opt m.committed key with
    | Some i when i <> instance ->
      fire m.sink Dup_commit
        (Printf.sprintf "%s: request c%d#%d committed at instance %d and again at %d"
           m.actor client seq i instance)
    | _ -> ());
    remember m key instance
  end

let write_acked m ~client ~seq =
  if m.sink.enabled && not (Hashtbl.mem m.committed (client, seq)) then
    fire m.sink Lost_ack
      (Printf.sprintf "%s: Ok reply for write c%d#%d with no recorded commit" m.actor
         client seq)

let read_replied m ~client ~seq ~watermark ~exec_point =
  if m.sink.enabled && exec_point < watermark then
    fire m.sink Stale_read
      (Printf.sprintf
         "%s: read c%d#%d answered at instance %d below its admission watermark %d"
         m.actor client seq exec_point watermark)

(* Lease mutual exclusion: a replica claiming the lease (serving a
   lease-local read) while another replica's claim is still live — with
   [slack_ms] of allowance for the configured clock-skew bound — means
   two leaders both believed they could answer reads locally. *)
let lease_claimed m ~now ~until ~slack_ms =
  if m.sink.enabled then begin
    let s = m.sink in
    let prev = Hashtbl.find_opt s.leases m.group in
    (match prev with
    | Some (holder, h_until) when holder <> m.actor && now +. slack_ms < h_until ->
      fire s Lease_conflict
        (Printf.sprintf
           "%s: lease claimed at %.3f while %s holds one until %.3f (slack %.3f ms)"
           m.actor now holder h_until slack_ms)
    | _ -> ());
    (* A holder's window only extends (reordered claims must not shrink
       it); a change of holder starts a fresh window. *)
    let carry =
      match prev with
      | Some (holder, u) when holder = m.actor -> Float.max until u
      | _ -> until
    in
    Hashtbl.replace s.leases m.group (m.actor, carry)
  end
