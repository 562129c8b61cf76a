(** The nemesis stress harness: seeded model-checker schedules with the
    full cross-layer fault mix — clean and torn-persist crashes, silent
    metadata loss, message duplication and cross-channel reordering —
    asserting on every schedule that

    - {b agreement} holds (same ⟨batch, state⟩ per instance, in-order
      application, exactly-once commits);
    - {b durability} holds (a replica revived from its persisted image
      carries exactly the committed prefix the group observed);
    - the {b client-visible history is linearizable} against the service
      model (checked when every request was answered);
    - {b no stale reads}: every read's first reply reflects the writes
      committed before it was issued ({!Mcheck.outcome.stale_reads}) —
      the invariant the leader-lease fast path must preserve under clock
      drift and leader failovers.

    Failing schedules are replayed deterministically from their recorded
    fault {!Mcheck.plan} and greedily shrunk to a minimal plan that still
    fails. *)

type service = Counter_service | Kv_service

val service_name : service -> string

val default_nemesis : Mcheck.nemesis
(** The standard stress mix: rare crashes (30% torn), 3% duplication and
    reordering per delivery, 5% metadata-record loss per persist. No
    clock drift — existing seeds replay unchanged. *)

type failure = {
  seed : int;
  service : service;
  reasons : string list;  (** human-readable violation descriptions *)
  plan : Mcheck.plan;  (** the fault plan of the failing run *)
  shrunk : Mcheck.plan option;  (** minimal still-failing plan, if shrunk *)
}

type summary = {
  schedules : int;
  failures : failure list;
  unreplied : int;  (** schedules where the drain left requests unanswered *)
  crashes : int;
  torn_persists : int;
  meta_dropped : int;
  duplicated : int;
  reordered : int;
  drifted : int;  (** clock-drift injections across the batch *)
  shed : int;  (** [Overloaded] pushbacks across the batch *)
  admitted_p99_max : float;
      (** worst per-schedule p99 of admitted-request latency (virtual ms);
          [0.] when no schedule completed a request *)
  delivered : int;
  replies : int;
  watchdog_violations : int;
      (** online invariant checks ({!Grid_obs.Watchdog}) that fired inside
          the replicas across the batch; a non-zero count also surfaces as
          a failure reason on the offending schedule *)
}

val run_one :
  service:service ->
  ?obs:Grid_obs.Span.Recorder.t ->
  ?steps:int ->
  ?nemesis:Mcheck.nemesis ->
  ?disable_dedup:bool ->
  ?cfg_tweak:(Grid_paxos.Config.t -> Grid_paxos.Config.t) ->
  ?admitted_p99_bound_ms:float ->
  ?shrink:bool ->
  seed:int ->
  unit ->
  Mcheck.outcome * failure option
(** One seeded schedule over a generated workload (3 closed-loop clients,
    mixed reads and writes, derived from the seed). [obs] receives the
    replicas' lifecycle spans (deterministic per seed). [disable_dedup]
    plants the double-commit bug for shrinker demonstrations; [cfg_tweak]
    edits the group config, e.g. to enable leader leases. *)

val run :
  ?services:service list ->
  ?schedules:int ->
  ?base_seed:int ->
  ?steps:int ->
  ?nemesis:Mcheck.nemesis ->
  ?disable_dedup:bool ->
  ?cfg_tweak:(Grid_paxos.Config.t -> Grid_paxos.Config.t) ->
  ?shrink:bool ->
  ?progress:(summary -> unit) ->
  unit ->
  summary
(** [run ()] spreads [schedules] seeds ([base_seed], [base_seed+1], …)
    round-robin over [services] (default: counter and kv) and aggregates
    the results. *)

val run_overload :
  ?schedules:int ->
  ?base_seed:int ->
  ?steps:int ->
  ?nemesis:Mcheck.nemesis ->
  ?max_inflight:int ->
  ?max_queue:int ->
  ?admitted_p99_bound_ms:float ->
  ?shrink:bool ->
  ?progress:(summary -> unit) ->
  unit ->
  summary
(** The overload tier: [schedules] seeded runs of the counter service
    under a write-heavy workload with a deliberately tiny admission
    window ([max_inflight], [max_queue]; defaults 2/2), driven by
    {!default_nemesis} with the crash rate doubled, so shed requests and
    backoff retransmissions must survive leader churn. On top of the
    usual oracles, every schedule checks that no [Ok]-acknowledged write
    was lost ({!Mcheck.outcome.lost_admitted}) and that the p99 latency
    of admitted requests stays under [admitted_p99_bound_ms] (virtual
    ms, default 120 s). The returned summary's [shed] counts the pushbacks
    actually exercised. *)

(** Per-service plan replay, for targeted tests and the CLI's replay
    mode. *)
module Counter_harness : sig
  val replay_plan :
    ?steps:int ->
    ?meta_drop_prob:float ->
    ?disable_dedup:bool ->
    ?cfg_tweak:(Grid_paxos.Config.t -> Grid_paxos.Config.t) ->
    ?admitted_p99_bound_ms:float ->
    seed:int ->
    plan:Mcheck.plan ->
    unit ->
    Mcheck.outcome * string list
  (** Replay a plan under the seed's workload; returns the outcome and
      the violation reasons (empty = passed). *)
end

module Kv_harness : module type of Counter_harness

val pp_failure : Format.formatter -> failure -> unit
val pp_summary : Format.formatter -> summary -> unit
