(** Stable storage for replicas.

    The protocol requires three things to survive a crash: the promised
    ballot, accepted log entries, and the commit point (plus a state
    snapshot so recovery does not replay from the beginning). Storage is
    a record of synchronous persist hooks so engines stay pure; three
    backends are provided:

    - {!null}: persists nothing (benchmarks — the paper's evaluation does
      not model disk latency either);
    - {!memory}: keeps the persisted image in memory (crash-recovery
      tests that simulate losing volatile state only);
    - {!file}: an append-only CRC-protected log plus snapshot file;
    - {!faulty}: a nemesis wrapper over any backend that injects torn
      writes (crash mid-persist) and lost fsyncs. *)

type persisted = {
  promised : Types.Ballot.t;
  entries : Types.recovery_entry list;  (** accepted entries, any order *)
  commit_point : int;
  snapshot : string option;  (** encoded {!Snapshot.t} *)
}

type t = {
  persist_promise : Types.Ballot.t -> unit;
  persist_entry : instance:int -> ballot:Types.Ballot.t -> Types.proposal -> unit;
  persist_commit : int -> unit;
  persist_snapshot : string -> unit;
}

val null : unit -> t

val memory : unit -> t * (unit -> persisted)
(** The second component reads back the current persisted image. *)

type recovery_report = {
  frames_ok : int;  (** CRC-valid frames replayed *)
  records_dropped : int;  (** CRC-valid frames whose body failed to decode *)
  bytes_salvaged : int;  (** length of the valid log prefix *)
  bytes_dropped : int;  (** corrupt suffix abandoned (0 on a clean log) *)
  torn_tail : bool;  (** the log ended in a truncated / CRC-failed record *)
  interior_corruption : bool;
      (** a corrupt record had valid-looking data behind it (bit flip or
          partial overwrite); the suffix cannot be trusted and is dropped *)
  snapshot_used : bool;
  snapshot_corrupt : bool;  (** snapshot file present but failed its CRC *)
  log_truncated : bool;  (** the log was cut back to its valid prefix *)
}

val pp_report : Format.formatter -> recovery_report -> unit

val file : path:string -> t * persisted option * recovery_report
(** Open (or create) a file-backed store; returns the recovered image if
    the files already existed and were non-empty, plus a report of what
    recovery had to repair. Corruption never raises: the valid log prefix
    is salvaged (and the file truncated to it so future appends stay
    readable), a corrupt snapshot falls back to log replay, and any
    instances lost with the corrupt suffix are resynced from peers at
    runtime — {!Replica.load} tolerates the resulting holes and the
    replica catches up through the existing multi-instance prepare /
    snapshot catch-up path. *)

(** {1 Nemesis} *)

exception Crashed
(** Raised by a {!faulty} store to model the process dying mid-persist:
    the record is lost and the engine step that issued it never completes,
    so no message guarded by the persist escapes — which is what makes
    torn-write injection sound for the safety checkers. *)

type fault_ctl = {
  mutable tear_rate : float;  (** probability a persist raises {!Crashed} *)
  mutable drop_rate : float;  (** probability a persist is silently lost *)
  mutable drop_meta_only : bool;
      (** restrict drops to commit-point/snapshot records, whose loss is
          always repairable (defaults to [true]; dropping promise or entry
          records models real fsync lies but can genuinely break Paxos's
          durability contract — only safe for degradation experiments) *)
  mutable torn : int;  (** counters, for assertions and reports *)
  mutable dropped : int;
}

val faulty :
  rng:Grid_util.Rng.t ->
  ?tear_rate:float ->
  ?drop_rate:float ->
  ?drop_meta_only:bool ->
  t ->
  t * fault_ctl
(** Wrap a store with seeded fault dice. Rates default to [0.]; mutate
    the returned {!fault_ctl} to steer injection mid-run (e.g. disable
    tearing during a drain phase). *)
