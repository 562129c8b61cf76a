(** The contract between the replication layer and a (possibly
    nondeterministic) service.

    The replication engines never interpret operations or states: they
    move encoded bytes. The two hooks that make nondeterminism safe are:

    - {b state shipping}: [apply] runs only at the leader, with the
      leader's RNG and clock injected; the resulting state is shipped to
      the backups via {!Types.state_update} ([Full] or [Delta]);
    - {b determinization witnesses}: [apply] may return a witness — the
      nondeterministic choices it made (random draws, observed clock) —
      and [replay] re-derives the identical transition from it. This is
      the paper's first overhead-reduction option (§3.3) and is also how
      T-Paxos rebases transactions at commit time. *)

module type S = sig
  val name : string

  type state
  type op
  type result

  val initial : unit -> state

  val classify : op -> [ `Read | `Write ]
  (** Whether the operation changes service state. Read operations may be
      coordinated with X-Paxos. *)

  type outcome = {
    state : state;
    result : result;
    witness : string option;
        (** Encoded nondeterministic choices, sufficient for {!replay};
            [None] if the operation happened to be deterministic. *)
  }

  val apply : rng:Grid_util.Rng.t -> now:float -> state -> op -> outcome
  (** Execute [op]. Runs at the leader only. [now] is the leader's local
      clock in milliseconds — services whose behaviour depends on local
      time (the grid scheduler of §2) read it from here. *)

  val replay : state -> op -> witness:string -> state * result
  (** Deterministically re-derive the transition of [apply] from its
      witness. Must satisfy: if [apply ~rng ~now s op] returned
      [{state = s'; result = r; witness = Some w}] then
      [replay s op ~w = (s', r)]. *)

  val footprint : op -> string list
  (** Abstract keys touched by the operation, for T-Paxos first-committer-
      wins conflict detection. [\["*"\]] conflicts with everything; [\[\]]
      conflicts with nothing (pure reads). *)

  (** {1 Codecs} *)

  val encode_op : op -> string
  val decode_op : string -> op
  val encode_result : result -> string
  val decode_result : string -> result
  val encode_state : state -> string
  val decode_state : string -> state

  (** {1 Optional delta shipping} *)

  val diff : old_state:state -> state -> string option
  (** A compact encoding of [state] given [old_state]; [None] to fall
      back to full-state shipping. *)

  val diff_keys : old_state:state -> string list -> state -> string option
  (** [diff_keys ~old_state keys state] returns exactly the bytes of
      [diff ~old_state state], given [keys] that cover the {!footprint}
      of every write leading from [old_state] to [state]: a service
      whose footprints name its state compares only those keys. [keys]
      never holds ["*"]; the leader calls {!diff} then. A service whose
      footprints do not name its state defines it as [fun ~old_state _ s
      -> diff ~old_state s]. *)

  val patch : state -> string -> state
  (** Apply a diff produced by {!diff}. *)

  (** {1 Optional range handoff (elastic resharding, DESIGN.md §17)}

      Services whose footprint keys form an ordered keyspace can export
      the slice of their state owned by a key range and absorb such a
      slice shipped from another group. The range bounds are {e
      footprint} keys ([lo] inclusive, [hi] exclusive, [None] = top of
      the keyspace) — the same vocabulary {!footprint} speaks, so the
      reshard coordinator never learns service internals. *)

  val export_range : state -> lo:string -> hi:string option -> (int * string) option
  (** [(count, blob)]: how many items the slice covers (admin counters)
      and the encoded slice of the state owned by [\[lo, hi)]; [None] if
      this service does not support range handoff (the reshard
      coordinator then refuses to move its shards). *)

  val import_range : state -> string -> state
  (** Absorb a slice produced by {!export_range} on another replica's
      state. Must be idempotent: installing the same slice twice yields
      the same state (duplicate INSTALL delivery is legal). *)
end
