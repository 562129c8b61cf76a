(** The replica's log of accepted proposals (§3.3).

    Instances are numbered from 1. Each entry records the highest-ballot
    proposal accepted for its instance and whether it is known chosen.
    The {e commit point} is the largest [i] such that instances [1..i]
    are all committed; per the paper, replicas must remember the requests
    of all accepted proposals but only the state of the latest one, so
    committed entries below the commit point can be {e pruned} — their
    state update is dropped, the requests and replies stay. *)

type entry = {
  ballot : Types.Ballot.t;
  proposal : Types.proposal;
  committed : bool;
  pruned : bool;  (** state update replaced by a zero-byte placeholder *)
}

type t

val create : unit -> t
val commit_point : t -> int
val get : t -> int -> entry option

val accept : t -> instance:int -> ballot:Types.Ballot.t -> Types.proposal -> bool
(** Record an accepted proposal. Overwrites an existing uncommitted entry
    only when [ballot] is at least as high; never overwrites a committed
    entry. Returns whether the entry was stored. *)

val commit : t -> instance:int -> bool
(** Mark an instance committed and advance the commit point over any
    contiguous committed prefix. Returns [false] if the instance has no
    accepted entry (caller should catch up). *)

val install_commit_point : t -> int -> unit
(** Jump the commit point forward after installing a snapshot; entries at
    or below it are dropped. *)

val accepted_above : t -> int -> Types.recovery_entry list
(** Accepted (committed or not), unpruned entries with instance > the
    argument, in increasing instance order — the payload of a
    [Prepare_ack]. *)

val prune_below : t -> int -> unit
(** Drop the state updates of committed entries at or below the given
    instance (keeps requests and replies for recovery/dedup). *)

val committed_requests : t -> Types.request list
(** All requests in committed entries, in instance order (test helper;
    O(n log n)). *)
