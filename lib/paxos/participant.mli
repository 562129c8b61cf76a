(** Replica-level participant state for cross-shard 2PC (DESIGN.md §16)
    and elastic resharding (§17), derived from committed instances only:
    [track] runs on every committed instance on every path (live commit,
    catch-up replay, crash-recovery replay), and the snapshot codecs
    carry the state across log pruning. A failover leader therefore
    honours the votes and migrations of its predecessor. *)

module Txn : sig
  (** A cross-shard transaction branch locked in by a committed 2PC
      prepare instance. Its footprint stays locked — conflicting writes
      wait, conflicting transaction commits abort — until the
      commit/abort decision instance releases it. *)
  type branch = {
    p_ops : (Types.request * string option) list;  (** in order, with witnesses *)
    p_replies : Types.reply list;  (** in order *)
    p_footprint : string list;
  }

  val encode_branch : branch -> string
  (** The payload a committed [Txn_prepare] carries. *)

  type t

  val create : unit -> t
  val track : t -> Types.request list -> unit
  val find : t -> int -> branch option
  val outcome : t -> int -> bool option
  (** Decision tombstone: [Some true] committed, [Some false] aborted. *)

  val tids : t -> int list
  (** Prepared, undecided tids, ascending. *)

  val locks : t -> Footprint.locks
  (** One [Prepared] holder per branch. *)

  val snapshot : t -> (int * string) list * (int * bool) list
  (** [(prepared, outcomes)] in {!Snapshot} form. *)

  val install : t -> prepared:(int * string) list -> outcomes:(int * bool) list -> unit
end

module Reshard : sig
  type t = private {
    mutable epoch : int;  (** highest committed map epoch *)
    mutable map : string;  (** encoded map at [epoch]; [""] = seed *)
    mutable frozen : (int * string * string option * int) option;
        (** (epoch, lo, hi, target): committed FREEZE awaiting decision *)
    mutable installed : (int * string * string option * int) option;
        (** (epoch, lo, hi, count): committed INSTALL awaiting decision *)
    mutable moved : Footprint.range list;
        (** ranges handed away: requests touching them get [Wrong_epoch] *)
    aborted : (int, unit) Hashtbl.t;  (** abort tombstones, by epoch *)
    mutable imported : int;  (** items absorbed via INSTALL commits *)
  }

  val create : unit -> t
  val track : t -> Types.request list -> unit
  val aborted : t -> int -> bool

  val wrong_epoch : t -> Types.status
  (** [Wrong_epoch] carrying the current map: the redirect for requests
      touching a range this group handed away. *)

  val phase : t -> string
  (** ["idle"], ["frozen"] or ["installing"]. *)

  val locks : t -> Footprint.locks
  (** [Moved] holders for the handed-away ranges, a [Frozen] one for the
      moving range. *)

  val encode : t -> string
  (** The {!Snapshot} section ({!Reshard_wire.participant}). *)

  val install : t -> string -> unit
  (** Adopt a snapshot section. One that does not decode — [""] on an
      image persisted before resharding existed — keeps the derived view. *)
end
