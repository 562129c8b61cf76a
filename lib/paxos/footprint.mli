(** Footprints and the replica's single footprint lock table
    (DESIGN.md §18).

    A footprint is the list of abstract keys a service op touches
    ({!Service_intf.S.footprint}): ["*"] touches everything, [[]]
    touches nothing. Reshard ranges are footprint-key intervals. One
    intersection rule covers keys, the wildcard and ranges, and one lock
    table holds everything a batched work item can run into: ranges this
    group handed away or is moving, prepared 2PC branches, and what
    earlier items of the same batch wrote. *)

type t = string list

type range = string * string option
(** [(lo, hi)]: [lo] inclusive, [hi] exclusive, [None] = top of the
    keyspace. *)

type extent = Keys of t | Range of range

val in_range : range -> string -> bool

val touches_all : t -> bool
(** Holds ["*"]. *)

val intersects : extent -> extent -> bool
(** Both sides must touch something: an empty footprint intersects
    nothing, ["*"] intersects every nonempty footprint and range. *)

(** {1 The lock table} *)

type holder =
  | Moved  (** a range this group handed away *)
  | Frozen  (** the range a committed FREEZE is moving *)
  | Freezing  (** a range a FREEZE earlier in this batch is moving *)
  | Prepared  (** a 2PC branch voted YES (committed or earlier in this batch) *)
  | Written  (** keys an earlier write or commit of this batch changed *)

type locks = (holder * extent) list

(** What the querying work item is about to do. *)
type claim = Read | Write | Commit | Prepare | Freeze

type verdict =
  | Free
  | Conflict  (** answer [Txn_conflict] (a FREEZE: refuse) *)
  | Wait  (** park until a decision releases the holder *)
  | Redirect  (** answer [Wrong_epoch]: the keys moved away *)

val check : locks -> claim -> extent -> verdict
(** The most severe verdict ([Redirect] > [Wait] > [Conflict]) over every
    holder the extent intersects. *)

(** {1 The T-Paxos conflict window}

    Footprints of recently committed instances, so a commit can check
    first-committer-wins against everything committed since its branch
    was taken. *)
module Window : sig
  type t

  val create : unit -> t

  val record : t -> instance:int -> commit_point:int -> string list -> unit
  (** Bounded: past 2048 entries, instances more than 1024 below
      [commit_point] are evicted. *)

  val conflicts : t -> after:int -> upto:int -> string list -> bool
  (** Does the footprint intersect an instance in [(after, upto]]? An
      evicted instance counts as a conflict. *)
end
