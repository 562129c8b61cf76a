(** Binary wire format: a compact, self-describing-enough encoding used
    for shipped service state, the stable-storage log, and TCP frames.

    Integers use LEB128 varints (unsigned) or zigzag varints (signed);
    strings and blobs are length-prefixed. Decoding failures raise
    {!Decode_error} with a position and message rather than returning
    garbage. *)

exception Decode_error of { pos : int; msg : string }

(** {1 Encoding} *)

module Encoder : sig
  type t

  val create : ?initial_size:int -> unit -> t
  val uint : t -> int -> unit
  (** Unsigned LEB128 varint. Requires a non-negative argument. *)

  val int : t -> int -> unit
  (** Signed zigzag varint (full [int] range). *)

  val int64 : t -> int64 -> unit
  (** Fixed 8-byte little-endian. *)

  val float : t -> float -> unit
  (** IEEE-754 binary64, little-endian. *)

  val bool : t -> bool -> unit
  val string : t -> string -> unit
  (** Length-prefixed bytes. *)

  val option : t -> ('a -> unit) -> 'a option -> unit
  (** [option e enc v]: 1-byte tag then the payload via [enc]. The
      continuation is expected to write into [e]. *)

  val list : t -> ('a -> unit) -> 'a list -> unit
  (** Length prefix then each element via the continuation. *)

  val array : t -> ('a -> unit) -> 'a array -> unit
  val raw : t -> string -> unit
  (** Append bytes with no length prefix (for already-framed payloads). *)

  val length : t -> int
  val contents : t -> string
end

(** {1 Decoding} *)

module Decoder : sig
  type t

  val of_string : ?pos:int -> string -> t
  val pos : t -> int
  val remaining : t -> int
  val at_end : t -> bool
  val uint : t -> int
  val int : t -> int
  val int64 : t -> int64
  val float : t -> float
  val bool : t -> bool
  val string : t -> string
  val option : t -> (t -> 'a) -> 'a option
  val list : t -> (t -> 'a) -> 'a list
  val array : t -> (t -> 'a) -> 'a array
  val raw : t -> int -> string
  (** [raw d n] reads exactly [n] bytes. *)

  val expect_end : t -> unit
  (** Raise {!Decode_error} unless all input has been consumed. *)
end

(** {1 Checksums} *)

val crc32 : ?crc:int32 -> string -> int32
(** CRC-32 (IEEE 802.3 polynomial, reflected). [?crc] continues a running
    checksum. *)

val with_crc : string -> string
(** Append a 4-byte little-endian CRC32 trailer. *)

val check_crc : string -> string
(** Validate and strip the trailer added by {!with_crc}; raises
    {!Decode_error} on mismatch or truncation. *)

(** {1 Convenience} *)

val encode : (Encoder.t -> unit) -> string
val decode : string -> (Decoder.t -> 'a) -> 'a
(** [decode s f] runs [f] and then {!Decoder.expect_end}. *)
