(** Length-prefixed, CRC-protected message framing over file descriptors.

    Frame layout: 4-byte little-endian payload length, then the payload
    with the 4-byte CRC32 trailer of {!Grid_codec.Wire.with_crc}. The
    maximum frame size guards against corrupt length headers.

    Reads return typed [result] values — [Eof] for a peer that hung up
    between frames, [`Corrupt`] for bad lengths, CRC mismatches,
    truncated bodies, or payloads the codec rejects — so reader loops
    can tell corruption from normal disconnects instead of both
    unwinding as exceptions. The write path still raises ({!Closed} /
    [Unix.Unix_error]): writers hold locks and an exception is the
    correct way to abandon a wedged connection. *)

exception Closed
(** Raised by writes on EOF or a closed peer. *)

exception Too_large of int
(** Raised by writes, before anything reaches the socket, for a frame
    longer than {!max_frame}; carries the frame length. *)

type read_error =
  | Eof  (** peer closed the connection cleanly, between frames *)
  | Corrupt of { pos : int; msg : string }
      (** frame or payload failed validation; the stream cannot be
          resynchronized and the connection must be dropped *)

val pp_read_error : Format.formatter -> read_error -> unit

val max_frame : int
(** 16 MiB. *)

val write_frame : Unix.file_descr -> string -> int
(** Write one frame (payload without CRC; the trailer is added here) and
    return the bytes put on the wire (header + payload + CRC). Raises
    {!Too_large} for an oversized frame and {!Closed} /
    [Unix.Unix_error] on socket errors. *)

val read_frame : Unix.file_descr -> (string, read_error) result
(** Read one frame, verify the CRC, and return the payload. *)

val write_hello : Unix.file_descr -> node_id:int -> max_version:int -> unit
(** Connection handshake frame: node id plus the highest wire-protocol
    version the sender speaks. Sent dialer-first; the listener answers
    with its own hello and both sides settle on the minimum (see
    {!Grid_paxos.Wire_codec.negotiate}). *)

val read_hello : Unix.file_descr -> (int * int, read_error) result
(** [(node_id, max_version)]. Hellos from pre-versioning builds carry no
    version field and decode as [max_version = 1]. *)

(** Per-connection message codec, instantiated with the negotiated
    {!Grid_codec.Wire_intf.WIRE} version. Both directions report the
    on-wire byte count (frame header + payload + CRC trailer) for the
    transport's byte counters. *)
module Codec (W : Grid_codec.Wire_intf.WIRE with type msg = Grid_paxos.Types.msg) : sig
  val version : int
  val write_msg : Unix.file_descr -> Grid_paxos.Types.msg -> int
  val read_msg : Unix.file_descr -> (Grid_paxos.Types.msg * int, read_error) result
end
