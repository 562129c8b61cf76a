(** Length-prefixed, CRC-protected message framing over file descriptors.

    Frame layout: 4-byte little-endian payload length, then the payload
    with the 4-byte CRC32 trailer of {!Grid_codec.Wire.with_crc}. The
    maximum frame size guards against corrupt length headers.

    One incremental {!decoder} per connection holds the length, size and
    CRC checks. Reads return [Eof] for a peer that hung up between frames
    and [Corrupt] for bad lengths, CRC mismatches, truncated frames or
    payloads the codec rejects. *)

exception Too_large of int
(** Raised, before anything reaches the socket, for a frame longer than
    {!max_frame}; carries the frame length. *)

type read_error =
  | Eof  (** peer closed the connection cleanly, between frames *)
  | Corrupt of { pos : int; msg : string }
      (** frame or payload failed validation; the stream cannot be
          resynchronized and the connection must be dropped *)

val pp_read_error : Format.formatter -> read_error -> unit

val max_frame : int
(** 16 MiB. *)

val frame : string -> string
(** The frame of a payload (the CRC trailer is added here). *)

val hello : node_id:int -> string
(** Connection handshake frame: [uint node_id, uint max_version], the
    version being {!Grid_paxos.Wire_codec.version}. Sent dialer-first;
    the listener answers with its own hello. *)

val parse_hello : string -> (int, read_error) result
(** The node id in a hello payload. A hello with no version field (a
    pre-versioning build) counts as version 1, and any version of 1 or
    more settles on V1; a hello advertising less is [Corrupt]. *)

val decode_msg : string -> (Grid_paxos.Types.msg * int, read_error) result
(** A message and its on-wire byte count (frame header + payload + CRC
    trailer). *)

type decoder
(** The unread bytes of one stream. *)

val decoder : unit -> decoder

val fill : decoder -> Unix.file_descr -> bool
(** Read all a nonblocking socket holds; [false] at EOF. *)

val peek : decoder -> int -> string
(** Up to [n] unread bytes, left unread. *)

val next : decoder -> (string option, read_error) result
(** Take the payload of the frame at the front; [Ok None] until all of
    it has arrived. An n-byte frame costs O(n) copying. *)

val at_eof : decoder -> read_error
(** What an EOF now means: [Eof] between frames, [Corrupt] inside one. *)
