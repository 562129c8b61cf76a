(** The wire codec for {!Types.msg}.

    One encoding, protocol version 1: the seed's unversioned body codec
    ({!Types.encode_msg}), byte-identical to what every build since the
    seed has spoken. The TCP hello still carries a version field (see
    {!Grid_net.Framing.write_hello}); this build advertises {!version}.
    See DESIGN.md §15. *)

val version : int
(** The protocol version this codec implements (1), advertised in every
    hello. *)

val encode : Types.msg -> string
(** Frame payload for one message (the framing adds length and CRC). *)

val decode : string -> (Types.msg, Grid_codec.Wire_intf.decode_error) result
(** Inverse of {!encode}. Rejects trailing bytes, truncations and
    out-of-range tags with a typed error, never an exception. *)
