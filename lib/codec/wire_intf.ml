(** Typed decode errors for wire codecs.

    Decoding never raises: failures surface as {!decode_error} values,
    which the transport turns into connection-level [`Corrupt] results
    instead of exceptions unwinding through reader loops. The codec for
    the replication protocol's messages is [Grid_paxos.Wire_codec]. *)

type decode_error = {
  version : int;  (** the protocol version of the codec that rejected the bytes *)
  pos : int;  (** byte offset of the failure *)
  msg : string;
}

let pp_decode_error ppf { version; pos; msg } =
  Format.fprintf ppf "wire v%d decode error at byte %d: %s" version pos msg

let decode_error_to_string e = Format.asprintf "%a" pp_decode_error e
