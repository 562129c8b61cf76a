(** The wire codec for {!Types.msg}: the seed's encoding, byte-identical
    to what every build since the seed has spoken. There is no header;
    the first byte is the message-tag varint. *)

module Wire = Grid_codec.Wire
module Wire_intf = Grid_codec.Wire_intf

let version = 1
let encode m = Wire.encode (fun e -> Types.encode_msg e m)

let decode s =
  match Wire.decode s Types.decode_msg with
  | m -> Stdlib.Ok m
  | exception Wire.Decode_error { pos; msg } -> Error { Wire_intf.version; pos; msg }
