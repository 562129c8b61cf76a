module Wire = Grid_codec.Wire
module Wire_intf = Grid_codec.Wire_intf

exception Closed
exception Too_large of int

type read_error = Eof | Corrupt of { pos : int; msg : string }

let pp_read_error ppf = function
  | Eof -> Format.pp_print_string ppf "eof"
  | Corrupt { pos; msg } -> Format.fprintf ppf "corrupt frame at byte %d: %s" pos msg

let max_frame = 16 * 1024 * 1024

let really_write fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    let n = Unix.write_substring fd s !pos (len - !pos) in
    if n = 0 then raise Closed;
    pos := !pos + n
  done

(* [None] on clean EOF at the first byte, [Closed] on EOF mid-read: the
   first is a peer hanging up between frames, the second a truncated
   frame. *)
let really_read fd n =
  let buf = Bytes.create n in
  let pos = ref 0 in
  (try
     while !pos < n do
       let k = Unix.read fd buf !pos (n - !pos) in
       if k = 0 then raise Closed;
       pos := !pos + k
     done
   with Closed when !pos = 0 -> ());
  if !pos = 0 && n > 0 then None else Some (Bytes.unsafe_to_string buf)

let really_read_exn fd n =
  match really_read fd n with Some s -> s | None -> raise Closed

let write_frame fd payload =
  let framed = Wire.with_crc payload in
  let len = String.length framed in
  if len > max_frame then raise (Too_large len);
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr (len land 0xFF));
  Bytes.set hdr 1 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set hdr 2 (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set hdr 3 (Char.chr ((len lsr 24) land 0xFF));
  really_write fd (Bytes.unsafe_to_string hdr ^ framed);
  4 + len

let read_frame fd =
  match really_read fd 4 with
  | None -> Error Eof
  | Some hdr -> (
    let len =
      Char.code hdr.[0]
      lor (Char.code hdr.[1] lsl 8)
      lor (Char.code hdr.[2] lsl 16)
      lor (Char.code hdr.[3] lsl 24)
    in
    if len < 4 || len > max_frame then
      Error (Corrupt { pos = 0; msg = Printf.sprintf "bad frame length %d" len })
    else
      match really_read_exn fd len with
      | body -> (
        match Wire.check_crc body with
        | payload -> Ok payload
        | exception Wire.Decode_error { pos; msg } -> Error (Corrupt { pos; msg }))
      | exception Closed ->
        Error (Corrupt { pos = 0; msg = "eof inside frame body" }))

(* Hello frame: [uint node_id] then [uint max_wire_version]. Pre-
   versioning builds sent only the node id; an absent version field
   decodes as 1, which keeps this side of the handshake compatible. *)
let write_hello fd ~node_id ~max_version =
  ignore
    (write_frame fd
       (Wire.encode (fun e ->
            Wire.Encoder.uint e node_id;
            Wire.Encoder.uint e max_version)))

let read_hello fd =
  match read_frame fd with
  | Error e -> Error e
  | Ok payload -> (
    match
      let d = Wire.Decoder.of_string payload in
      let node_id = Wire.Decoder.uint d in
      let max_version = if Wire.Decoder.at_end d then 1 else Wire.Decoder.uint d in
      Wire.Decoder.expect_end d;
      (node_id, max_version)
    with
    | hello -> Ok hello
    | exception Wire.Decode_error { pos; msg } -> Error (Corrupt { pos; msg }))

(* One negotiated connection speaks exactly one codec; the transport
   instantiates this per peer after the hello exchange. Both directions
   report the on-wire byte count (header + payload + CRC) so the
   transport can feed its byte counters without re-measuring. *)
module Codec (W : Wire_intf.WIRE with type msg = Grid_paxos.Types.msg) = struct
  let version = W.version
  let write_msg fd msg = write_frame fd (W.encode msg)

  let read_msg fd =
    match read_frame fd with
    | Error e -> Error e
    | Ok payload -> (
      match W.decode payload with
      | Ok msg -> Ok (msg, 8 + String.length payload)
      | Error e ->
        Error
          (Corrupt { pos = e.Wire_intf.pos; msg = Wire_intf.decode_error_to_string e }))
end
