module Wire = Grid_codec.Wire
module Wire_intf = Grid_codec.Wire_intf
module Wire_codec = Grid_paxos.Wire_codec

exception Too_large of int

type read_error = Eof | Corrupt of { pos : int; msg : string }

let pp_read_error ppf = function
  | Eof -> Format.pp_print_string ppf "eof"
  | Corrupt { pos; msg } -> Format.fprintf ppf "corrupt frame at byte %d: %s" pos msg

let max_frame = 16 * 1024 * 1024

let frame payload =
  let framed = Wire.with_crc payload in
  let len = String.length framed in
  if len > max_frame then raise (Too_large len);
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 (Int32.of_int len);
  Bytes.unsafe_to_string hdr ^ framed

(* Hello frame: [uint node_id] then [uint max_version]; pre-versioning
   builds sent only the node id. *)
let hello ~node_id =
  frame
    (Wire.encode (fun e ->
         Wire.Encoder.uint e node_id;
         Wire.Encoder.uint e Wire_codec.version))

let parse_hello payload =
  match
    let d = Wire.Decoder.of_string payload in
    let node_id = Wire.Decoder.uint d in
    let max_version = if Wire.Decoder.at_end d then 1 else Wire.Decoder.uint d in
    Wire.Decoder.expect_end d;
    (node_id, max_version)
  with
  | node_id, max_version when max_version >= Wire_codec.version -> Ok node_id
  | _, max_version ->
    Error
      (Corrupt
         { pos = 0;
           msg = Printf.sprintf "peer speaks wire v%d at most, v%d needed" max_version
               Wire_codec.version })
  | exception Wire.Decode_error { pos; msg } -> Error (Corrupt { pos; msg })

let decode_msg payload =
  match Wire_codec.decode payload with
  | Ok msg -> Ok (msg, 8 + String.length payload)
  | Error e -> Error (Corrupt { pos = e.Wire_intf.pos; msg = Wire_intf.decode_error_to_string e })

(* ------------------------------------------------------------------ *)

type decoder = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }
(* The unread bytes are [buf.[start, stop)]. *)

let chunk = 65536 (* the most one [Unix.read] moves *)

let decoder () = { buf = Bytes.create chunk; start = 0; stop = 0 }
let buffered d = d.stop - d.start

(* Room for [n] more bytes: slide the unread bytes to the front, into a
   buffer at least twice as large if they and [n] do not fit. They are at
   most one partial frame (whole ones are taken as they arrive), so each
   byte is slid once and regrown O(1) times amortized. *)
let reserve d n =
  if d.stop + n > Bytes.length d.buf then begin
    let live = buffered d in
    let buf =
      if live + n <= Bytes.length d.buf then d.buf
      else Bytes.create (max (live + n) (2 * Bytes.length d.buf))
    in
    Bytes.blit d.buf d.start buf 0 live;
    d.buf <- buf;
    d.start <- 0;
    d.stop <- live
  end

let rec fill d fd =
  reserve d chunk;
  match Unix.read fd d.buf d.stop chunk with
  | 0 -> false
  | k ->
    d.stop <- d.stop + k;
    k < chunk || fill d fd
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> true

let at_eof d = if buffered d = 0 then Eof else Corrupt { pos = 0; msg = "eof inside frame" }

let peek d n = Bytes.sub_string d.buf d.start (min n (buffered d))
let frame_length d = Int32.to_int (Bytes.get_int32_le d.buf d.start) land 0xFFFF_FFFF

let next d =
  if buffered d < 4 then Ok None
  else
    let len = frame_length d in
    if len < 4 || len > max_frame then
      Error (Corrupt { pos = 0; msg = Printf.sprintf "bad frame length %d" len })
    else if buffered d < 4 + len then Ok None
    else begin
      let body = Bytes.sub_string d.buf (d.start + 4) len in
      d.start <- d.start + 4 + len;
      match Wire.check_crc body with
      | payload -> Ok (Some payload)
      | exception Wire.Decode_error { pos; msg } -> Error (Corrupt { pos; msg })
    end
