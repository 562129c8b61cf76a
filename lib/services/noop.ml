(** The evaluation service of §4: every operation invokes an empty method.

    The state is a single counter of writes (a few bytes, like the
    paper's) so that write requests genuinely change state and delta
    shipping has something to ship; [payload_padding] lets the
    state-size ablation inflate the encoded state. *)

module Wire = Grid_codec.Wire

let name = "noop"

type state = { writes : int; padding : string }
type op = Noop_read | Noop_write | Noop_sized_write of int
type result = unit

let initial () = { writes = 0; padding = "" }

let classify = function
  | Noop_read -> `Read
  | Noop_write | Noop_sized_write _ -> `Write

type outcome = { state : state; result : result; witness : string option }

let apply ~rng:_ ~now:_ state op =
  match op with
  | Noop_read -> { state; result = (); witness = Some "" }
  | Noop_write -> { state = { state with writes = state.writes + 1 }; result = (); witness = Some "" }
  | Noop_sized_write n ->
    {
      state = { writes = state.writes + 1; padding = String.make n 'x' };
      result = ();
      witness = Some "";
    }

let replay state op ~witness:_ =
  match op with
  | Noop_read -> (state, ())
  | Noop_write -> ({ state with writes = state.writes + 1 }, ())
  | Noop_sized_write n -> ({ writes = state.writes + 1; padding = String.make n 'x' }, ())

(* The evaluation service's operations are empty methods (§4): they
   commute, so transactions over them never conflict. *)
let footprint = function Noop_read | Noop_write | Noop_sized_write _ -> []

let encode_op op =
  Wire.encode (fun e ->
      match op with
      | Noop_read -> Wire.Encoder.uint e 0
      | Noop_write -> Wire.Encoder.uint e 1
      | Noop_sized_write n ->
        Wire.Encoder.uint e 2;
        Wire.Encoder.uint e n)

let decode_op s =
  Wire.decode s (fun d ->
      match Wire.Decoder.uint d with
      | 0 -> Noop_read
      | 1 -> Noop_write
      | 2 -> Noop_sized_write (Wire.Decoder.uint d)
      | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "noop op %d" n }))

let encode_result () = ""
let decode_result _ = ()

let encode_state st =
  Wire.encode (fun e ->
      Wire.Encoder.uint e st.writes;
      Wire.Encoder.string e st.padding)

let decode_state s =
  Wire.decode s (fun d ->
      let writes = Wire.Decoder.uint d in
      let padding = Wire.Decoder.string d in
      { writes; padding })

(* The delta is the new write count plus the padding only if it changed —
   close to the paper's "exchange only the updated state". *)
let diff ~old_state st =
  Some
    (Wire.encode (fun e ->
         Wire.Encoder.uint e st.writes;
         Wire.Encoder.option e (Wire.Encoder.string e)
           (if String.equal old_state.padding st.padding then None else Some st.padding)))

(* Footprints are empty: the keyed diff is the full one. *)
let diff_keys ~old_state _ st = diff ~old_state st

let patch st s =
  Wire.decode s (fun d ->
      let writes = Wire.Decoder.uint d in
      let padding =
        match Wire.Decoder.option d Wire.Decoder.string with
        | Some p -> p
        | None -> st.padding
      in
      { writes; padding })

(* Range handoff (elastic resharding) is not meaningful for this
   service's keyspace; the reshard coordinator refuses to move it. *)
let export_range _ ~lo:_ ~hi:_ = None
let import_range st _ = st
