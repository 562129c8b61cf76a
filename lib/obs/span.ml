module Ids = Grid_util.Ids

type phase =
  | Route
  | Client_send
  | Leader_receive
  | Propose
  | Accept_quorum
  | Commit
  | State_ship
  | Apply
  | Lease_local
      (** the leader answered a read locally under a majority lease:
          execution alone completed it, no confirm round *)
  | Reply

let all_phases =
  [ Route; Client_send; Leader_receive; Propose; Accept_quorum; Commit;
    State_ship; Apply; Lease_local; Reply ]

let phase_name = function
  | Route -> "route"
  | Client_send -> "client_send"
  | Leader_receive -> "leader_receive"
  | Propose -> "propose"
  | Accept_quorum -> "accept_quorum"
  | Commit -> "commit"
  | State_ship -> "state_ship"
  | Apply -> "apply"
  | Lease_local -> "lease_local"
  | Reply -> "reply"

let phase_of_name = function
  | "route" -> Some Route
  | "client_send" -> Some Client_send
  | "leader_receive" -> Some Leader_receive
  | "propose" -> Some Propose
  | "accept_quorum" -> Some Accept_quorum
  | "commit" -> Some Commit
  | "state_ship" -> Some State_ship
  | "apply" -> Some Apply
  | "lease_local" -> Some Lease_local
  | "reply" -> Some Reply
  | _ -> None

let pp_phase ppf p = Format.pp_print_string ppf (phase_name p)

type body =
  | Span of {
      req : Ids.Request_id.t;
      phase : phase;
      instance : int;
      detail : string;
      tid : int;
      parent : string;
    }
      (** one lifecycle point of a request; [instance = -1] when the
          event is not tied to a consensus instance, [detail = ""] unless
          the recording site has a label to attach (e.g. the rtype at
          [Leader_receive]). [tid]/[parent] are the causal trace context:
          [tid = 0] when untraced, [parent = ""] for a root span; a span's
          own id is [actor ^ ":" ^ phase_name phase]. *)
  | Msg of { kind : string; dst : int }  (** one wire message sent *)
  | Note of string  (** free-form annotation (the old [Sim.Trace] lines) *)

type event = { time : float; actor : string; body : body }

(** The id other spans use as their [parent] to point at this span. *)
let span_id ~actor phase = actor ^ ":" ^ phase_name phase

let pp_event ppf e =
  match e.body with
  | Span { req; phase; instance; detail; tid; parent } ->
    Format.fprintf ppf "%10.3f %-8s %a %a%s%s%s%s" e.time e.actor Ids.Request_id.pp req
      pp_phase phase
      (if instance >= 0 then Printf.sprintf " i=%d" instance else "")
      (if detail = "" then "" else " " ^ detail)
      (if tid <> 0 then Printf.sprintf " tid=%d" tid else "")
      (if parent = "" then "" else " <" ^ parent)
  | Msg { kind; dst } -> Format.fprintf ppf "%10.3f %-8s send %s ->%d" e.time e.actor kind dst
  | Note s -> Format.fprintf ppf "%10.3f %-8s %s" e.time e.actor s

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)

module Recorder = struct
  (* Struct-of-arrays ring. Recording an event allocates nothing: the
     columns are preallocated and the stored strings are the caller's —
     constants or precomputed ids on the hot paths — so a retained trace
     costs plain stores instead of boxed events that the minor GC must
     promote (which dominated the tracing overhead: a kept boxed event
     cost ~100ns of promotion; a column write costs a few ns). The
     numeric columns live in Bigarrays — outside the OCaml heap — so a
     recorder's buffer adds no GC pressure either: per-trial recorders
     in the simulator were costing more in major-collection churn from
     their own buffers than from the events recorded into them. Events
     are materialized only when read back with [events]. *)

  let phase_index = function
    | Route -> 0
    | Client_send -> 1
    | Leader_receive -> 2
    | Propose -> 3
    | Accept_quorum -> 4
    | Commit -> 5
    | State_ship -> 6
    | Apply -> 7
    | Lease_local -> 8
    | Reply -> 9

  let phase_table = Array.of_list all_phases
  let tag_msg = 100
  let tag_note = 101

  (* Per-slot layout: 5 ints (tag, client/dst, seq, instance, tid) in
     one Bigarray, 3 strings (actor; detail/kind/text; parent) in one
     OCaml array, one float (time) in a float64 Bigarray. *)
  let ints_per = 5
  let strs_per = 3

  type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    enabled : bool;
    cap : int;
    mutable len : int; (* events stored, <= cap *)
    mutable next : int; (* next write slot *)
    mutable a_time : floats;
    mutable a_int : ints;
    mutable a_str : string array;
  }

  (* Shared zero-length buffers: columns are allocated on first push, so
     disabled recorders stay weightless. *)
  let empty_floats : floats = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0
  let empty_ints : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0

  let create ?(capacity = 65536) ~enabled () =
    if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
    {
      enabled;
      cap = capacity;
      len = 0;
      next = 0;
      a_time = empty_floats;
      a_int = empty_ints;
      a_str = [||];
    }

  let disabled = create ~capacity:1 ~enabled:false ()
  let enabled t = t.enabled

  (* Columns grow geometrically up to [cap] rather than being allocated
     at full capacity upfront: a 64k-slot recorder would otherwise cost
     ~4MB of allocation and zeroing per instance, which dwarfed the
     per-event cost for short traces. Growth only happens while the ring
     has never wrapped ([len < cap]), so the live region is a prefix and
     a plain prefix copy resizes it safely. *)
  let grow t =
    let cur = Bigarray.Array1.dim t.a_time in
    let want = min t.cap (max 1024 (2 * cur)) in
    let time' = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout want in
    let int' = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (want * ints_per) in
    let str' = Array.make (want * strs_per) "" in
    if cur > 0 then begin
      Bigarray.Array1.blit t.a_time (Bigarray.Array1.sub time' 0 cur);
      Bigarray.Array1.blit t.a_int (Bigarray.Array1.sub int' 0 (cur * ints_per));
      Array.blit t.a_str 0 str' 0 (cur * strs_per)
    end;
    t.a_time <- time';
    t.a_int <- int';
    t.a_str <- str'

  let slot t =
    let dim = Bigarray.Array1.dim t.a_time in
    if t.next >= dim && dim < t.cap then grow t;
    let i = t.next in
    t.next <- (if i + 1 = t.cap then 0 else i + 1);
    if t.len < t.cap then t.len <- t.len + 1;
    i

  (* Every record function is a single branch when disabled: no event is
     constructed, no string is built. Call sites must likewise avoid
     building arguments eagerly (pass preformatted actor names, constant
     detail strings). *)

  let span ?(tid = 0) ?(parent = "") t ~time ~actor ~req ~instance ~detail phase =
    if t.enabled then begin
      let i = slot t in
      t.a_time.{i} <- time;
      let b = i * ints_per in
      t.a_int.{b} <- phase_index phase;
      t.a_int.{b + 1} <- Ids.Client_id.to_int req.Ids.Request_id.client;
      t.a_int.{b + 2} <- req.Ids.Request_id.seq;
      t.a_int.{b + 3} <- instance;
      t.a_int.{b + 4} <- tid;
      let s = i * strs_per in
      t.a_str.(s) <- actor;
      t.a_str.(s + 1) <- detail;
      t.a_str.(s + 2) <- parent
    end

  let msg t ~time ~actor ~kind ~dst =
    if t.enabled then begin
      let i = slot t in
      t.a_time.{i} <- time;
      let b = i * ints_per in
      t.a_int.{b} <- tag_msg;
      t.a_int.{b + 1} <- dst;
      let s = i * strs_per in
      t.a_str.(s) <- actor;
      t.a_str.(s + 1) <- kind;
      t.a_str.(s + 2) <- ""
    end

  let note t ~time ~actor text =
    if t.enabled then begin
      let i = slot t in
      t.a_time.{i} <- time;
      t.a_int.{i * ints_per} <- tag_note;
      let s = i * strs_per in
      t.a_str.(s) <- actor;
      t.a_str.(s + 1) <- text;
      t.a_str.(s + 2) <- ""
    end

  let event_at t i =
    let b = i * ints_per and s = i * strs_per in
    let tag = t.a_int.{b} in
    let body =
      if tag = tag_note then Note t.a_str.(s + 1)
      else if tag = tag_msg then Msg { kind = t.a_str.(s + 1); dst = t.a_int.{b + 1} }
      else
        Span
          {
            req =
              Ids.Request_id.make
                ~client:(Ids.Client_id.of_int t.a_int.{b + 1})
                ~seq:t.a_int.{b + 2};
            phase = phase_table.(tag);
            instance = t.a_int.{b + 3};
            detail = t.a_str.(s + 1);
            tid = t.a_int.{b + 4};
            parent = t.a_str.(s + 2);
          }
    in
    { time = t.a_time.{i}; actor = t.a_str.(s); body }

  let events t =
    let start = if t.len < t.cap then 0 else t.next in
    List.init t.len (fun k -> event_at t ((start + k) mod t.cap))

  let length t = t.len

  let clear t =
    t.len <- 0;
    t.next <- 0
end

(* ------------------------------------------------------------------ *)
(* JSONL serialization                                                 *)

let event_to_json (e : event) : Json.t =
  let base = [ ("t", Json.Num e.time); ("actor", Json.Str e.actor) ] in
  match e.body with
  | Span { req; phase; instance; detail; tid; parent } ->
    Json.Obj
      (base
      @ [ ("type", Json.Str "span");
          ("client", Json.int (Ids.Client_id.to_int req.client));
          ("seq", Json.int req.seq);
          ("phase", Json.Str (phase_name phase)) ]
      @ (if instance >= 0 then [ ("instance", Json.int instance) ] else [])
      @ (if detail = "" then [] else [ ("detail", Json.Str detail) ])
      (* trace context only when present, so untraced dumps are
         byte-identical to pre-tracing ones *)
      @ (if tid <> 0 then [ ("tid", Json.int tid) ] else [])
      @ if parent = "" then [] else [ ("parent", Json.Str parent) ])
  | Msg { kind; dst } ->
    Json.Obj
      (base @ [ ("type", Json.Str "msg"); ("kind", Json.Str kind); ("dst", Json.int dst) ])
  | Note text -> Json.Obj (base @ [ ("type", Json.Str "note"); ("text", Json.Str text) ])

let event_of_json (j : Json.t) : event option =
  let ( let* ) = Option.bind in
  let* time = Option.bind (Json.member "t" j) Json.to_float in
  let* actor = Option.bind (Json.member "actor" j) Json.to_str in
  let* kind = Option.bind (Json.member "type" j) Json.to_str in
  match kind with
  | "span" ->
    let* client = Option.bind (Json.member "client" j) Json.to_int in
    let* seq = Option.bind (Json.member "seq" j) Json.to_int in
    let* phase =
      Option.bind (Json.member "phase" j) (fun p ->
          Option.bind (Json.to_str p) phase_of_name)
    in
    let instance =
      Option.value ~default:(-1) (Option.bind (Json.member "instance" j) Json.to_int)
    in
    let detail =
      Option.value ~default:"" (Option.bind (Json.member "detail" j) Json.to_str)
    in
    let tid =
      Option.value ~default:0 (Option.bind (Json.member "tid" j) Json.to_int)
    in
    let parent =
      Option.value ~default:"" (Option.bind (Json.member "parent" j) Json.to_str)
    in
    let req = Ids.Request_id.make ~client:(Ids.Client_id.of_int client) ~seq in
    Some { time; actor; body = Span { req; phase; instance; detail; tid; parent } }
  | "msg" ->
    let* mkind = Option.bind (Json.member "kind" j) Json.to_str in
    let dst = Option.value ~default:(-1) (Option.bind (Json.member "dst" j) Json.to_int) in
    Some { time; actor; body = Msg { kind = mkind; dst } }
  | "note" ->
    let* text = Option.bind (Json.member "text" j) Json.to_str in
    Some { time; actor; body = Note text }
  | _ -> None

let dump_string events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_to_json e));
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let dump_file path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (dump_string events))

let load_string s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None
         else
           match Json.of_string line with
           | j -> event_of_json j
           | exception Json.Parse_error _ -> None)

let load_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> load_string (really_input_string ic (in_channel_length ic)))
