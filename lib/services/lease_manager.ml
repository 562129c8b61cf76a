(** A lease manager for grid resources — reservations in the style of the
    Storage Resource Broker or Globus resource co-allocation.

    Leases make clock nondeterminism unavoidable: whether an [Acquire]
    succeeds depends on whether the {e previous} lease has expired {e at
    the moment the service examines it}, i.e. on the local clock of the
    machine that runs the request — the same class of nondeterminism as
    the grid scheduler's examination race (§2). Replicas evaluating the
    same request a few milliseconds apart would disagree.

    Under the paper's protocol only the leader evaluates expiry (against
    its clock, via [apply ~now]) and the decision — including the grant
    deadline — ships in the witness, so every replica records the exact
    same lease table. *)

module Wire = Grid_codec.Wire
module Smap = Map.Make (String)

let name = "lease_manager"

type lease = { holder : int; until : float (* leader-clock ms *) }

type state = { leases : lease Smap.t; grants : int }

type op =
  | Acquire of { resource : string; holder : int; ttl_ms : float }
  | Renew of { resource : string; holder : int; ttl_ms : float }
  | Release of { resource : string; holder : int }
  | Holder_of of string  (** read *)
  | Active_count  (** read: leases unexpired at examination time *)

type result =
  | Granted of { until : float }
  | Denied of { holder : int; until : float }  (** current unexpired lease *)
  | Renewed of { until : float }
  | Released
  | Not_holder
  | Holder of (int * float) option
  | Count of int

let initial () = { leases = Smap.empty; grants = 0 }

let classify = function
  | Acquire _ | Renew _ | Release _ -> `Write
  | Holder_of _ | Active_count -> `Read

type outcome = { state : state; result : result; witness : string option }

let unexpired ~now (l : lease) = l.until > now

(* Witness payload: the decision tag plus the deadline the leader chose.
   Replaying the witness reproduces the identical transition without
   consulting the local clock. *)
let encode_witness e_tag until =
  Wire.encode (fun e ->
      Wire.Encoder.uint e e_tag;
      Wire.Encoder.float e until)

let decode_witness w =
  Wire.decode w (fun d ->
      let tag = Wire.Decoder.uint d in
      let until = Wire.Decoder.float d in
      (tag, until))

let grant state resource holder until =
  {
    leases = Smap.add resource { holder; until } state.leases;
    grants = state.grants + 1;
  }

let apply ~rng:_ ~now state op =
  match op with
  | Acquire { resource; holder; ttl_ms } -> (
    match Smap.find_opt resource state.leases with
    | Some l when unexpired ~now l && l.holder <> holder ->
      { state; result = Denied { holder = l.holder; until = l.until }; witness = Some (encode_witness 0 0.0) }
    | _ ->
      (* Free, expired-by-our-clock, or re-acquired by the same holder. *)
      let until = now +. ttl_ms in
      { state = grant state resource holder until;
        result = Granted { until };
        witness = Some (encode_witness 1 until) })
  | Renew { resource; holder; ttl_ms } -> (
    match Smap.find_opt resource state.leases with
    | Some l when l.holder = holder && unexpired ~now l ->
      let until = now +. ttl_ms in
      { state = { state with leases = Smap.add resource { holder; until } state.leases };
        result = Renewed { until };
        witness = Some (encode_witness 1 until) }
    | _ -> { state; result = Not_holder; witness = Some (encode_witness 0 0.0) })
  | Release { resource; holder } -> (
    match Smap.find_opt resource state.leases with
    | Some l when l.holder = holder ->
      { state = { state with leases = Smap.remove resource state.leases };
        result = Released;
        witness = Some (encode_witness 1 0.0) }
    | _ -> { state; result = Not_holder; witness = Some (encode_witness 0 0.0) })
  | Holder_of resource ->
    let holder =
      match Smap.find_opt resource state.leases with
      | Some l when unexpired ~now l -> Some (l.holder, l.until)
      | _ -> None
    in
    { state; result = Holder holder; witness = None }
  | Active_count ->
    let n = Smap.fold (fun _ l acc -> if unexpired ~now l then acc + 1 else acc) state.leases 0 in
    { state; result = Count n; witness = None }

let replay state op ~witness =
  let tag, until = decode_witness witness in
  match op with
  | Acquire { resource; holder; _ } ->
    if tag = 1 then (grant state resource holder until, Granted { until })
    else begin
      match Smap.find_opt resource state.leases with
      | Some l -> (state, Denied { holder = l.holder; until = l.until })
      | None -> (state, Denied { holder = -1; until = 0.0 })
    end
  | Renew { resource; holder; _ } ->
    if tag = 1 then
      ( { state with leases = Smap.add resource { holder; until } state.leases },
        Renewed { until } )
    else (state, Not_holder)
  | Release { resource; _ } ->
    if tag = 1 then
      ({ state with leases = Smap.remove resource state.leases }, Released)
    else (state, Not_holder)
  | Holder_of _ | Active_count ->
    (* Reads carry no witness; replay is never invoked for them, but be
       total anyway. *)
    (state, Count 0)

let footprint = function
  | Acquire { resource; _ } | Renew { resource; _ } | Release { resource; _ } ->
    [ "lease/" ^ resource ]
  | Holder_of _ | Active_count -> []

(* --- codecs --- *)

let encode_op op =
  Wire.encode (fun e ->
      match op with
      | Acquire { resource; holder; ttl_ms } ->
        Wire.Encoder.uint e 0;
        Wire.Encoder.string e resource;
        Wire.Encoder.uint e holder;
        Wire.Encoder.float e ttl_ms
      | Renew { resource; holder; ttl_ms } ->
        Wire.Encoder.uint e 1;
        Wire.Encoder.string e resource;
        Wire.Encoder.uint e holder;
        Wire.Encoder.float e ttl_ms
      | Release { resource; holder } ->
        Wire.Encoder.uint e 2;
        Wire.Encoder.string e resource;
        Wire.Encoder.uint e holder
      | Holder_of resource ->
        Wire.Encoder.uint e 3;
        Wire.Encoder.string e resource
      | Active_count -> Wire.Encoder.uint e 4)

let decode_op s =
  Wire.decode s (fun d ->
      match Wire.Decoder.uint d with
      | 0 ->
        let resource = Wire.Decoder.string d in
        let holder = Wire.Decoder.uint d in
        let ttl_ms = Wire.Decoder.float d in
        Acquire { resource; holder; ttl_ms }
      | 1 ->
        let resource = Wire.Decoder.string d in
        let holder = Wire.Decoder.uint d in
        let ttl_ms = Wire.Decoder.float d in
        Renew { resource; holder; ttl_ms }
      | 2 ->
        let resource = Wire.Decoder.string d in
        let holder = Wire.Decoder.uint d in
        Release { resource; holder }
      | 3 -> Holder_of (Wire.Decoder.string d)
      | 4 -> Active_count
      | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "lease op %d" n }))

let encode_result r =
  Wire.encode (fun e ->
      match r with
      | Granted { until } ->
        Wire.Encoder.uint e 0;
        Wire.Encoder.float e until
      | Denied { holder; until } ->
        Wire.Encoder.uint e 1;
        Wire.Encoder.int e holder;
        Wire.Encoder.float e until
      | Renewed { until } ->
        Wire.Encoder.uint e 2;
        Wire.Encoder.float e until
      | Released -> Wire.Encoder.uint e 3
      | Not_holder -> Wire.Encoder.uint e 4
      | Holder h ->
        Wire.Encoder.uint e 5;
        Wire.Encoder.option e
          (fun (holder, until) ->
            Wire.Encoder.uint e holder;
            Wire.Encoder.float e until)
          h
      | Count n ->
        Wire.Encoder.uint e 6;
        Wire.Encoder.uint e n)

let decode_result s =
  Wire.decode s (fun d ->
      match Wire.Decoder.uint d with
      | 0 -> Granted { until = Wire.Decoder.float d }
      | 1 ->
        let holder = Wire.Decoder.int d in
        let until = Wire.Decoder.float d in
        Denied { holder; until }
      | 2 -> Renewed { until = Wire.Decoder.float d }
      | 3 -> Released
      | 4 -> Not_holder
      | 5 ->
        Holder
          (Wire.Decoder.option d (fun d ->
               let holder = Wire.Decoder.uint d in
               let until = Wire.Decoder.float d in
               (holder, until)))
      | 6 -> Count (Wire.Decoder.uint d)
      | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "lease result %d" n }))

let encode_state st =
  Wire.encode (fun e ->
      Wire.Encoder.uint e st.grants;
      Wire.Encoder.list e
        (fun (resource, l) ->
          Wire.Encoder.string e resource;
          Wire.Encoder.uint e l.holder;
          Wire.Encoder.float e l.until)
        (Smap.bindings st.leases))

let decode_state s =
  Wire.decode s (fun d ->
      let grants = Wire.Decoder.uint d in
      let leases =
        Wire.Decoder.list d (fun d ->
            let resource = Wire.Decoder.string d in
            let holder = Wire.Decoder.uint d in
            let until = Wire.Decoder.float d in
            (resource, { holder; until }))
      in
      { grants; leases = Smap.of_seq (List.to_seq leases) })

(* Delta: changed and removed leases only, each list in descending
   resource order. *)
let encode_delta st changed removed =
  Some
    (Wire.encode (fun e ->
         Wire.Encoder.uint e st.grants;
         Wire.Encoder.list e
           (fun (k, l) ->
             Wire.Encoder.string e k;
             Wire.Encoder.uint e l.holder;
             Wire.Encoder.float e l.until)
           changed;
         Wire.Encoder.list e (Wire.Encoder.string e) removed))

let diff ~old_state st =
  let changed =
    Smap.fold
      (fun k l acc ->
        match Smap.find_opt k old_state.leases with
        | Some old_l when old_l = l -> acc
        | _ -> (k, l) :: acc)
      st.leases []
  in
  let removed =
    Smap.fold
      (fun k _ acc -> if Smap.mem k st.leases then acc else k :: acc)
      old_state.leases []
  in
  encode_delta st changed removed

(* The same delta from the written footprint keys alone; "lease/" ^ r
   sorts as r does. *)
let diff_keys ~old_state keys st =
  let changed, removed =
    List.fold_left
      (fun ((changed, removed) as acc) fk ->
        match String.starts_with ~prefix:"lease/" fk with
        | false -> acc
        | true -> (
          let k = String.sub fk 6 (String.length fk - 6) in
          match (Smap.find_opt k st.leases, Smap.find_opt k old_state.leases) with
          | Some l, Some old_l when old_l = l -> acc
          | Some l, _ -> ((k, l) :: changed, removed)
          | None, Some _ -> (changed, k :: removed)
          | None, None -> acc))
      ([], [])
      (List.sort_uniq String.compare keys)
  in
  encode_delta st changed removed

let patch st s =
  Wire.decode s (fun d ->
      let grants = Wire.Decoder.uint d in
      let changed =
        Wire.Decoder.list d (fun d ->
            let k = Wire.Decoder.string d in
            let holder = Wire.Decoder.uint d in
            let until = Wire.Decoder.float d in
            (k, { holder; until }))
      in
      let removed = Wire.Decoder.list d Wire.Decoder.string in
      let leases = List.fold_left (fun m (k, l) -> Smap.add k l m) st.leases changed in
      let leases = List.fold_left (fun m k -> Smap.remove k m) leases removed in
      { grants; leases })

(** Test helpers. *)


(* Range handoff (elastic resharding) is not meaningful for this
   service's keyspace; the reshard coordinator refuses to move it. *)
let export_range _ ~lo:_ ~hi:_ = None
let import_range st _ = st
