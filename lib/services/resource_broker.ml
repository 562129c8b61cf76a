(** The distributed grid resource broker of §2: accepts requests for
    resources and selects them with a {e randomized} algorithm to balance
    load — the paper's canonical intentionally-nondeterministic service.

    Selection strategies:
    - [Uniform]: uniformly random among feasible resources;
    - [Power_of_two]: sample two candidates, pick the less loaded
      (Mitzenmacher [23]);
    - [Least_loaded]: deterministic argmin (for comparison).

    Selection prefers resources at the requester's site and spills to
    remote sites only when local capacity is insufficient, as described
    in the paper. Every random choice is recorded in the witness, so
    backup replicas replay the exact same selection. *)

module Wire = Grid_codec.Wire
module Rng = Grid_util.Rng
module Imap = Map.Make (Int)

let name = "resource_broker"

type resource = { site : int; capacity : int; used : int }

type state = { resources : resource Imap.t; selections : int (* served Select ops *) }

type strategy = Uniform | Power_of_two | Least_loaded

type op =
  | Register of { rid : int; site : int; capacity : int }
  | Release of { rid : int; units : int }
  | Select of { site : int; units : int; strategy : strategy }
  | List_free  (** read: total free units per site *)
  | Resource_info of int  (** read *)

type result =
  | Registered
  | Released
  | Selected of int list  (** chosen resource ids, one per unit *)
  | No_capacity
  | Free_units of (int * int) list  (** (site, free units) *)
  | Info of resource option
  | Error of string

let initial () = { resources = Imap.empty; selections = 0 }

let classify = function
  | Register _ | Release _ | Select _ -> `Write
  | List_free | Resource_info _ -> `Read

type outcome = { state : state; result : result; witness : string option }

let free r = r.capacity - r.used

let feasible state ~site ~local =
  Imap.fold
    (fun rid r acc ->
      if free r > 0 && (if local then r.site = site else r.site <> site) then
        (rid, r) :: acc
      else acc)
    state.resources []
  |> List.rev

(* Pick one unit's resource among [candidates] (non-empty). Returns the
   chosen id; random draws go through [rng]. *)
let pick_one rng strategy candidates =
  match strategy with
  | Uniform ->
    let arr = Array.of_list candidates in
    fst (Rng.pick rng arr)
  | Power_of_two ->
    let arr = Array.of_list candidates in
    let (id1, r1) = Rng.pick rng arr in
    let (id2, r2) = Rng.pick rng arr in
    if free r1 >= free r2 then id1 else id2
  | Least_loaded ->
    let best =
      List.fold_left
        (fun acc (id, r) ->
          match acc with
          | Some (_, best_r) when free best_r >= free r -> acc
          | _ -> Some (id, r))
        None candidates
    in
    (match best with Some (id, _) -> id | None -> assert false)

let charge state rid =
  let r = Imap.find rid state.resources in
  { state with resources = Imap.add rid { r with used = r.used + 1 } state.resources }

(* Allocate [units] one at a time, local first then remote, so the load
   picture each draw sees includes the previous draws. *)
let select rng state ~site ~units ~strategy =
  let rec go state chosen remaining =
    if remaining = 0 then Some (state, List.rev chosen)
    else begin
      let local = feasible state ~site ~local:true in
      let candidates =
        if local <> [] then local else feasible state ~site ~local:false
      in
      match candidates with
      | [] -> None
      | _ ->
        let rid = pick_one rng strategy candidates in
        go (charge state rid) (rid :: chosen) (remaining - 1)
    end
  in
  go state [] units

let encode_choice chosen = Wire.encode (fun e -> Wire.Encoder.list e (Wire.Encoder.uint e) chosen)
let decode_choice w = Wire.decode w (fun d -> Wire.Decoder.list d Wire.Decoder.uint)

let apply ~rng ~now:_ state op =
  match op with
  | Register { rid; site; capacity } ->
    if capacity < 0 then { state; result = Error "negative capacity"; witness = None }
    else
      {
        state =
          { state with resources = Imap.add rid { site; capacity; used = 0 } state.resources };
        result = Registered;
        witness = None;
      }
  | Release { rid; units } -> (
    match Imap.find_opt rid state.resources with
    | None -> { state; result = Error "unknown resource"; witness = None }
    | Some r ->
      let used = Stdlib.max 0 (r.used - units) in
      {
        state = { state with resources = Imap.add rid { r with used } state.resources };
        result = Released;
        witness = None;
      })
  | Select { site; units; strategy } -> (
    match select rng state ~site ~units ~strategy with
    | None -> { state; result = No_capacity; witness = Some (encode_choice []) }
    | Some (state', chosen) ->
      {
        state = { state' with selections = state'.selections + 1 };
        result = Selected chosen;
        witness = Some (encode_choice chosen);
      })
  | List_free ->
    let per_site = Hashtbl.create 8 in
    Imap.iter
      (fun _ r ->
        let cur = Option.value ~default:0 (Hashtbl.find_opt per_site r.site) in
        Hashtbl.replace per_site r.site (cur + free r))
      state.resources;
    let listing =
      Hashtbl.fold (fun site units acc -> (site, units) :: acc) per_site []
      |> List.sort compare
    in
    { state; result = Free_units listing; witness = None }
  | Resource_info rid ->
    { state; result = Info (Imap.find_opt rid state.resources); witness = None }

(* Replay: re-apply the recorded choices instead of drawing new ones. *)
let replay state op ~witness =
  match op with
  | Select _ -> (
    let chosen = decode_choice witness in
    match chosen with
    | [] -> (state, No_capacity)
    | _ ->
      let state' = List.fold_left charge state chosen in
      ({ state' with selections = state'.selections + 1 }, Selected chosen))
  | Register _ | Release _ | List_free | Resource_info _ ->
    let o = apply ~rng:(Rng.of_int 0) ~now:0.0 state op in
    (o.state, o.result)

let footprint = function
  | Register { rid; _ } | Release { rid; _ } -> [ Printf.sprintf "res/%d" rid ]
  | Select _ -> [ "*" ]  (* selection reads global load: conflicts broadly *)
  | List_free | Resource_info _ -> []

(* --- codecs --- *)

let strategy_tag = function Uniform -> 0 | Power_of_two -> 1 | Least_loaded -> 2

let strategy_of_tag = function
  | 0 -> Uniform
  | 1 -> Power_of_two
  | 2 -> Least_loaded
  | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "strategy %d" n })

let encode_op op =
  Wire.encode (fun e ->
      match op with
      | Register { rid; site; capacity } ->
        Wire.Encoder.uint e 0;
        Wire.Encoder.uint e rid;
        Wire.Encoder.uint e site;
        Wire.Encoder.uint e capacity
      | Release { rid; units } ->
        Wire.Encoder.uint e 1;
        Wire.Encoder.uint e rid;
        Wire.Encoder.uint e units
      | Select { site; units; strategy } ->
        Wire.Encoder.uint e 2;
        Wire.Encoder.uint e site;
        Wire.Encoder.uint e units;
        Wire.Encoder.uint e (strategy_tag strategy)
      | List_free -> Wire.Encoder.uint e 3
      | Resource_info rid ->
        Wire.Encoder.uint e 4;
        Wire.Encoder.uint e rid)

let decode_op s =
  Wire.decode s (fun d ->
      match Wire.Decoder.uint d with
      | 0 ->
        let rid = Wire.Decoder.uint d in
        let site = Wire.Decoder.uint d in
        let capacity = Wire.Decoder.uint d in
        Register { rid; site; capacity }
      | 1 ->
        let rid = Wire.Decoder.uint d in
        let units = Wire.Decoder.uint d in
        Release { rid; units }
      | 2 ->
        let site = Wire.Decoder.uint d in
        let units = Wire.Decoder.uint d in
        let strategy = strategy_of_tag (Wire.Decoder.uint d) in
        Select { site; units; strategy }
      | 3 -> List_free
      | 4 -> Resource_info (Wire.Decoder.uint d)
      | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "broker op %d" n }))

let encode_resource e r =
  Wire.Encoder.uint e r.site;
  Wire.Encoder.uint e r.capacity;
  Wire.Encoder.uint e r.used

let decode_resource d =
  let site = Wire.Decoder.uint d in
  let capacity = Wire.Decoder.uint d in
  let used = Wire.Decoder.uint d in
  { site; capacity; used }

let encode_result r =
  Wire.encode (fun e ->
      match r with
      | Registered -> Wire.Encoder.uint e 0
      | Released -> Wire.Encoder.uint e 1
      | Selected ids ->
        Wire.Encoder.uint e 2;
        Wire.Encoder.list e (Wire.Encoder.uint e) ids
      | No_capacity -> Wire.Encoder.uint e 3
      | Free_units l ->
        Wire.Encoder.uint e 4;
        Wire.Encoder.list e
          (fun (site, units) ->
            Wire.Encoder.uint e site;
            Wire.Encoder.uint e units)
          l
      | Info r ->
        Wire.Encoder.uint e 5;
        Wire.Encoder.option e (encode_resource e) r
      | Error msg ->
        Wire.Encoder.uint e 6;
        Wire.Encoder.string e msg)

let decode_result s =
  Wire.decode s (fun d ->
      match Wire.Decoder.uint d with
      | 0 -> Registered
      | 1 -> Released
      | 2 -> Selected (Wire.Decoder.list d Wire.Decoder.uint)
      | 3 -> No_capacity
      | 4 ->
        Free_units
          (Wire.Decoder.list d (fun d ->
               let site = Wire.Decoder.uint d in
               let units = Wire.Decoder.uint d in
               (site, units)))
      | 5 -> Info (Wire.Decoder.option d decode_resource)
      | 6 -> Error (Wire.Decoder.string d)
      | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "broker result %d" n }))

let encode_state st =
  Wire.encode (fun e ->
      Wire.Encoder.uint e st.selections;
      Wire.Encoder.list e
        (fun (rid, r) ->
          Wire.Encoder.uint e rid;
          encode_resource e r)
        (Imap.bindings st.resources))

let decode_state s =
  Wire.decode s (fun d ->
      let selections = Wire.Decoder.uint d in
      let bindings =
        Wire.Decoder.list d (fun d ->
            let rid = Wire.Decoder.uint d in
            let r = decode_resource d in
            (rid, r))
      in
      { selections; resources = Imap.of_seq (List.to_seq bindings) })

(* Delta: only the resources whose record changed (plus deletions are
   impossible — the broker never removes resources), in descending id
   order. *)
let encode_delta st changed =
  Some
    (Wire.encode (fun e ->
         Wire.Encoder.uint e st.selections;
         Wire.Encoder.list e
           (fun (rid, r) ->
             Wire.Encoder.uint e rid;
             encode_resource e r)
           changed))

let diff ~old_state st =
  let changed =
    Imap.fold
      (fun rid r acc ->
        match Imap.find_opt rid old_state.resources with
        | Some old_r when old_r = r -> acc
        | _ -> (rid, r) :: acc)
      st.resources []
  in
  encode_delta st changed

(* The same delta from the written footprint keys alone. Ids order
   numerically, not as their "res/%d" keys do. *)
let diff_keys ~old_state keys st =
  let rid fk =
    if String.starts_with ~prefix:"res/" fk then
      int_of_string_opt (String.sub fk 4 (String.length fk - 4))
    else None
  in
  let changed =
    List.fold_left
      (fun acc rid ->
        match (Imap.find_opt rid st.resources, Imap.find_opt rid old_state.resources) with
        | Some r, Some old_r when old_r = r -> acc
        | Some r, _ -> (rid, r) :: acc
        | None, _ -> acc)
      []
      (List.sort_uniq Int.compare (List.filter_map rid keys))
  in
  encode_delta st changed

let patch st s =
  Wire.decode s (fun d ->
      let selections = Wire.Decoder.uint d in
      let changed =
        Wire.Decoder.list d (fun d ->
            let rid = Wire.Decoder.uint d in
            let r = decode_resource d in
            (rid, r))
      in
      {
        selections;
        resources =
          List.fold_left (fun m (rid, r) -> Imap.add rid r m) st.resources changed;
      })

(** Total used units across resources (test helper). *)
let total_used st = Imap.fold (fun _ r acc -> acc + r.used) st.resources 0

(** Load imbalance: max used minus min used across resources with equal
    capacity (test/example helper for the load-balancing claim). *)
let imbalance st =
  let loads = Imap.fold (fun _ r acc -> r.used :: acc) st.resources [] in
  match loads with
  | [] -> 0
  | x :: rest ->
    let mn = List.fold_left Stdlib.min x rest and mx = List.fold_left Stdlib.max x rest in
    mx - mn

(* Range handoff (elastic resharding) is not meaningful for this
   service's keyspace; the reshard coordinator refuses to move it. *)
let export_range _ ~lo:_ ~hi:_ = None
let import_range st _ = st
