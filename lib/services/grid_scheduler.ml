(** The grid scheduling service of §2 (after the NILE Global Planner):
    jobs are examined in FCFS order, overridden by priorities. The
    service is {e unintentionally} nondeterministic in two ways:

    - a job's effective arrival order depends on the {e local clock} when
      the leader timestamps it ([apply ~now]);
    - [Examine] schedules the best job {e currently} in the queue, so the
      decision depends on how far the queue had filled when the scheduler
      got around to examining it — the paper's Job-A/Job-B race;
    - the target machine is drawn randomly among the least-loaded ones.

    The witness records the observed clock, the chosen job and the chosen
    machine, so backup replicas reproduce the exact decision. *)

module Wire = Grid_codec.Wire
module Rng = Grid_util.Rng
module Imap = Map.Make (Int)

let name = "grid_scheduler"

type job = { priority : int; arrival : float; submitted_seq : int }

type state = {
  machines : int Imap.t;  (** machine id -> number of jobs assigned *)
  pending : job Imap.t;  (** job id -> job *)
  assignments : (int * int) list;  (** (job, machine), newest first *)
  next_seq : int;
}

type op =
  | Add_machine of int
  | Submit of { job : int; priority : int }
  | Examine  (** schedule the best pending job, if any *)
  | Complete of { job : int; machine : int }
  | Queue_length  (** read *)
  | Assignment_of of int  (** read *)

type result =
  | Done
  | Submitted
  | Scheduled of (int * int) option  (** (job, machine); None if queue empty *)
  | Length of int
  | Assigned_to of int option
  | Error of string

let initial () =
  { machines = Imap.empty; pending = Imap.empty; assignments = []; next_seq = 0 }

let classify = function
  | Add_machine _ | Submit _ | Examine | Complete _ -> `Write
  | Queue_length | Assignment_of _ -> `Read

type outcome = { state : state; result : result; witness : string option }

(* FCFS overridden by priority: highest priority first; among equals, the
   earlier arrival (then submission sequence) wins. *)
let best_pending state =
  Imap.fold
    (fun id job acc ->
      match acc with
      | None -> Some (id, job)
      | Some (_, b) ->
        if
          job.priority > b.priority
          || (job.priority = b.priority
             && (job.arrival < b.arrival
                || (job.arrival = b.arrival && job.submitted_seq < b.submitted_seq)))
        then Some (id, job)
        else acc)
    state.pending None

let least_loaded_machines state =
  let min_load =
    Imap.fold (fun _ l acc -> Stdlib.min l acc) state.machines max_int
  in
  Imap.fold (fun m l acc -> if l = min_load then m :: acc else acc) state.machines []
  |> List.rev

let do_assign state job machine =
  {
    state with
    pending = Imap.remove job state.pending;
    machines =
      Imap.update machine
        (function Some l -> Some (l + 1) | None -> Some 1)
        state.machines;
    assignments = (job, machine) :: state.assignments;
  }

let encode_examine_witness (choice : (int * int) option) =
  Wire.encode (fun e ->
      Wire.Encoder.option e
        (fun (job, machine) ->
          Wire.Encoder.uint e job;
          Wire.Encoder.uint e machine)
        choice)

let decode_examine_witness w =
  Wire.decode w (fun d ->
      Wire.Decoder.option d (fun d ->
          let job = Wire.Decoder.uint d in
          let machine = Wire.Decoder.uint d in
          (job, machine)))

let encode_submit_witness arrival = Wire.encode (fun e -> Wire.Encoder.float e arrival)
let decode_submit_witness w = Wire.decode w Wire.Decoder.float

let apply ~rng ~now state op =
  match op with
  | Add_machine m ->
    {
      state = { state with machines = Imap.add m 0 state.machines };
      result = Done;
      witness = None;
    }
  | Submit { job; priority } ->
    if Imap.mem job state.pending then
      { state; result = Error "duplicate job id"; witness = None }
    else
      {
        state =
          {
            state with
            pending =
              Imap.add job
                { priority; arrival = now; submitted_seq = state.next_seq }
                state.pending;
            next_seq = state.next_seq + 1;
          };
        result = Submitted;
        (* The observed clock is the nondeterminism: ship it. *)
        witness = Some (encode_submit_witness now);
      }
  | Examine -> (
    match best_pending state with
    | None ->
      { state; result = Scheduled None; witness = Some (encode_examine_witness None) }
    | Some (job, _) -> (
      match least_loaded_machines state with
      | [] -> { state; result = Error "no machines"; witness = None }
      | machines ->
        let machine = Rng.pick rng (Array.of_list machines) in
        {
          state = do_assign state job machine;
          result = Scheduled (Some (job, machine));
          witness = Some (encode_examine_witness (Some (job, machine)));
        }))
  | Complete { job; machine } ->
    {
      state =
        {
          state with
          machines =
            Imap.update machine
              (function Some l -> Some (Stdlib.max 0 (l - 1)) | None -> None)
              state.machines;
          assignments = List.filter (fun (j, _) -> j <> job) state.assignments;
        };
      result = Done;
      witness = None;
    }
  | Queue_length -> { state; result = Length (Imap.cardinal state.pending); witness = None }
  | Assignment_of job ->
    {
      state;
      result = Assigned_to (List.assoc_opt job state.assignments);
      witness = None;
    }

let replay state op ~witness =
  match op with
  | Submit { job; priority } ->
    let arrival = decode_submit_witness witness in
    if Imap.mem job state.pending then (state, Error "duplicate job id")
    else
      ( {
          state with
          pending =
            Imap.add job { priority; arrival; submitted_seq = state.next_seq } state.pending;
          next_seq = state.next_seq + 1;
        },
        Submitted )
  | Examine -> (
    match decode_examine_witness witness with
    | None -> (state, Scheduled None)
    | Some (job, machine) -> (do_assign state job machine, Scheduled (Some (job, machine))))
  | Add_machine _ | Complete _ | Queue_length | Assignment_of _ ->
    let o = apply ~rng:(Rng.of_int 0) ~now:0.0 state op in
    (o.state, o.result)

let footprint = function
  | Add_machine m -> [ Printf.sprintf "machine/%d" m ]
  | Submit { job; _ } -> [ Printf.sprintf "job/%d" job ]
  | Examine -> [ "*" ]
  | Complete { job; machine } ->
    [ Printf.sprintf "job/%d" job; Printf.sprintf "machine/%d" machine ]
  | Queue_length | Assignment_of _ -> []

(* --- codecs --- *)

let encode_op op =
  Wire.encode (fun e ->
      match op with
      | Add_machine m ->
        Wire.Encoder.uint e 0;
        Wire.Encoder.uint e m
      | Submit { job; priority } ->
        Wire.Encoder.uint e 1;
        Wire.Encoder.uint e job;
        Wire.Encoder.int e priority
      | Examine -> Wire.Encoder.uint e 2
      | Complete { job; machine } ->
        Wire.Encoder.uint e 3;
        Wire.Encoder.uint e job;
        Wire.Encoder.uint e machine
      | Queue_length -> Wire.Encoder.uint e 4
      | Assignment_of job ->
        Wire.Encoder.uint e 5;
        Wire.Encoder.uint e job)

let decode_op s =
  Wire.decode s (fun d ->
      match Wire.Decoder.uint d with
      | 0 -> Add_machine (Wire.Decoder.uint d)
      | 1 ->
        let job = Wire.Decoder.uint d in
        let priority = Wire.Decoder.int d in
        Submit { job; priority }
      | 2 -> Examine
      | 3 ->
        let job = Wire.Decoder.uint d in
        let machine = Wire.Decoder.uint d in
        Complete { job; machine }
      | 4 -> Queue_length
      | 5 -> Assignment_of (Wire.Decoder.uint d)
      | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "sched op %d" n }))

let encode_result r =
  Wire.encode (fun e ->
      match r with
      | Done -> Wire.Encoder.uint e 0
      | Submitted -> Wire.Encoder.uint e 1
      | Scheduled choice ->
        Wire.Encoder.uint e 2;
        Wire.Encoder.option e
          (fun (job, machine) ->
            Wire.Encoder.uint e job;
            Wire.Encoder.uint e machine)
          choice
      | Length n ->
        Wire.Encoder.uint e 3;
        Wire.Encoder.uint e n
      | Assigned_to m ->
        Wire.Encoder.uint e 4;
        Wire.Encoder.option e (Wire.Encoder.uint e) m
      | Error msg ->
        Wire.Encoder.uint e 5;
        Wire.Encoder.string e msg)

let decode_result s =
  Wire.decode s (fun d ->
      match Wire.Decoder.uint d with
      | 0 -> Done
      | 1 -> Submitted
      | 2 ->
        Scheduled
          (Wire.Decoder.option d (fun d ->
               let job = Wire.Decoder.uint d in
               let machine = Wire.Decoder.uint d in
               (job, machine)))
      | 3 -> Length (Wire.Decoder.uint d)
      | 4 -> Assigned_to (Wire.Decoder.option d Wire.Decoder.uint)
      | 5 -> Error (Wire.Decoder.string d)
      | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "sched result %d" n }))

let encode_state st =
  Wire.encode (fun e ->
      Wire.Encoder.uint e st.next_seq;
      Wire.Encoder.list e
        (fun (m, l) ->
          Wire.Encoder.uint e m;
          Wire.Encoder.uint e l)
        (Imap.bindings st.machines);
      Wire.Encoder.list e
        (fun (id, j) ->
          Wire.Encoder.uint e id;
          Wire.Encoder.int e j.priority;
          Wire.Encoder.float e j.arrival;
          Wire.Encoder.uint e j.submitted_seq)
        (Imap.bindings st.pending);
      Wire.Encoder.list e
        (fun (j, m) ->
          Wire.Encoder.uint e j;
          Wire.Encoder.uint e m)
        st.assignments)

let decode_state s =
  Wire.decode s (fun d ->
      let next_seq = Wire.Decoder.uint d in
      let machines =
        Wire.Decoder.list d (fun d ->
            let m = Wire.Decoder.uint d in
            let l = Wire.Decoder.uint d in
            (m, l))
      in
      let pending =
        Wire.Decoder.list d (fun d ->
            let id = Wire.Decoder.uint d in
            let priority = Wire.Decoder.int d in
            let arrival = Wire.Decoder.float d in
            let submitted_seq = Wire.Decoder.uint d in
            (id, { priority; arrival; submitted_seq }))
      in
      let assignments =
        Wire.Decoder.list d (fun d ->
            let j = Wire.Decoder.uint d in
            let m = Wire.Decoder.uint d in
            (j, m))
      in
      {
        next_seq;
        machines = Imap.of_seq (List.to_seq machines);
        pending = Imap.of_seq (List.to_seq pending);
        assignments;
      })

let diff ~old_state:_ st = Some (encode_state st)

(* The delta is the whole state, so the write set cannot narrow it. *)
let diff_keys ~old_state _ st = diff ~old_state st

let patch _ s = decode_state s

(** Test/example helpers. *)

let assignments st = List.rev st.assignments

(* Range handoff (elastic resharding) is not meaningful for this
   service's keyspace; the reshard coordinator refuses to move it. *)
let export_range _ ~lo:_ ~hi:_ = None
let import_range st _ = st
