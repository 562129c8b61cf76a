(** The nemesis stress harness: many seeded model-checker schedules with
    the full cross-layer fault mix — crashes (clean and torn-persist),
    metadata loss, message duplication and reordering — asserting
    agreement, durability, and client-visible linearizability on each,
    and shrinking any failing schedule to a minimal fault plan.

    Used by [bin/stress.exe] (CLI) and [test/test_stress.ml] (tier). *)

module Rng = Grid_util.Rng
module Lin = Linearizability
module Counter = Grid_services.Counter
module Kv = Grid_services.Kv_store
open Grid_paxos.Types

type service = Counter_service | Kv_service

let service_name = function Counter_service -> "counter" | Kv_service -> "kv"

(* Defaults chosen so a few hundred schedules exercise every fault kind
   while each schedule still commits a useful amount of work. *)
let default_nemesis =
  {
    Mcheck.crash_prob = 0.002;
    torn_frac = 0.3;
    dup_prob = 0.03;
    reorder_prob = 0.03;
    meta_drop_prob = 0.05;
    drift_prob = 0.0;
    drift_max_ms = 0.0;
  }

(* The overload tier doubles the crash rate and keeps duplication and
   reordering: shed requests and their backoff retransmissions must
   survive leader churn without losing an acknowledged write. *)
let overload_nemesis = { default_nemesis with Mcheck.crash_prob = 0.004 }

type failure = {
  seed : int;
  service : service;
  reasons : string list;
  plan : Mcheck.plan;  (** the fault plan of the failing run *)
  shrunk : Mcheck.plan option;  (** minimal still-failing plan, if shrunk *)
}

type summary = {
  schedules : int;
  failures : failure list;
  unreplied : int;  (** schedules where the drain left requests unanswered *)
  crashes : int;
  torn_persists : int;
  meta_dropped : int;
  duplicated : int;
  reordered : int;
  drifted : int;
  shed : int;  (** [Overloaded] pushbacks across all schedules *)
  admitted_p99_max : float;
      (** worst per-schedule p99 of admitted-request latency (virtual ms);
          [0.] when no schedule completed a request *)
  delivered : int;
  replies : int;
  watchdog_violations : int;
      (** online invariant checks that fired inside the replicas across the
          batch — zero on green runs *)
}

let empty_summary =
  {
    schedules = 0;
    failures = [];
    unreplied = 0;
    crashes = 0;
    torn_persists = 0;
    meta_dropped = 0;
    duplicated = 0;
    reordered = 0;
    drifted = 0;
    shed = 0;
    admitted_p99_max = 0.0;
    delivered = 0;
    replies = 0;
    watchdog_violations = 0;
  }

let admitted_p99 (o : Mcheck.outcome) =
  if Array.length o.admitted_latencies = 0 then 0.0
  else Grid_util.Stats.percentile o.admitted_latencies 99.0

let add_outcome summary (o : Mcheck.outcome) failure =
  {
    schedules = summary.schedules + 1;
    failures =
      (match failure with Some f -> f :: summary.failures | None -> summary.failures);
    unreplied = (summary.unreplied + if o.all_replied then 0 else 1);
    crashes = summary.crashes + o.crashes;
    torn_persists = summary.torn_persists + o.torn_persists;
    meta_dropped = summary.meta_dropped + o.meta_dropped;
    duplicated = summary.duplicated + o.duplicated;
    reordered = summary.reordered + o.reordered;
    drifted = summary.drifted + o.drifted;
    shed = summary.shed + o.shed;
    admitted_p99_max = Float.max summary.admitted_p99_max (admitted_p99 o);
    delivered = summary.delivered + o.delivered;
    replies = summary.replies + List.length o.replies;
    watchdog_violations = summary.watchdog_violations + o.watchdog_violations;
  }

(* ------------------------------------------------------------------ *)
(* Workloads and linearizability histories                             *)

(* A retransmitted request may be answered more than once; the client
   keeps the first reply. Retry redirects and Overloaded pushbacks are
   not completions and never enter the history. *)
let first_replies replies =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (r : reply) ->
      let key = (r.req.client, r.req.seq) in
      if (not (status_is_final r.status)) || Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    replies

(* The [seq]-th (1-based) request of [client], in workload order. *)
let nth_request_of requests ~client ~seq =
  let rec find i = function
    | [] -> None
    | (c, rt, payload) :: rest ->
      if c = client then if i = seq - 1 then Some (rt, payload) else find (i + 1) rest
      else find i rest
  in
  find 0 requests

(* Build a linearizability history from the first replies: per-client
   program order is encoded through invocation windows (requests of one
   client are sequential), cross-client operations overlap fully. *)
let history_of_replies ~op_of ~result_of requests replies =
  List.filter_map
    (fun (r : reply) ->
      let client = Grid_util.Ids.Client_id.to_int r.req.client in
      match nth_request_of requests ~client ~seq:r.req.seq with
      | None -> None
      | Some (rt, payload) ->
        Option.map
          (fun op ->
            let base = Float.of_int (r.req.seq * 10) in
            {
              Lin.client;
              op;
              result = result_of r.payload;
              invoked_at = base;
              responded_at = base +. 1000.0;
            })
          (op_of rt payload))
    (first_replies replies)

let counter_requests rng =
  let reqs = ref [] in
  for client = 1 to 3 do
    for _ = 1 to 3 do
      let r =
        if Rng.int rng 4 = 0 then (client, Read, Counter.encode_op Counter.Get)
        else (client, Write, Counter.encode_op (Counter.Add (1 + Rng.int rng 9)))
      in
      reqs := r :: !reqs
    done
  done;
  List.rev !reqs

let counter_lin_ok requests replies =
  let op_of rt payload =
    match rt with
    | Read -> Some Lin.Counter_model.Get
    | Write -> (
      match Counter.decode_op payload with
      | Counter.Add n -> Some (Lin.Counter_model.Add n)
      | Counter.Get -> Some Lin.Counter_model.Get)
    | _ -> None
  in
  Lin.Counter.check
    (history_of_replies ~op_of ~result_of:Counter.decode_result requests replies)

let kv_keys = [| "alpha"; "beta"; "gamma" |]

let kv_requests rng =
  let reqs = ref [] in
  for client = 1 to 3 do
    for _ = 1 to 3 do
      let key = kv_keys.(Rng.int rng (Array.length kv_keys)) in
      let r =
        match Rng.int rng 5 with
        | 0 -> (client, Read, Kv.encode_op (Kv.Get key))
        | 1 -> (client, Write, Kv.encode_op (Kv.Del key))
        | _ ->
          ( client,
            Write,
            Kv.encode_op (Kv.Put { key; value = Printf.sprintf "v%d" (Rng.int rng 100) })
          )
      in
      reqs := r :: !reqs
    done
  done;
  List.rev !reqs

(* Overload tier workload: more clients and a write-heavy mix than the
   default counter workload, so small admission windows actually fill,
   shed, and force the backoff/readmission path. *)
let overload_requests rng =
  let reqs = ref [] in
  for client = 1 to 4 do
    for _ = 1 to 4 do
      let r =
        if Rng.int rng 5 = 0 then (client, Read, Counter.encode_op Counter.Get)
        else (client, Write, Counter.encode_op (Counter.Add (1 + Rng.int rng 9)))
      in
      reqs := r :: !reqs
    done
  done;
  List.rev !reqs

let kv_lin_ok requests replies =
  let op_of _rt payload =
    match Kv.decode_op payload with
    | Kv.Put { key; value } -> Some (Lin.Kv_model.Put (key, value))
    | Kv.Get key -> Some (Lin.Kv_model.Get key)
    | Kv.Del key -> Some (Lin.Kv_model.Del key)
    | _ -> None
  in
  let result_of payload =
    match Kv.decode_result payload with
    | Kv.Unit -> Lin.Kv_model.Ok
    | Kv.Value v -> Lin.Kv_model.Found v
    | Kv.Cas_ok _ | Kv.Count _ -> Lin.Kv_model.Ok
  in
  Lin.Kv.check (history_of_replies ~op_of ~result_of requests replies)

(* ------------------------------------------------------------------ *)
(* One schedule                                                        *)

module type SPEC = sig
  module S : Grid_paxos.Service_intf.S

  val which : service
  val gen_requests : Rng.t -> (int * rtype * string) list
  val lin_ok : (int * rtype * string) list -> reply list -> bool
end

module Harness (Spec : SPEC) = struct
  module MC = Mcheck.Make (Spec.S)

  let requests_for ~seed = Spec.gen_requests (Rng.of_int ((seed * 7919) + 17))

  let reasons_of ?(admitted_p99_bound_ms = infinity) requests (o : Mcheck.outcome) =
    let agreement =
      List.map (Format.asprintf "%a" Agreement.pp_violation) o.violations
    in
    let bounded_latency =
      let p99 = admitted_p99 o in
      if p99 > admitted_p99_bound_ms then
        [
          Printf.sprintf
            "admitted-request p99 latency %.1f ms exceeds the %.1f ms bound" p99
            admitted_p99_bound_ms;
        ]
      else []
    in
    let lin =
      if o.all_replied && not (Spec.lin_ok requests o.replies) then
        [ "non-linearizable client history" ]
      else []
    in
    (* The online watchdogs mirror the offline oracles; a firing check on
       a schedule the oracles also flag strengthens the diagnosis, and one
       the oracles miss is a failure in its own right. *)
    let watchdog =
      if o.watchdog_violations = 0 then []
      else
        [
          Printf.sprintf "watchdog: %d online violation(s): %s"
            o.watchdog_violations
            (String.concat "; " o.watchdog_detail);
        ]
    in
    agreement @ o.durability @ o.stale_reads @ o.lost_admitted @ o.wire_errors
    @ bounded_latency @ lin @ watchdog

  (* Run one seeded schedule; on failure optionally shrink its fault plan
     to a minimal one that still fails (under deterministic replay with
     the same seed and workload). *)
  let run_one ?obs ?(steps = 1_200) ?(nemesis = default_nemesis)
      ?(disable_dedup = false) ?(cfg_tweak = Fun.id) ?admitted_p99_bound_ms
      ?(shrink = true) ~seed () =
    let requests = requests_for ~seed in
    let o =
      MC.explore ?obs ~seed ~steps ~nemesis ~disable_dedup ~cfg_tweak ~requests ()
    in
    match reasons_of ?admitted_p99_bound_ms requests o with
    | [] -> (o, None)
    | reasons ->
      let still_fails plan =
        let r =
          MC.replay ~seed ~steps ~meta_drop_prob:nemesis.meta_drop_prob
            ~disable_dedup ~cfg_tweak ~requests ~plan ()
        in
        reasons_of ?admitted_p99_bound_ms requests r <> []
      in
      let shrunk =
        if shrink then Some (Mcheck.shrink_plan ~still_fails o.plan) else None
      in
      (o, Some { seed; service = Spec.which; reasons; plan = o.plan; shrunk })

  let replay_plan ?(steps = 1_200) ?(meta_drop_prob = 0.0)
      ?(disable_dedup = false) ?(cfg_tweak = Fun.id) ?admitted_p99_bound_ms ~seed
      ~plan () =
    let requests = requests_for ~seed in
    let o =
      MC.replay ~seed ~steps ~meta_drop_prob ~disable_dedup ~cfg_tweak ~requests
        ~plan ()
    in
    (o, reasons_of ?admitted_p99_bound_ms requests o)
end

module Counter_harness = Harness (struct
  module S = Grid_services.Counter

  let which = Counter_service
  let gen_requests = counter_requests
  let lin_ok = counter_lin_ok
end)

module Kv_harness = Harness (struct
  module S = Grid_services.Kv_store

  let which = Kv_service
  let gen_requests = kv_requests
  let lin_ok = kv_lin_ok
end)

(* The overload tier runs the counter service under a write-heavy
   workload with a deliberately tiny admission window, asserting — on top
   of the usual agreement/durability/linearizability oracles — that no
   acknowledged write is lost and that the p99 latency of admitted
   requests stays bounded while the leader sheds. *)
module Overload_harness = Harness (struct
  module S = Grid_services.Counter

  let which = Counter_service
  let gen_requests = overload_requests
  let lin_ok = counter_lin_ok
end)

let run_one ~service =
  match service with
  | Counter_service -> Counter_harness.run_one
  | Kv_service -> Kv_harness.run_one

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)

let run ?(services = [ Counter_service; Kv_service ]) ?(schedules = 200)
    ?(base_seed = 1) ?(steps = 1_200) ?(nemesis = default_nemesis)
    ?(disable_dedup = false) ?cfg_tweak ?(shrink = true) ?progress () =
  let n_services = max 1 (List.length services) in
  let summary = ref empty_summary in
  List.iteri
    (fun si service ->
      let share =
        (schedules / n_services) + if si < schedules mod n_services then 1 else 0
      in
      for k = 0 to share - 1 do
        let seed = base_seed + (k * n_services) + si in
        let o, failure =
          run_one ~service ~steps ~nemesis ~disable_dedup ?cfg_tweak ~shrink ~seed ()
        in
        summary := add_outcome !summary o failure;
        match progress with Some f -> f !summary | None -> ()
      done)
    services;
  { !summary with failures = List.rev !summary.failures }

(* The overload batch: every schedule runs with a bounded admission
   window, so leaders shed under the write-heavy workload while the
   nemesis crashes and duplicates around them. Both overload oracles
   (no-admitted-loss, bounded admitted p99) are armed on every run. *)
let run_overload ?(schedules = 200) ?(base_seed = 1) ?(steps = 1_400)
    ?(nemesis = overload_nemesis) ?(max_inflight = 2) ?(max_queue = 2)
    ?(admitted_p99_bound_ms = 120_000.0) ?(shrink = true) ?progress () =
  let cfg_tweak c = Grid_paxos.Config.make ~base:c ~max_inflight ~max_queue () in
  let summary = ref empty_summary in
  for k = 0 to schedules - 1 do
    let seed = base_seed + k in
    let o, failure =
      Overload_harness.run_one ~steps ~nemesis ~cfg_tweak ~admitted_p99_bound_ms
        ~shrink ~seed ()
    in
    summary := add_outcome !summary o failure;
    match progress with Some f -> f !summary | None -> ()
  done;
  { !summary with failures = List.rev !summary.failures }

let pp_failure ppf f =
  Format.fprintf ppf "@[<v2>seed %d (%s):@ %a@ plan: %a" f.seed
    (service_name f.service)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_string)
    f.reasons Mcheck.pp_plan f.plan;
  (match f.shrunk with
  | Some p ->
    Format.fprintf ppf "@ shrunk (%d -> %d events): %a" (List.length f.plan)
      (List.length p) Mcheck.pp_plan p
  | None -> ());
  Format.fprintf ppf "@]"

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>%d schedules: %d failing, %d unreplied@ faults: %d crashes (%d torn \
     persists), %d metadata records dropped, %d duplicated, %d reordered, %d \
     clock drifts@ traffic: %d deliveries, %d replies@]"
    s.schedules (List.length s.failures) s.unreplied s.crashes s.torn_persists
    s.meta_dropped s.duplicated s.reordered s.drifted s.delivered s.replies;
  if s.shed > 0 then
    Format.fprintf ppf "@ overload: %d shed, admitted p99 <= %.1f ms" s.shed
      s.admitted_p99_max;
  if s.watchdog_violations > 0 then
    Format.fprintf ppf "@ watchdog: %d online violation(s)" s.watchdog_violations
