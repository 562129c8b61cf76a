(* Per-layer timers applied from outside the program, at its public entry
   points: a functor over a service (handed to [Tcp_node.Make]) and a
   wrapper over the [Storage.t] record (handed to [start_replica
   ?storage]). Every call is timed on the wall clock.

   A timer keeps lifetime totals (for per-call means) and a window: [mark]
   opens it, [close] freezes it, so per-op counts, busy shares and the
   median call (over the window's first [max_samples] calls) cover only
   the measured window. All calls happen on the replica's event-loop
   thread; the control thread only reads, and OCaml threads switch only
   at safe points, so plain mutable fields suffice. *)

type t = {
  name : string;
  mutable calls : int;
  mutable total_us : float;
  mutable max_us : float;  (* since the last [mark] *)
  mutable mark_calls : int;
  mutable mark_total_us : float;
  mutable win_calls : int;
  mutable win_total_us : float;
  mutable win_max_us : float;
  mutable samples : float array;  (* allocated by the first call *)
  mutable nsamples : int;  (* since the last [mark] *)
  mutable win_p50_us : float;
}

let max_samples = 1 lsl 16

let create name =
  {
    name;
    calls = 0;
    total_us = 0.0;
    max_us = 0.0;
    mark_calls = 0;
    mark_total_us = 0.0;
    win_calls = 0;
    win_total_us = 0.0;
    win_max_us = 0.0;
    samples = [||];
    nsamples = 0;
    win_p50_us = 0.0;
  }

let now_us () = Unix.gettimeofday () *. 1e6

let record t us =
  t.calls <- t.calls + 1;
  t.total_us <- t.total_us +. us;
  if us > t.max_us then t.max_us <- us;
  if t.samples = [||] then t.samples <- Array.make max_samples 0.0;
  if t.nsamples < max_samples then begin
    t.samples.(t.nsamples) <- us;
    t.nsamples <- t.nsamples + 1
  end

let time t f =
  let t0 = now_us () in
  match f () with
  | v ->
    record t (now_us () -. t0);
    v
  | exception e ->
    record t (now_us () -. t0);
    raise e

let mark t =
  t.mark_calls <- t.calls;
  t.mark_total_us <- t.total_us;
  t.max_us <- 0.0;
  t.nsamples <- 0

let close t =
  t.win_calls <- t.calls - t.mark_calls;
  t.win_total_us <- t.total_us -. t.mark_total_us;
  t.win_max_us <- t.max_us;
  if t.nsamples > 0 then begin
    let s = Array.sub t.samples 0 t.nsamples in
    Array.sort Float.compare s;
    t.win_p50_us <- s.(t.nsamples / 2)
  end

let to_json t =
  Printf.sprintf
    {|"%s":{"calls":%d,"total_us":%.3f,"win_calls":%d,"win_total_us":%.3f,"win_max_us":%.3f,"win_p50_us":%.3f}|}
    t.name t.calls t.total_us t.win_calls t.win_total_us t.win_max_us
    t.win_p50_us

module Timed (S : Grid_paxos.Service_intf.S) = struct
  include S

  let t_apply = create "apply"
  let t_diff = create "diff"
  let t_patch = create "patch"
  let t_encode_state = create "encode_state"
  let t_decode_state = create "decode_state"
  let timers = [ t_apply; t_diff; t_patch; t_encode_state; t_decode_state ]
  let apply ~rng ~now s op = time t_apply (fun () -> S.apply ~rng ~now s op)
  let diff ~old_state s = time t_diff (fun () -> S.diff ~old_state s)
  let patch s d = time t_patch (fun () -> S.patch s d)
  let encode_state s = time t_encode_state (fun () -> S.encode_state s)
  let decode_state s = time t_decode_state (fun () -> S.decode_state s)
end

let t_entry = create "entry"
let t_commit = create "commit"
let t_promise = create "promise"
let t_snapshot = create "snapshot"
let storage_timers = [ t_entry; t_commit; t_promise; t_snapshot ]

let timed_storage (s : Grid_paxos.Storage.t) : Grid_paxos.Storage.t =
  {
    persist_promise = (fun b -> time t_promise (fun () -> s.persist_promise b));
    persist_entry =
      (fun ~instance ~ballot p ->
        time t_entry (fun () -> s.persist_entry ~instance ~ballot p));
    persist_commit = (fun cp -> time t_commit (fun () -> s.persist_commit cp));
    persist_snapshot = (fun b -> time t_snapshot (fun () -> s.persist_snapshot b));
  }
