module Stats = Grid_util.Stats

(* A registry is a flat name -> metric table. Metric names follow the
   Prometheus convention (snake_case, unit suffix: _total, _seconds,
   _ms). Counters and gauges are plain mutable cells so the hot-path cost
   of an update is one load + one store. *)

type counter = { mutable count : int }
type gauge = { mutable value : float }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of Stats.Histogram.h

type t = { tbl : (string, string * metric) Hashtbl.t }
(* value = (help text, metric) *)

let create () = { tbl = Hashtbl.create 32 }

let register t name ~help metric =
  if Hashtbl.mem t.tbl name then
    invalid_arg (Printf.sprintf "Metrics: duplicate metric %s" name);
  Hashtbl.replace t.tbl name (help, metric)

(* Removing a metric frees its name for re-registration; handles already
   held keep working but no longer feed the exposition. A shutting-down
   component (e.g. a TCP node's per-peer backoff gauges) must unregister
   what it registered, or restarts accumulate dead series. *)
let unregister t name = Hashtbl.remove t.tbl name
let mem t name = Hashtbl.mem t.tbl name

let counter t name ~help =
  let c = { count = 0 } in
  register t name ~help (Counter c);
  c

let gauge t name ~help =
  let g = { value = 0.0 } in
  register t name ~help (Gauge g);
  g

let histogram t name ~help ~lo ~hi ~bins =
  let h = Stats.Histogram.create_log ~lo ~hi ~bins in
  register t name ~help (Histogram h);
  h

let inc ?(by = 1) c = c.count <- c.count + by
let set g v = g.value <- v
let observe h v = Stats.Histogram.add h v

let sorted_entries t =
  Hashtbl.fold (fun name (help, m) acc -> (name, help, m) :: acc) t.tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (version 0.0.4 format)                   *)

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let expose t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, help, m) ->
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      match m with
      | Counter c ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" name);
        Buffer.add_string buf (Printf.sprintf "%s %d\n" name c.count)
      | Gauge g ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" name);
        Buffer.add_string buf (Printf.sprintf "%s %s\n" name (fmt_float g.value))
      | Histogram h ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
        let counts = Stats.Histogram.counts h in
        let edges = Stats.Histogram.bin_edges h in
        let cum = ref 0 in
        Array.iteri
          (fun i c ->
            cum := !cum + c;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name
                 (fmt_float edges.(i + 1))
                 !cum))
          counts;
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name
             (Stats.Histogram.total h));
        Buffer.add_string buf
          (Printf.sprintf "%s_sum %s\n" name (fmt_float (Stats.Histogram.sum h)));
        Buffer.add_string buf
          (Printf.sprintf "%s_count %d\n" name (Stats.Histogram.total h)))
    (sorted_entries t);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON snapshot                                                       *)

let to_json t : Json.t =
  Json.Obj
    (List.map
       (fun (name, help, m) ->
         let body =
           match m with
           | Counter c ->
             [ ("type", Json.Str "counter"); ("value", Json.int c.count) ]
           | Gauge g -> [ ("type", Json.Str "gauge"); ("value", Json.Num g.value) ]
           | Histogram h ->
             [
               ("type", Json.Str "histogram");
               ("count", Json.int (Stats.Histogram.total h));
               ("sum", Json.Num (Stats.Histogram.sum h));
               ("mean", Json.Num (Stats.Histogram.mean h));
               ("p50", Json.Num (Stats.Histogram.percentile_estimate h 50.0));
               ("p99", Json.Num (Stats.Histogram.percentile_estimate h 99.0));
               ( "buckets",
                 Json.Arr
                   (Array.to_list
                      (Array.map (fun c -> Json.int c) (Stats.Histogram.counts h)))
               );
               ( "edges",
                 Json.Arr
                   (Array.to_list
                      (Array.map (fun e -> Json.Num e) (Stats.Histogram.bin_edges h)))
               );
             ]
         in
         (name, Json.Obj (("help", Json.Str help) :: body)))
       (sorted_entries t))

let pp ppf t =
  List.iter
    (fun (name, _, m) ->
      match m with
      | Counter c -> Format.fprintf ppf "%-40s %d@." name c.count
      | Gauge g -> Format.fprintf ppf "%-40s %s@." name (fmt_float g.value)
      | Histogram h ->
        Format.fprintf ppf "%-40s n=%d mean=%.4g p50=%.4g p99=%.4g@." name
          (Stats.Histogram.total h) (Stats.Histogram.mean h)
          (Stats.Histogram.percentile_estimate h 50.0)
          (Stats.Histogram.percentile_estimate h 99.0))
    (sorted_entries t)
