(* Machine-readable bench telemetry: drivers feed every trial sample
   here keyed by (experiment id, config label); [flush] writes one
   BENCH_<experiment>.json per experiment with the summary the printed
   tables show (n, mean, 99% CI) plus p50/p99 and the raw samples, and
   the clock they were read from, so regressions can be checked without
   scraping stdout. A no-op unless
   [enable] was called. *)

module Json = Grid_obs.Json
module Stats = Grid_util.Stats

let out_dir : string option ref = ref None

(* experiment id -> configs in first-use order; samples newest-first *)
let experiments : (string, (string * float list ref) list ref) Hashtbl.t =
  Hashtbl.create 8

let order : string list ref = ref []

let enable ~dir = out_dir := Some dir
let enabled () = !out_dir <> None

let sample ~experiment ~config v =
  if enabled () then begin
    let configs =
      match Hashtbl.find_opt experiments experiment with
      | Some c -> c
      | None ->
        let c = ref [] in
        Hashtbl.add experiments experiment c;
        order := experiment :: !order;
        c
    in
    match List.assoc_opt config !configs with
    | Some samples -> samples := v :: !samples
    | None -> configs := !configs @ [ (config, ref [ v ]) ]
  end

(* The clock an experiment's samples are read from: the simulator's
   virtual time, except for the benches that time host work with
   [Sys.time]. *)
let clock_of = function "obs" | "wire" -> "cpu" | _ -> "virtual"

let config_json (label, samples) =
  let xs = Array.of_list (List.rev !samples) in
  let s = Stats.summarize xs in
  Json.Obj
    [ ("config", Json.Str label); ("n", Json.int s.n); ("mean", Json.Num s.mean);
      ("ci99", Json.Num s.ci99); ("p50", Json.Num s.p50); ("p99", Json.Num s.p99);
      ("min", Json.Num s.min); ("max", Json.Num s.max);
      ("samples", Json.Arr (List.map (fun x -> Json.Num x) (Array.to_list xs))) ]

let flush () =
  match !out_dir with
  | None -> ()
  | Some dir ->
    List.iter
      (fun experiment ->
        let configs = !(Hashtbl.find experiments experiment) in
        let json =
          Json.Obj
            [ ("experiment", Json.Str experiment);
              ("clock", Json.Str (clock_of experiment));
              ("configs", Json.Arr (List.map config_json configs)) ]
        in
        let path = Filename.concat dir ("BENCH_" ^ experiment ^ ".json") in
        let oc = open_out path in
        output_string oc (Json.to_string_pretty json);
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s\n%!" path)
      (List.rev !order)
