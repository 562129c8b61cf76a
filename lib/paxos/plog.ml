type entry = {
  ballot : Types.Ballot.t;
  proposal : Types.proposal;
  committed : bool;
  pruned : bool;
}

type t = {
  entries : (int, entry) Hashtbl.t;
  mutable commit_point : int;
}

let create () = { entries = Hashtbl.create 64; commit_point = 0 }
let commit_point t = t.commit_point
let get t i = Hashtbl.find_opt t.entries i

let accept t ~instance ~ballot proposal =
  if instance < 1 then invalid_arg "Plog.accept: instances start at 1";
  let store () =
    Hashtbl.replace t.entries instance
      { ballot; proposal; committed = false; pruned = false };
    true
  in
  match Hashtbl.find_opt t.entries instance with
  | None -> store ()
  | Some e when e.committed -> false
  | Some e when Types.Ballot.compare ballot e.ballot >= 0 -> store ()
  | Some _ -> false

let commit t ~instance =
  match Hashtbl.find_opt t.entries instance with
  | None -> false
  | Some e ->
    if not e.committed then
      Hashtbl.replace t.entries instance { e with committed = true };
    (* Advance the contiguous committed prefix. *)
    let rec advance i =
      match Hashtbl.find_opt t.entries (i + 1) with
      | Some e when e.committed -> advance (i + 1)
      | _ -> i
    in
    t.commit_point <- advance t.commit_point;
    true

let install_commit_point t cp =
  if cp > t.commit_point then begin
    Hashtbl.filter_map_inplace
      (fun i e -> if i <= cp then None else Some e)
      t.entries;
    t.commit_point <- cp
  end

let accepted_above t floor =
  Hashtbl.fold
    (fun i (e : entry) acc ->
      if i > floor && not e.pruned then
        ({ Types.instance = i; ballot = e.ballot; proposal = e.proposal } :: acc)
      else acc)
    t.entries []
  |> List.sort (fun (a : Types.recovery_entry) b -> Int.compare a.instance b.instance)

let prune_below t floor =
  Hashtbl.filter_map_inplace
    (fun i e ->
      if i <= floor && e.committed && not e.pruned then
        Some
          {
            e with
            pruned = true;
            proposal = { e.proposal with update = Types.Full "" };
          }
      else Some e)
    t.entries


let committed_requests t =
  Hashtbl.fold (fun i e acc -> if e.committed then (i, e) :: acc else acc) t.entries []
  |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
  |> List.concat_map (fun (_, (e : entry)) -> e.proposal.Types.requests)
