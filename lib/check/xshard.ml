(* Cross-shard transaction checker: atomicity and serializability of 2PC
   over per-group T-Paxos, from the groups' committed histories alone.

   The input is one committed history per group (instance, request batch,
   encoded state) — normally the longest replica history of each group;
   per-replica agreement within a group is Agreement.check's job, not
   ours. Cross-shard transaction ids are recognised by [is_cross_tid]
   (Multi allocates them at and above [Multi.cross_tid_base]). *)

open Grid_paxos.Types

type violation =
  | Mixed_decision of { tid : int; committed_in : int list; aborted_in : int list }
      (** atomicity broken: the tid committed in some groups and logged an
          abort decision in others *)
  | Duplicate_decision of { tid : int; group : int; instances : int list }
      (** one group committed more than one decision instance for a tid —
          the decision tombstones failed *)
  | Unresolved_prepare of { tid : int; group : int; instance : int }
      (** a committed prepare with no committed decision in that group
          (reported only under [require_resolved]) *)
  | Cycle of { tids : int list }
      (** serializability broken: committed cross-shard transactions whose
          per-group decision orders form a cycle over conflicting
          footprints *)

let pp_violation ppf = function
  | Mixed_decision { tid; committed_in; aborted_in } ->
    Format.fprintf ppf "txn %d committed in groups [%s] but aborted in [%s]" tid
      (String.concat "," (List.map string_of_int committed_in))
      (String.concat "," (List.map string_of_int aborted_in))
  | Duplicate_decision { tid; group; instances } ->
    Format.fprintf ppf "txn %d decided more than once in group %d (instances %s)"
      tid group
      (String.concat "," (List.map string_of_int instances))
  | Unresolved_prepare { tid; group; instance } ->
    Format.fprintf ppf
      "txn %d prepared in group %d (instance %d) but never decided there" tid group
      instance
  | Cycle { tids } ->
    Format.fprintf ppf "serialization cycle over cross-shard txns [%s]"
      (String.concat " -> " (List.map string_of_int tids))

(* Per-group observation of one cross-shard transaction. *)
type obs = {
  mutable o_prepared : int option;  (* instance of the committed prepare *)
  mutable o_decisions : (int * bool) list;  (* (instance, committed?) *)
  mutable o_footprint : string list;  (* from the replayed ops, commit only *)
}

let check ?(require_resolved = false) ~is_cross_tid ~footprint_of
    (histories : (int * request list * string) list array) : violation list =
  let groups = Array.length histories in
  (* (group, tid) -> obs *)
  let seen : (int * int, obs) Hashtbl.t = Hashtbl.create 64 in
  let obs g tid =
    match Hashtbl.find_opt seen (g, tid) with
    | Some o -> o
    | None ->
      let o = { o_prepared = None; o_decisions = []; o_footprint = [] } in
      Hashtbl.replace seen (g, tid) o;
      o
  in
  for g = 0 to groups - 1 do
    List.iter
      (fun (instance, (requests : request list), _state) ->
        (* The ops replayed by a commit decision precede their marker in
           the same batch; collect them per tid as we scan. *)
        let batch_ops : (int, string list) Hashtbl.t = Hashtbl.create 4 in
        List.iter
          (fun (r : request) ->
            match r.rtype with
            | Txn_op tid when is_cross_tid tid ->
              let fp = footprint_of r.payload in
              Hashtbl.replace batch_ops tid
                (fp
                @ Option.value ~default:[] (Hashtbl.find_opt batch_ops tid))
            | Txn_prepare tid when is_cross_tid tid ->
              let o = obs g tid in
              if o.o_prepared = None then o.o_prepared <- Some instance
            | Txn_commit tid when is_cross_tid tid ->
              let o = obs g tid in
              o.o_decisions <- (instance, true) :: o.o_decisions;
              o.o_footprint <-
                Option.value ~default:[] (Hashtbl.find_opt batch_ops tid)
                @ o.o_footprint
            | Txn_abort tid when is_cross_tid tid ->
              let o = obs g tid in
              o.o_decisions <- (instance, false) :: o.o_decisions
            | _ -> ())
          requests)
      histories.(g)
  done;
  let violations = ref [] in
  (* Aggregate per tid across groups. *)
  let by_tid : (int, (int * obs) list) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (g, tid) o ->
      Hashtbl.replace by_tid tid
        ((g, o) :: Option.value ~default:[] (Hashtbl.find_opt by_tid tid)))
    seen;
  Hashtbl.iter
    (fun tid gobs ->
      let committed_in =
        List.filter_map
          (fun (g, o) ->
            if List.exists (fun (_, c) -> c) o.o_decisions then Some g else None)
          gobs
        |> List.sort Int.compare
      and aborted_in =
        List.filter_map
          (fun (g, o) ->
            if List.exists (fun (_, c) -> not c) o.o_decisions then Some g
            else None)
          gobs
        |> List.sort Int.compare
      in
      if committed_in <> [] && aborted_in <> [] then
        violations := Mixed_decision { tid; committed_in; aborted_in } :: !violations;
      List.iter
        (fun (g, o) ->
          (match o.o_decisions with
          | _ :: _ :: _ ->
            violations :=
              Duplicate_decision
                { tid; group = g; instances = List.map fst o.o_decisions }
              :: !violations
          | _ -> ());
          match (o.o_prepared, o.o_decisions) with
          | Some instance, [] when require_resolved ->
            violations := Unresolved_prepare { tid; group = g; instance } :: !violations
          | _ -> ())
        gobs)
    by_tid;
  (* Serialization graph over committed cross-shard txns: in each group,
     decision instances are totally ordered; an edge T1 -> T2 exists when
     some group decided T1 before T2 and their footprints in that group
     conflict. A cycle needs two groups to order two conflicting txns
     oppositely — exactly what the prepare locks must prevent. *)
  let committed_obs g tid =
    match Hashtbl.find_opt seen (g, tid) with
    | Some o -> (
      match List.find_opt (fun (_, c) -> c) o.o_decisions with
      | Some (i, _) -> Some (i, o.o_footprint)
      | None -> None)
    | None -> None
  in
  let nodes =
    Hashtbl.fold
      (fun tid gobs acc ->
        if List.exists (fun (_, o) -> List.exists snd o.o_decisions) gobs then
          tid :: acc
        else acc)
      by_tid []
  in
  let edges : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  for g = 0 to groups - 1 do
    let decided =
      List.filter_map
        (fun tid ->
          match committed_obs g tid with
          | Some (i, fp) -> Some (tid, i, fp)
          | None -> None)
        nodes
      |> List.sort (fun (_, i, _) (_, j, _) -> Int.compare i j)
    in
    let rec pairs = function
      | [] -> ()
      | (t1, _, fp1) :: rest ->
        List.iter
          (fun (t2, _, fp2) ->
            if t1 <> t2 && Grid_paxos.Footprint.(intersects (Keys fp1) (Keys fp2)) then
              Hashtbl.replace edges t1
                (t2 :: Option.value ~default:[] (Hashtbl.find_opt edges t1)))
          rest;
        pairs rest
    in
    pairs decided
  done;
  (* Cycle detection: DFS with colours. *)
  let colour : (int, [ `Grey | `Black ]) Hashtbl.t = Hashtbl.create 16 in
  let cycle = ref None in
  let rec dfs path tid =
    match Hashtbl.find_opt colour tid with
    | Some `Black -> ()
    | Some `Grey ->
      if !cycle = None then begin
        (* [path] has the re-reached node at its head and its previous
           occurrence further down: the segment between them, reversed,
           is the cycle in edge order. *)
        let rec upto = function
          | [] -> []
          | x :: rest -> if x = tid then [ x ] else x :: upto rest
        in
        match path with
        | _ :: tl -> cycle := Some (List.rev (upto tl))
        | [] -> ()
      end
    | None ->
      Hashtbl.replace colour tid `Grey;
      List.iter
        (fun n -> dfs (n :: path) n)
        (Option.value ~default:[] (Hashtbl.find_opt edges tid));
      Hashtbl.replace colour tid `Black
  in
  List.iter (fun tid -> dfs [ tid ] tid) (List.sort Int.compare nodes);
  (match !cycle with
  | Some tids -> violations := Cycle { tids } :: !violations
  | None -> ());
  List.rev !violations
