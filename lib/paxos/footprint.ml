(* Footprints and the one conflict relation the replica schedules on
   (DESIGN.md §18). T-Paxos first-committer-wins, 2PC prepared locks and
   the reshard freeze/moved gates all ask the same question — does this
   work item touch what that holder holds? — and answer it here. *)

type t = string list
type range = string * string option
type extent = Keys of t | Range of range

let in_range (lo, hi) k =
  String.compare k lo >= 0
  && match hi with None -> true | Some h -> String.compare k h < 0

let touches_all = List.mem "*"

(* [lo] lies below the exclusive upper bound [hi]. *)
let below lo = function None -> true | Some h -> String.compare lo h < 0

let intersects a b =
  match (a, b) with
  | Keys a, Keys b ->
    a <> [] && b <> []
    && (touches_all a || touches_all b || List.exists (fun k -> List.mem k b) a)
  | Keys k, Range r | Range r, Keys k ->
    k <> [] && (touches_all k || List.exists (in_range r) k)
  | Range (lo, hi), Range (lo', hi') -> below lo hi' && below lo' hi

type holder = Moved | Frozen | Freezing | Prepared | Written
type locks = (holder * extent) list
type claim = Read | Write | Commit | Prepare | Freeze
type verdict = Free | Conflict | Wait | Redirect

(* What a claim meets at a holder it intersects. A same-batch FREEZE
   ([Freezing]) only holds back prepares: a write or single-shard commit
   batched after it lands in the same instance's state, which the slice
   export sees, but a YES vote defers its writes to a decision that
   would arrive after the slice shipped. *)
let verdict claim holder =
  match (claim, holder) with
  | Freeze, Prepared -> Conflict
  | Freeze, (Moved | Frozen | Freezing | Written) -> Free
  | (Read | Write | Commit | Prepare), Moved -> Redirect
  | Read, (Frozen | Freezing | Prepared | Written) -> Free
  | (Write | Commit | Prepare), Frozen | Prepare, Freezing | Write, Prepared -> Wait
  | (Commit | Prepare), (Prepared | Written) -> Conflict
  | (Write | Commit), Freezing | Write, Written -> Free

(* Verdicts are declared in ascending severity, so the worst one wins. *)
let check locks claim x =
  List.fold_left
    (fun v (h, e) ->
      let v' = verdict claim h in
      if v' > v && intersects x e then v' else v)
    Free locks

module Window = struct
  type nonrec t = (int, t) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let record (w : t) ~instance ~commit_point fp =
    Hashtbl.replace w instance fp;
    (* Bound the window. *)
    if Hashtbl.length w > 2048 then
      Hashtbl.filter_map_inplace
        (fun i v -> if i < commit_point - 1024 then None else Some v)
        w

  let conflicts (w : t) ~after ~upto fp =
    let rec scan i =
      i <= upto
      &&
      match Hashtbl.find_opt w i with
      | None -> true (* window evicted: be conservative *)
      | Some fps -> intersects (Keys fp) (Keys fps) || scan (i + 1)
    in
    scan (after + 1)
end
