type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations from the running mean *)
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. Float.of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n < 2 then 0.0 else t.m2 /. Float.of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min_value t = t.min
let max_value t = t.max

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. Float.of_int b.n /. Float.of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. Float.of_int a.n *. Float.of_int b.n /. Float.of_int n)
    in
    { n; mean; m2; min = Float.min a.min b.min; max = Float.max a.max b.max }
  end

(* Two-sided Student-t critical values. Rows: degrees of freedom; columns:
   90%, 95%, 99% confidence. Values beyond df=120 use the normal quantile. *)
let t_table =
  [| (1, 6.314, 12.706, 63.657);
     (2, 2.920, 4.303, 9.925);
     (3, 2.353, 3.182, 5.841);
     (4, 2.132, 2.776, 4.604);
     (5, 2.015, 2.571, 4.032);
     (6, 1.943, 2.447, 3.707);
     (7, 1.895, 2.365, 3.499);
     (8, 1.860, 2.306, 3.355);
     (9, 1.833, 2.262, 3.250);
     (10, 1.812, 2.228, 3.169);
     (12, 1.782, 2.179, 3.055);
     (14, 1.761, 2.145, 2.977);
     (16, 1.746, 2.120, 2.921);
     (18, 1.734, 2.101, 2.878);
     (20, 1.725, 2.086, 2.845);
     (25, 1.708, 2.060, 2.787);
     (30, 1.697, 2.042, 2.750);
     (40, 1.684, 2.021, 2.704);
     (60, 1.671, 2.000, 2.660);
     (120, 1.658, 1.980, 2.617) |]

let normal_quantile ~confidence =
  match confidence with
  | 0.90 -> 1.6449
  | 0.95 -> 1.9600
  | 0.99 -> 2.5758
  | _ -> invalid_arg "Stats: confidence must be 0.90, 0.95 or 0.99"

let column ~confidence (_, c90, c95, c99) =
  match confidence with
  | 0.90 -> c90
  | 0.95 -> c95
  | 0.99 -> c99
  | _ -> invalid_arg "Stats: confidence must be 0.90, 0.95 or 0.99"

(* Two-sided Student-t critical value for [df >= 1]. *)
let t_quantile ~confidence ~df =
  if df > 120 then normal_quantile ~confidence
  else begin
    (* Find bracketing rows and interpolate linearly in 1/df, which is
       close to linear for the t quantile. *)
    let rec find i =
      if i >= Array.length t_table then t_table.(Array.length t_table - 1)
      else begin
        let ((d, _, _, _) as row) = t_table.(i) in
        if d >= df then
          if d = df || i = 0 then row
          else begin
            let ((d0, _, _, _) as prev) = t_table.(i - 1) in
            let v0 = column ~confidence prev and v1 = column ~confidence row in
            let x0 = 1.0 /. Float.of_int d0
            and x1 = 1.0 /. Float.of_int d
            and x = 1.0 /. Float.of_int df in
            let frac = (x -. x0) /. (x1 -. x0) in
            (df, 0.0, 0.0, v0 +. (frac *. (v1 -. v0)))
            |> fun (_, _, _, v) -> (df, v, v, v)
          end
        else find (i + 1)
      end
    in
    column ~confidence (find 0)
  end

let confidence_interval ?(confidence = 0.99) t =
  if t.n < 2 then 0.0
  else begin
    let crit = t_quantile ~confidence ~df:(t.n - 1) in
    crit *. stddev t /. sqrt (Float.of_int t.n)
  end

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  (* Sort a copy: callers hand us their sample arrays and a statistics
     query must not mutate its input (it used to sort in place, which
     silently reordered benchmark records). *)
  let xs = Array.copy xs in
  Array.sort Float.compare xs;
  let n = Array.length xs in
  if n = 1 then xs.(0)
  else begin
    let rank = p /. 100.0 *. Float.of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. Float.of_int lo in
    xs.(lo) +. (frac *. (xs.(hi) -. xs.(lo)))
  end

let median xs = percentile xs 50.0

type summary = {
  n : int;
  mean : float;
  stddev : float;
  ci99 : float;
  min : float;
  max : float;
  p50 : float;
  p99 : float;
}

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty sample";
  let acc = create () in
  Array.iter (add acc) xs;
  (* One shared sorted copy for both percentiles. *)
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let of_sorted p =
    let n = Array.length sorted in
    if n = 1 then sorted.(0)
    else begin
      let rank = p /. 100.0 *. Float.of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = rank -. Float.of_int lo in
      sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
    end
  in
  {
    n = count acc;
    mean = mean acc;
    stddev = stddev acc;
    ci99 = confidence_interval ~confidence:0.99 acc;
    min = min_value acc;
    max = max_value acc;
    p50 = of_sorted 50.0;
    p99 = of_sorted 99.0;
  }

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.4g ±%.2g (99%% CI) sd=%.3g min=%.4g p50=%.4g p99=%.4g max=%.4g"
    s.n s.mean s.ci99 s.stddev s.min s.p50 s.p99 s.max

module Histogram = struct
  (* [Linear] keeps the original fixed-width layout; [Log ratio] buckets
     grow geometrically by [ratio] per bin — the right shape for latency
     distributions spanning several decades (the metrics registry's
     default). *)
  type scale = Linear | Log of float

  type h = {
    lo : float;
    hi : float;
    scale : scale;
    counts : int array;
    mutable total : int;
    mutable sum : float;
  }

  let create ~lo ~hi ~bins =
    if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
    if not (hi > lo) then invalid_arg "Histogram.create: hi must exceed lo";
    { lo; hi; scale = Linear; counts = Array.make bins 0; total = 0; sum = 0.0 }

  let create_log ~lo ~hi ~bins =
    if bins <= 0 then invalid_arg "Histogram.create_log: bins must be positive";
    if not (lo > 0.0) then invalid_arg "Histogram.create_log: lo must be positive";
    if not (hi > lo) then invalid_arg "Histogram.create_log: hi must exceed lo";
    let ratio = Float.exp (Float.log (hi /. lo) /. Float.of_int bins) in
    { lo; hi; scale = Log ratio; counts = Array.make bins 0; total = 0; sum = 0.0 }

  let clamp h i =
    let bins = Array.length h.counts in
    if i < 0 then 0 else if i >= bins then bins - 1 else i

  let bin_index h x =
    match h.scale with
    | Linear ->
      let bins = Array.length h.counts in
      clamp h (int_of_float ((x -. h.lo) /. (h.hi -. h.lo) *. Float.of_int bins))
    | Log ratio ->
      if x <= h.lo then 0
      else clamp h (int_of_float (Float.log (x /. h.lo) /. Float.log ratio))

  let add h x =
    h.counts.(bin_index h x) <- h.counts.(bin_index h x) + 1;
    h.total <- h.total + 1;
    h.sum <- h.sum +. x

  let counts h = Array.copy h.counts
  let total h = h.total
  let sum h = h.sum
  let mean h = if h.total = 0 then nan else h.sum /. Float.of_int h.total

  let edge h i =
    match h.scale with
    | Linear ->
      let bins = Array.length h.counts in
      h.lo +. (Float.of_int i *. (h.hi -. h.lo) /. Float.of_int bins)
    | Log ratio -> h.lo *. (ratio ** Float.of_int i)

  let bin_edges h = Array.init (Array.length h.counts + 1) (edge h)

  (* Percentile estimate from bucket counts: find the bucket holding the
     rank and interpolate linearly inside it. Accuracy is bounded by the
     bucket width — with log buckets, a constant relative error. *)
  let percentile_estimate h p =
    if h.total = 0 then nan
    else begin
      let rank = p /. 100.0 *. Float.of_int h.total in
      let rec find i seen =
        if i >= Array.length h.counts then edge h (Array.length h.counts)
        else begin
          let seen' = seen + h.counts.(i) in
          if Float.of_int seen' >= rank && h.counts.(i) > 0 then begin
            let within =
              (rank -. Float.of_int seen) /. Float.of_int h.counts.(i)
            in
            let lo = edge h i and hi = edge h (i + 1) in
            lo +. (Float.max 0.0 (Float.min 1.0 within) *. (hi -. lo))
          end
          else find (i + 1) seen'
        end
      in
      find 0 0
    end

  let pp ppf h =
    let bins = Array.length h.counts in
    let max_count = Array.fold_left Stdlib.max 1 h.counts in
    for i = 0 to bins - 1 do
      if h.counts.(i) > 0 then begin
        let bar = 50 * h.counts.(i) / max_count in
        Format.fprintf ppf "[%8.3g, %8.3g) %6d %s@." (edge h i)
          (edge h (i + 1))
          h.counts.(i)
          (String.make bar '#')
      end
    done
end
