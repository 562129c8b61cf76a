(** Streaming and batch statistics used by the benchmark harness.

    The paper reports averages with 99% confidence intervals; {!summary}
    and {!confidence_interval} reproduce that reporting (Student-t for
    small samples, normal approximation for large ones). *)

(** {1 Streaming accumulator (Welford)} *)

type t
(** Mutable accumulator of a stream of floats: count, mean, variance,
    min and max, in O(1) memory. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** Mean of the observations; [nan] if empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val stddev : t -> float
val min_value : t -> float
val max_value : t -> float
val merge : t -> t -> t
(** [merge a b] is a fresh accumulator equivalent to having seen both
    streams (Chan et al. parallel combination). *)

(** {1 Confidence intervals} *)

val confidence_interval : ?confidence:float -> t -> float
(** Half-width of the confidence interval of the mean (default 99%),
    i.e. the paper's "±" value: the two-sided Student-t critical value
    times the standard error. The t value is interpolated from a fixed
    table and falls back to the normal quantile for large samples.
    Supported confidence levels: 0.90, 0.95, 0.99. [0.] with fewer than
    two observations. *)

(** {1 Batch helpers} *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]]; linear interpolation between
    order statistics. Sorts a copy — the input array is never mutated. *)

val median : float array -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  ci99 : float;  (** half-width of the 99% confidence interval *)
  min : float;
  max : float;
  p50 : float;
  p99 : float;
}

val summarize : float array -> summary
(** Full summary of a non-empty sample (sorts a copy). *)

val pp_summary : Format.formatter -> summary -> unit

(** {1 Histogram} *)

module Histogram : sig
  type h
  (** Binned histogram over [\[lo, hi)]; values outside the range are
      clamped into the first/last bin. Buckets are either fixed-width
      ({!create}) or exponentially growing ({!create_log}) — the latter
      is the shape latency distributions need (constant *relative*
      resolution across decades). *)

  val create : lo:float -> hi:float -> bins:int -> h
  (** Fixed-width buckets. *)

  val create_log : lo:float -> hi:float -> bins:int -> h
  (** Exponential buckets: bin [i] covers [\[lo·r^i, lo·r^(i+1))] with
      [r = (hi/lo)^(1/bins)]. Requires [lo > 0]. Non-positive samples are
      clamped into the first bin. *)

  val add : h -> float -> unit
  val counts : h -> int array
  val total : h -> int
  val sum : h -> float
  val mean : h -> float
  (** [nan] when empty. *)

  val bin_edges : h -> float array
  val percentile_estimate : h -> float -> float
  (** Percentile estimated from bucket counts (linear interpolation
      within the covering bucket); [nan] when empty. With log buckets the
      error is a constant relative factor bounded by the bucket ratio. *)

  val pp : Format.formatter -> h -> unit
  (** Render as an ASCII bar chart, one line per non-empty bin. *)
end
