(** Metrics registry: named counters, gauges and log-scale latency
    histograms with Prometheus-style text exposition and a JSON
    snapshot.

    Handles returned at registration are plain mutable cells — an
    {!inc}/{!set}/{!observe} on the hot path costs one load and one
    store, no lookup. Registration itself is not hot and uses a
    hashtable keyed by metric name. *)

type t
type counter
type gauge

val create : unit -> t

val counter : t -> string -> help:string -> counter
(** Registers and returns a counter starting at 0. Raises
    [Invalid_argument] on a duplicate name. *)

val gauge : t -> string -> help:string -> gauge

val unregister : t -> string -> unit
(** Remove a metric by name (no-op if absent). The name becomes free for
    re-registration; a handle already held keeps working but stops
    appearing in {!expose}/{!to_json}. Components that register metrics
    dynamically (per-peer gauges) must unregister them on shutdown. *)

val mem : t -> string -> bool
val histogram :
  t -> string -> help:string -> lo:float -> hi:float -> bins:int -> Grid_util.Stats.Histogram.h
(** Log-scale histogram over [\[lo, hi)] (see
    {!Grid_util.Stats.Histogram.create_log}). *)

val inc : ?by:int -> counter -> unit
val set : gauge -> float -> unit
val observe : Grid_util.Stats.Histogram.h -> float -> unit

val expose : t -> string
(** Prometheus text exposition format (0.0.4): # HELP / # TYPE lines,
    cumulative [_bucket{le="..."}] series for histograms, metrics sorted
    by name (deterministic output). *)

val to_json : t -> Json.t
(** Snapshot of every metric: counters/gauges as values, histograms as
    count/sum/mean/p50/p99 plus raw buckets and edges. *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-line-per-metric dump. *)
