(** Deterministic pseudo-random number generation.

    All nondeterminism in the system (simulated latencies, randomized
    services, workload generators) flows through values of type {!t} that
    are explicitly seeded, so every simulation run is reproducible.

    The core generator is SplitMix64 (Steele, Lea & Flood 2014), which has
    a 64-bit state, passes BigCrush, and supports cheap splitting — handy
    for giving every replica, client and link an independent stream derived
    from one experiment seed. *)

type t
(** A mutable generator. Not thread-safe; use one per logical actor. *)

val create : int64 -> t
(** [create seed] returns a fresh generator. Distinct seeds give
    independent-looking streams. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list (O(n)). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian sample (Box–Muller). *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Lognormal sample: [exp (normal ~mu ~sigma)]. [mu]/[sigma] are the
    parameters of the underlying normal (log-space). *)

val lognormal_mean_cv : t -> mean:float -> cv:float -> float
(** Lognormal sample parameterized by its real-space [mean] and coefficient
    of variation [cv] (= stddev/mean). Convenient for latency jitter:
    [lognormal_mean_cv rng ~mean:45.9 ~cv:0.05]. *)

val zipf : t -> n:int -> s:float -> int
(** Zipf-distributed rank in [\[1, n\]] with exponent [s] (rejection
    sampling; O(1) expected). *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform permutation of [0 .. n-1]. *)
