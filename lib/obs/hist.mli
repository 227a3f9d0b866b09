(** The one latency histogram shared by the metrics registry and the
    tracer: log-spaced millisecond buckets with an overflow bucket,
    count/sum/max, and a Prometheus-style quantile estimator.

    Operations are not synchronized — embed a histogram behind the
    owner's lock (as {!Metrics} does). *)

type t

val bounds : float array
(** Upper bounds of the buckets, in milliseconds, ascending; the final
    implicit bucket is [(last, +inf)]. *)

val create : unit -> t

val observe : t -> float -> unit
(** Record one latency, in seconds. *)

val observe_ms : t -> float -> unit
(** Record one latency, in milliseconds. *)

val count : t -> int
val sum_ms : t -> float
val max_ms : t -> float

val quantile : t -> float -> float
(** [quantile h q] estimates the q-quantile in milliseconds as the
    upper bound of the first bucket whose cumulative count reaches
    [q * count] (the estimator Prometheus uses), clamped to the
    observed maximum so a sparse histogram can never report a bound
    above any recorded value.  [q] itself is clamped to the
    one-observation … all-observations rank range, so [q <= 0.]
    estimates the smallest observation and [q >= 1.] the largest.
    [0.] when empty. *)

val cumulative : t -> (float * int) list
(** [(upper_bound_ms, cumulative_count)] per bucket, ascending,
    excluding the implicit [+inf] bucket (whose cumulative count is
    {!count}) — the Prometheus [_bucket] series. *)
