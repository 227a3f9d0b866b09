(** An instrumented mutex for contention visibility: [Mutex]'s
    discipline plus per-lock wait/hold histograms and contention
    counters into a {!Metrics.t}, labeled [{lock="<name>"}].  The
    series:

    - [ekg_lock_wait_seconds] — time to acquire (0 on an uncontended
      fast path);
    - [ekg_lock_hold_seconds] — critical-section length, observed
      after release;
    - [ekg_lock_acquisitions_total], [ekg_lock_contended_total].

    With a {!Metrics.noop} registry every operation is a plain mutex
    op behind one branch, so hot paths can adopt the wrapper without
    an off-mode cost.  Name cardinality is the adopter's budget: use
    the wrapper for the handful of process-wide locks worth watching
    (registry, snapshotter, tracer), not per-entity locks. *)

type t

val create : ?obs:Metrics.t -> string -> t
(** [create ~obs name] declares the lock's four series in [obs] at
    zero, so scrapes see them before the first acquisition.  [obs]
    defaults to a noop registry (uninstrumented). *)

val name : t -> string

val mutex : t -> Mutex.t
(** The raw mutex, for [Condition.wait].  A wait releases and
    reacquires the mutex outside the wrapper, so a critical section
    that blocks on a condition should take the raw ops around its wait
    loop — otherwise the hold histogram absorbs the blocked time and
    stops describing contention. *)

val lock : t -> unit
(** Acquire; its wait, acquisition and (if the lock was held) contention
    are one {!Metrics.record}. *)

val unlock : t -> unit

val with_lock : t -> (unit -> 'a) -> 'a
(** [lock]/[unlock] around [f], release guaranteed on exceptions. *)

(** {1 Families} *)

val wait_metric : Metrics.histogram
val hold_metric : Metrics.histogram
val acquisitions_metric : Metrics.counter
val contended_metric : Metrics.counter
