(** The runtime sampler: each pass publishes process-level gauges
    into a {!Metrics.t} — GC heap size, allocation rate, collection
    counts from [Gc.quick_stat], plus whatever {e sources} upper tiers
    register (the server's worker-pool busy clocks, the snapshotter's
    queue depth).  No domain runs it: a pass runs when something reads
    the gauges — a Prometheus scrape of [/v1/metrics] and
    [GET /v1/debug/runtime] each sample first.  Sources are plain
    closures returning samples, so this module stays at the bottom of
    the dependency order while any tier can feed it.

    The GC gauges ([ekg_runtime_gc_*], [ekg_runtime_alloc_rate_words_per_s])
    answer the scale-out questions the request-scoped series cannot:
    is the heap growing, is allocation pressure rising, are major
    collections becoming frequent — independent of any request being
    in flight.  The allocation rate covers the time between the last
    two passes, that is, between scrapes. *)

type sample = {
  s_gauge : Metrics.gauge;  (** the gauge family the value is set on *)
  s_labels : (string * string) list;
  s_value : float;
}

type t

val create : Metrics.t -> t
(** A sampler publishing into the given registry on each {!sample}. *)

val register : t -> string -> (unit -> sample list) -> unit
(** [register t name source] adds (or replaces, by [name]) a gauge
    source consulted on every pass.  A raising source contributes
    nothing for that pass; it is never dropped. *)

val sample : t -> sample list
(** One synchronous sampler pass: read the GC, consult every source,
    publish all gauges, and return them — the [/v1/debug/runtime]
    document renders this list directly.  The gauges and the pass
    counter are one {!Metrics.record}; concurrent passes run one at a
    time. *)

val samples_metric : Metrics.counter
(** [ekg_runtime_samples_total] — sampler passes completed. *)

val top_heap_words_metric : Metrics.gauge
(** [ekg_runtime_gc_top_heap_words] — the largest major heap reached. *)
