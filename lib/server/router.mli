(** Route table of the explanation service — API v1.

    {v
    GET  /v1/health                      liveness + uptime
    GET  /v1/metrics                     counters and latency quantiles (JSON),
                                         or Prometheus text ([Accept: text/plain]
                                         or [?format=prometheus])
    GET  /v1/sessions                    list sessions
    POST /v1/sessions                    load a program/glossary/EDB triple
    DELETE /v1/sessions/:id              unregister a session
    GET|POST /v1/sessions/:id/explain    explain the facts matching an atom query,
                                         paged; GET takes URL parameters, POST
                                         the same ones as JSON members
    POST /v1/sessions/:id/explain:batch  explain many queries over one chase
    GET|POST /v1/sessions/:id/query      answer a point query (magic-sets lane
                                         or a lookup on the materialization)
    POST|DELETE /v1/sessions/:id/facts   add or retract EDB facts live
    GET  /v1/sessions/:id/fingerprint    digest of the session's materialization
    GET  /v1/sessions/:id/templates      both template families of a session
    GET  /v1/sessions/:id/trace          span tree of the session's last explain
    GET  /v1/debug/runtime               live runtime gauges (GC, sampler sources)
    GET  /v1/debug/sessions              session table: tier, generation, LRU clock
    GET  /v1/debug/inflight              in-flight request table with elapsed time
    GET  /v1/debug/slowlog               the slow-request ring
    v}

    Each route is one entry of router.ml's table — method, path literal,
    class ({!cls}), handler — and dispatch, the metric label, the [405]
    with its [Allow] header, the probes ({!classify}), the legacy
    redirects and the {!Fault.Delay} scope (paths under a session
    route's root) are read off it.  Pre-/v1 paths under a probe or
    session route's root ([/health], [/metrics], [/sessions…]) answer
    [301] with [Location: /v1…] and [Deprecation: true].

    {2 Error envelope}

    Every non-2xx body is
    [{"error": {"code", "message", "retryable", "detail"?}}] — see
    {!Errors} for the code set and its HTTP/retryability mapping.
    Handler exceptions are caught and mapped to [internal_error]/500 so
    a worker domain never dies on a request.

    {2 Deadlines}

    Explain-family requests honour an [X-Ekg-Deadline-Ms] header
    (server default when absent, clamped to the server cap).  The
    deadline propagates into the chase as a {!Ekg_engine.Chase.budget};
    an exhausted deadline answers [504 deadline_exceeded] with the
    partial chase progress in [detail].  When the chase was already
    cached and only verbalization remains, an expired deadline degrades
    the response instead: [200] with ["degraded": true] and template
    skeletons in place of prose.

    Every request is assigned a process-unique trace id, echoed back in
    an [X-Ekg-Trace-Id] response header; explain requests additionally
    record a span tree (request → chase → explain stages) under that id,
    retrievable via [GET /v1/sessions/:id/trace].  Finished spans feed
    the [ekg_pipeline_stage_*] series; chase materializations feed
    [ekg_chase_*]; admission control feeds [ekg_server_shed_total],
    [ekg_request_deadline_exceeded_total] and [ekg_server_queue_depth]. *)

type state

val make_state :
  ?root:string ->
  ?chase_domains:int ->
  ?fault:Fault.t ->
  ?default_deadline_ms:float ->
  ?max_deadline_ms:float ->
  ?store:Ekg_store.Store.t ->
  ?snapshot_mode:Ekg_store.Snapshotter.mode ->
  ?max_hot_sessions:int ->
  ?log:Ekg_obs.Log.t ->
  unit ->
  state
(** Fresh registry + metrics registry + tracer; [root] anchors
    [program_path] / [facts_dir] session specs.
    [chase_domains] (default [1]) must be [1]: the chase is sequential,
    and any other value raises [Invalid_argument].  It remains only for
    callers that still pass [~chase_domains:1].
    [fault] (default {!Fault.Off}) injects the configured fault:
    [Delay] sleeps before handling each session request, [Slow_chase]
    stretches materializations (see {!Registry.create}).
    [default_deadline_ms] (default [30_000]) applies when a request
    carries no [X-Ekg-Deadline-Ms]; [max_deadline_ms] (default
    [300_000]) caps what a client may ask for.  The request, chase
    and robustness series are pre-declared so Prometheus scrapes see
    them before the first request, materialization or shed.

    [store] enables the persistence tier (see {!Registry.create}):
    snapshots after creation/update/materialization, warm restores on
    cache miss, startup recovery, and — with [max_hot_sessions] > 0 —
    LRU demotion of cold materializations to disk.  The store's
    metrics sink is re-bound to this state's observability registry,
    and the five [ekg_store_*] series are pre-declared so they appear
    at zero from the first scrape.  [snapshot_mode] picks where
    snapshot work runs (default write-behind on a dedicated domain). *)

val registry : state -> Registry.t

val obs : state -> Ekg_obs.Metrics.t
(** The one metrics registry: request counts, latency and errors per
    route label, session-cache hits and misses, uptime, and the chase,
    pipeline-stage, query-lane, lock and store series.  [GET
    /v1/metrics] renders it as JSON or as Prometheus text. *)

val tracer : state -> Ekg_obs.Trace.t
(** The request tracer (ring buffer of recent explain traces). *)

val log : state -> Ekg_obs.Log.t
(** The structured logger receiving one wide event per request.
    Defaults to a sink-less logger that still feeds the slow-request
    ring; pass [?log] to {!make_state} (the [--log-file] flag) to
    write JSONL. *)

val runtime : state -> Ekg_obs.Runtime.t
(** The runtime sampler.  No domain runs it: a Prometheus scrape of
    [GET /v1/metrics] and [GET /v1/debug/runtime] each drive one pass
    before they render.  The server registers its worker-pool source
    here; the snapshotter gauges are pre-registered when a store is
    configured. *)

val fault : state -> Fault.t
(** The injected fault, for the server's reader ({!Fault.Delay} and
    {!Fault.Slow_chase} are consumed inside the router/registry;
    {!Fault.Refuse_accept} must be honoured by the reader). *)

type cls =
  | Probe    (** answered by the server's reader, never queued *)
  | Session  (** session traffic, slowed by {!Fault.Delay} *)
  | Debug    (** the live debug surface *)

val classify : Http.request -> cls option
(** The class of the route the request dispatches to, or of the route
    a legacy path redirects to ([GET /health] is a [Probe]); [None]
    when no route takes the request's method and path. *)

val handle : ?queue_wait_s:float -> state -> Http.request -> Http.response
(** Dispatch one request through the table.  Like every reply on the
    server's one reply path ({!refuse}'s too), it counts once under its
    label in [ekg_requests_total], [ekg_request_errors_total],
    [ekg_endpoint_{requests,errors}_total] and [ekg_request_duration_ms],
    carries [X-Ekg-Trace-Id] and emits one {e wide event}: a JSONL record
    of trace id, method, target, endpoint (the label), status,
    [error_code] (put by {!Errors.response}; [""] below 400),
    [queue_wait_ms], GC deltas, and what the tiers put through
    {!Ekg_obs.Log.Ctx} (session, chase source and cost, cache hits).
    The label is the route's, ["<METH> (known path)"] (405),
    ["(unmatched)"], ["(legacy-redirect)"] or ["(handler-exception)"]
    (500).  Also keeps the in-flight table behind
    [GET /v1/debug/inflight]. *)

type refusal =
  | Shed of Http.request  (** 503 [overloaded], [Retry-After: 1]; label ["(shed)"] *)
  | Unparsed of Http.error  (** the framing error's envelope; label ["(parse-error)"] *)
  | Timed_out  (** 408 [request_timeout]; label ["(request-timeout)"] *)

val refuse : state -> refusal -> Http.response
(** The reply to a request the server's reader answers without routing
    it, accounted as {!handle}'s are.  [Shed] also bumps
    [ekg_server_shed_total] and sets the event's [shed]; [Unparsed] and
    [Timed_out] leave its [method] and [target] empty. *)

val set_queue_depth : state -> int -> unit
(** Publish the admission-queue depth as the [ekg_server_queue_depth]
    gauge. *)
