(** The session registry — the piece that makes the daemon worth
    running.  A session pins a compiled [Pipeline.t] (structural
    analysis + both template families) together with its EDB; the
    chase materialization is computed on the first explanation request
    and kept, so every later request over the same knowledge graph
    skips program analysis {i and} reasoning, and an explanation is
    only the templates' instantiation along a proof.

    {b Concurrency.}  All entry points are safe to call from concurrent
    domains.  A {!session} value is an immutable {e version}, so a
    held value is a snapshot; given any version, an operation reads —
    and a writer replaces — its session's current version, one
    [Atomic.get] away.  Readers (hot explanations and queries, the
    dormant query lane, listings, snapshot captures, traces) take no
    session-wide lock, so no read waits on a chase or an update.  Only
    a materialization that misses, a fact update and an eviction take
    the session's writer lock; they serialize, and each ends by
    publishing one new version.  The query lane's shape cache has a
    short lock of its own, never held across a chase. *)

open Ekg_core
open Ekg_datalog
open Ekg_engine

type cached_answers = {
  ca_result : Pipeline.query_result;
      (** answers and bindings only: [q_scoped] is always [None], since
          a scoped instance's database copies the whole EDB *)
  mutable ca_used : float;  (** answer-LRU clock *)
}
(** One concrete query's cached answers on a dormant version (see
    [answers] in {!session}). *)

type spec = Ekg_store.Codec.spec =
  | App of string
      (** a bundled paper application, e.g. ["company-control"] *)
  | Files of { program : string; glossary : string option; facts_dir : string option }
      (** repo-relative paths under the server root, e.g.
          ["programs/company_control.vada"] *)
  | Inline of { program : string; glossary : string option }
      (** program (and optional glossary) texts shipped in the request *)

type shared
(** What every version of a session shares: its current version, the
    writer lock, the shape cache (each query shape's magic-sets
    specialization, pure in the program) and its short lock, the
    request counters, the LRU clock, the last trace and the deleted
    flag. *)

type session = {
  id : string;                 (** registry-assigned, ["s1"], ["s2"], … *)
  name : string;               (** caller-supplied display name *)
  spec : spec;                 (** how the session was created; snapshots
                                   record it so recovery can recompile *)
  pipeline : Pipeline.t;
  program_hash : string;
      (** {!Pipeline.identity} of [pipeline], computed once; snapshots
          are stamped with it and a warm restore refuses a snapshot of
          a different program *)
  created_at : float;
  edb : Atom.t list;           (** this version's extensional base *)
  chase : Chase.result option;
      (** this version's materialization.  A published result is never
          mutated ({!update_facts} maintains a private
          {!Chase.copy_result} copy), so a reader may keep one. *)
  update_gen : int;
      (** the count of committed fact updates before this version; a
          snapshot records it, so a warm restore refuses a
          materialization of an older base *)
  answers : (string, (string, cached_answers) Hashtbl.t) Hashtbl.t;
      (** the dormant query lane's answers on this version, by shape
          (["pred/mask"]), then by atom text; under the shape lock *)
  shared : shared;
}
(** One immutable version of a session: its identity, and this
    version's EDB, materialization, update generation and cached
    answers.  A materialization and an eviction publish a version with
    the same base and answers; a fact update publishes one with the new
    base, the next generation and no answers. *)

type t

(** {2 Metric families}

    The registry's series, declared at zero by {!create}; their help
    texts say what they count. *)

val session_cache_hits_metric : Ekg_obs.Metrics.counter
val session_cache_misses_metric : Ekg_obs.Metrics.counter
val evictions_metric : Ekg_obs.Metrics.counter
val recovered_sessions_metric : Ekg_obs.Metrics.counter

val query_materialized_metric : Ekg_obs.Metrics.counter
(** Only a lookup on the served materialization advances it; the
    rewrite and answer cache series count the dormant path alone. *)

val query_rewrite_misses_metric : Ekg_obs.Metrics.counter
val query_answer_hits_metric : Ekg_obs.Metrics.counter
val query_answer_misses_metric : Ekg_obs.Metrics.counter

val incremental_rounds_metric : Ekg_obs.Metrics.counter

val retracted_facts_metric : Ekg_obs.Metrics.counter
(** Over-deleted facts that were re-derived are not counted. *)

val create :
  ?root:string ->
  ?obs:Ekg_obs.Metrics.t ->
  ?fault:Fault.t ->
  ?store:Ekg_store.Store.t ->
  ?snapshot_mode:Ekg_store.Snapshotter.mode ->
  ?max_hot_sessions:int ->
  unit ->
  t
(** [root] (default ["."]) anchors [Files] paths; requests may not
    escape it.  [obs] (default a {!Ekg_obs.Metrics.noop} registry)
    receives the session-cache counters and the [ekg_chase_*] series
    of every materialization; every series below, the chase's
    ({!Chase.declare_stats}) and, with [store], the snapshotter's are
    declared there at zero.
    [fault] (default {!Fault.Off}): {!Fault.Slow_chase} sleeps its
    configured wall-clock before every chase, in short slices that stop
    once the request's deadline has passed; the chase then runs under
    the same budget, so its own guard reports the trip within a few
    milliseconds of the instant the deadline expires.

    [store] turns persistence on: sessions are snapshotted after
    creation, committed fact updates and fresh materializations
    ([snapshot_mode], default {!Ekg_store.Snapshotter.Write_behind},
    decides where that work runs), dormant sessions warm-restore their
    materialization from disk, and {!recover} re-registers sessions at
    startup.  [max_hot_sessions] (default [0] = unbounded) bounds how
    many sessions may hold a materialization in memory; beyond it the
    least-recently-used ones are demoted to their snapshot. *)

val snapshotter : t -> Ekg_store.Snapshotter.t option
(** The write-behind snapshotter, when persistence is on — the router
    registers its queue-depth/stall gauges as a runtime-sampler
    source. *)

val stop_persistence : t -> unit
(** Drain pending snapshots and join the write-behind domain (no-op
    without a store).  Call once at daemon shutdown. *)

val spec_of_json : Json.t -> (spec * string option, string) result
(** Decode a [POST /sessions] body; also returns the optional
    ["name"]. *)

val add : t -> ?name:string -> spec -> (session, string) result
(** Compile and register a session; returns its first version.  The
    error is a client error (unknown app, unreadable/escaping path,
    parse failure). *)

val find : t -> string -> session option
(** The session's current version. *)

val list : t -> session list
(** Every session's current version, in creation order. *)

val count : t -> int

val remove : t -> string -> session option
(** Unregister a session and delete its snapshot — the
    [DELETE /v1/sessions/:id] handler.  Waits out an in-flight
    write-behind save of the session first, so the file cannot
    reappear; answers the current version, or [None] if the id is
    unknown.  Idempotent from the caller's perspective: a second call
    answers [None]. *)

val recover : t -> session list * (string * string) list
(** Scan the store directory and re-register every snapshotted session
    that is not already present, {e dormant} (no materialization is
    decoded; the first request warm-restores or re-chases).  Each
    session keeps its original id, name, EDB mirror and update
    generation; [next_id] is bumped past recovered ids.  Returns the
    recovered sessions and the per-file failures (unreadable, corrupt,
    or the recorded program no longer compiles) — failures never stop
    the scan.  Advances {!recovered_sessions_metric}. *)

val hot_count : t -> int
(** Sessions currently holding an in-memory materialization. *)

val materialize :
  ?budget:Chase.budget ->
  ?tracer:Ekg_obs.Trace.t ->
  ?parent:Ekg_obs.Trace.span ->
  t ->
  session ->
  (Chase.result, Chase.error) result
(** The session's materialization, computing it on first use.  A hit
    reads the current version's and takes no lock.  A miss takes the
    writer lock, re-reads the current version (a writer it waited for
    may have materialized it: a hit), and publishes a version holding
    the result; readers keep the dormant version meanwhile.  Counts a
    cache hit or miss ({!session_cache_hits_metric},
    {!session_cache_misses_metric}) on [obs]; a miss runs the chase
    with the registry's [obs] sink, so [result.stats] carries per-rule
    timings and the [ekg_chase_*] series advance.  [tracer]/[parent]
    thread the request trace into a cold chase, so its per-stratum
    spans — labelled with the stratum and its round count — nest under
    the request's ["chase"] span.  [budget] (default
    {!Chase.unlimited}) bounds the run — a deadline or cancellation
    surfaces as [Error (Budget_exceeded _ | Cancelled _)] with partial
    progress.  Failed runs — budget trips included — are not cached,
    so a later request with a roomier deadline recomputes.

    With a store configured, a cache miss first attempts a {e warm
    restore}: if the session's snapshot holds a materialization of
    this exact program (by {!Pipeline.identity}) at this exact update
    generation, it is decoded and served — semantically lossless, no
    chase.  Any snapshot problem (missing, truncated, corrupt, version
    or fingerprint mismatch, stale generation) silently falls back to
    the cold chase.  A fresh materialization schedules a snapshot, and
    both outcomes then enforce the [max_hot_sessions] bound by
    demoting least-recently-used sessions: each victim's snapshot is
    saved under its writer lock alone, then a dormant version is
    published. *)

val update_facts :
  ?budget:Chase.budget ->
  t ->
  session ->
  [ `Add | `Retract ] ->
  Atom.t list ->
  (Chase.update, Chase.error) result
(** Change the session's fact base — the
    [POST|DELETE /v1/sessions/:id/facts] handler.  Runs under the
    session's writer lock, so one session's updates serialize, and
    commits by publishing one new version: readers, explanations and
    queries included, keep the version before it until then.  With a
    materialization the engine maintains a private
    {!Chase.copy_result} copy incrementally ({!Pipeline.add_facts} /
    {!Pipeline.retract_facts}) and the new version holds it; without
    one only the EDB changes (retractions filtered out, additions
    appended, deduplicated against the base and within the request)
    and the next materialization picks up the new base.  The new
    version starts with no cached query answers; the shape cache's
    specializations survive, as do the session's compiled templates.

    {e Every} error leaves the current version exactly as it was — its
    materialization and its EDB both predate the failed request.  That
    covers validation errors (non-ground atom,
    {!Chase.unknown_fact} retraction), budget
    trips mid-propagation, and {!Chase.Inconsistent} (409): the engine
    detects a constraint violation only after mutating, but it mutated
    the discarded private copy, never the published snapshot.
    Advances the {!incremental_rounds_metric} and
    {!retracted_facts_metric} series on success, and counts the cached
    answers the replaced version held in
    [ekg_query_cache_invalidations_total]. *)

type query_outcome = {
  qo_result : Pipeline.query_result;
  qo_rewrite_cached : bool;
      (** the shape's specialization was already cached *)
  qo_answer_cached : bool;
      (** the concrete answer set was served from cache *)
}

val query :
  ?budget:Chase.budget ->
  ?explain:bool ->
  ?tracer:Ekg_obs.Trace.t ->
  ?parent:Ekg_obs.Trace.span ->
  t ->
  session ->
  Atom.t ->
  (query_outcome, [ `Unknown_pred of string | `Chase of Chase.error ]) result
(** Answer a point query — the [GET|POST /v1/sessions/:id/query]
    handler.  The path is picked from the session's current version,
    read without a lock:

    - {b Hot} (a materialization): one lookup on it
      ({!Pipeline.query_materialized}), [`Materialized] mode, 0 rounds
      and 0 derived facts.  It relies on the published result being
      immutable (see [chase]), so it takes no lock, as explanations
      do.  No chase runs, so neither [budget] nor the
      {!Fault.Slow_chase} fault applies, and the rewrite and answer
      caches are neither read nor filled.
    - {b Dormant}: the session's program is magic-sets-specialized for
      the query's bound/free shape ({!Pipeline.specialize}, cached in a
      per-session LRU that every version shares), a private scoped
      chase runs over the version's EDB, and the concrete answers are
      cached in that version ([answers]), so the next committed fact
      update leaves them behind.  The shape cache's short lock covers
      the lookup and the store, never the chase.  A query never builds
      or waits on a materialization, and never waits on an update, so
      a dormant session stays dormant.
      [budget] bounds the scoped chase exactly as in {!materialize}
      (deadline trips surface as [`Chase (Budget_exceeded _)] with
      partial progress); the {!Fault.Slow_chase} fault applies here
      too.  The cache keeps answers and bindings, not the scoped
      instance, so with [explain] (default [false]: the caller will
      not call {!Pipeline.explain_answer}) a cached answer is
      recomputed and counts as a miss.

    [`Unknown_pred] means the predicate does not exist in the session's
    program — a client error, on either path.  Contributes
    [chase_source] (["materialized"]/["magic"]/["full"]/["edb"]),
    [cache_hit], [chase_rounds] and [chase_facts] to the request's wide
    event and advances the [ekg_query_*] series. *)

val note_explain : session -> unit
(** Bump the session's explanation-request counter. *)

val set_trace : session -> Ekg_obs.Trace.span -> unit
(** Record the (finished) root span of the session's latest explain
    request. *)

val last_trace : session -> Ekg_obs.Trace.span option

val session_json : session -> Json.t
(** Summary document of the session's current version: id, name,
    goal, rule/fact counts, cache state, tier (hot/dormant), update
    generation, LRU clock — also the per-session record of
    [GET /v1/debug/sessions].  It waits on no writer. *)
