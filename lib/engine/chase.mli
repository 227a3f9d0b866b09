(** The chase procedure (§3): semi-naive fixpoint evaluation with
    monotonic aggregation, stratified negation, existential heads with
    isomorphism preemption, and full provenance recording.

    Monotonic aggregates are materialized per group; when a group's
    aggregate changes in a later round, the stale fact is deactivated
    (it remains in the chase graph) and the fresh value takes its
    place, so downstream rules always see the current total — the
    Vadalog [msum]/[mprod] behaviour the paper relies on.  A stratum's
    first round aggregates every group from one full pass; later
    rounds re-aggregate only the groups touched by the facts inserted
    or deactivated since ({!Matcher.touched_groups}), which leaves the
    result byte-identical to re-aggregating every group every round.

    {2 Rounds}

    One round loop serves cold chases ({!run}) and fact updates
    ({!add_facts}, {!retract_facts}); the two differ only in how each
    stratum's first round opens.  A cold chase is an update of the
    empty instance: every rule evaluates in full on its stratum's first
    round.  An update opens with what it changed (see {e Incremental
    maintenance} below).  Later rounds are semi-naive from the previous
    round's activations.

    Each round runs a fixed protocol on one domain: {e plan} every
    rule from the round-start cardinalities and prepare the indexes its
    match passes probe; {e match} every plain rule (a full pass, its
    semi-naive seed passes or its head-bound probes) against the
    pre-round database; then {e insert} the matches in rule order,
    aggregate rules following from their log cursors.  Match passes
    only read, so a round's plain rules never see each other's
    insertions, and every fact id, labelled null, provenance record and
    the chase graph is allocated in the insert phase in rule order.  A
    match whose tuple is inactive — a fact an update over-deleted, or a
    superseded aggregate value that no recorded derivation cites —
    reactivates it under its id.  A derivation of a fact that already
    exists is recorded only when its premises were activated before
    the fact, so it closes no cycle in the chase graph.  Join
    orders come from per-round cost-based plans ({!Plan}), recompiled
    from live predicate cardinalities; ties keep textual order, so
    plans are deterministic too. *)

open Ekg_datalog

(** {1 Engine statistics}

    Collected when a [?stats] sink is supplied to {!run}: per-rule and
    per-stratum timings, per-round delta sizes, and aggregate-group
    churn — the engine-level monitoring a production reasoner needs
    before any targeted optimization (see ROADMAP). *)

type rule_stat = {
  rule_id : string;
  stratum : int;       (** 0-based stratum index the rule evaluated in *)
  time_s : float;      (** total matcher + insertion time across rounds *)
  evals : int;         (** rounds the rule was evaluated in *)
  facts : int;         (** facts this rule derived *)
  build_s : float;     (** hash-index preparation seconds *)
  probe_s : float;     (** match-phase seconds; for an aggregate rule,
                           its full or touched-group passes and group
                           probes *)
  insert_s : float;    (** insertion seconds *)
}

type round_stat = {
  stratum : int;
  round : int;         (** global round number, 1-based *)
  delta_size : int;    (** facts in the incoming delta; [0] on a full round *)
  new_facts : int;     (** facts the round derived *)
  time_s : float;
}

type stats = {
  per_rule : rule_stat list;       (** program order *)
  per_round : round_stat list;     (** execution order *)
  rounds_per_stratum : int list;   (** by ascending stratum *)
  agg_superseded : int;            (** stale aggregate facts deactivated *)
  wall_s : float;                  (** chase wall-clock, EDB load included *)
  plan_reorders : int;             (** compiled plans deviating from
                                       textual body order, summed over
                                       rules × rounds *)
  join_builds : int;               (** hash indexes built or extended
                                       during round planning, summed *)
  join_probe_hits : int;           (** matches emitted by plain-rule
                                       match phases, summed *)
}

type result = {
  db : Database.t;
  prov : Provenance.t;
  rounds : int;            (** fixpoint rounds executed *)
  derived_count : int;     (** active facts with a derivation: the
                               instance's size beyond its active EDB,
                               on a cold chase and after an update
                               alike *)
  stats : stats option;    (** populated when {!run} was given [?stats] *)
}

val falsum : string
(** The reserved 0-ary predicate ["false"]: a rule with head [false]
    is a negative constraint φ(x̄,ȳ) → ⊥ (§3, Vadalog Extensions).
    Deriving it makes the reasoning task fail with a diagnostic naming
    the violated constraint and the facts that triggered it. *)

type divergence = {
  max_rounds : int;                (** the bound that was hit *)
  stratum_rounds : int list;       (** rounds each stratum ran, ascending —
                                       the last entry names the culprit *)
}

(** {1 Budgets and cooperative cancellation}

    Production admission control (ROADMAP: bounded resource use as a
    precondition for serving reasoning): a {!budget} bounds a single
    materialization by wall-clock deadline, round count, derived-fact
    count, or an external cancel hook.  Budgets are checked at every
    round boundary and — for the deadline and the cancel hook — inside
    the per-rule match loops (every few thousand join nodes), so even a
    single pathological join cannot overshoot the deadline by much.
    {!unlimited} disables every check; results under it are
    bit-identical to a run without a budget. *)

type budget = {
  deadline_s : float option;
      (** absolute wall-clock instant ({!Ekg_obs.Clock.now_s} scale)
          past which the run stops *)
  budget_rounds : int option;   (** max fixpoint rounds *)
  budget_facts : int option;
      (** max facts derived beyond the EDB: new facts, and inactive
          ones a rule derives again *)
  cancel : (unit -> bool) option;
      (** external cancellation hook, polled with the deadline; must be
          cheap and domain-safe *)
}

val unlimited : budget

val budget :
  ?deadline_s:float -> ?rounds:int -> ?facts:int -> ?cancel:(unit -> bool) ->
  unit -> budget

val within_ms : float -> budget
(** [within_ms ms] is a budget whose deadline is [ms] milliseconds from
    now — the shape a per-request [X-Ekg-Deadline-Ms] header maps to. *)

type partial = {
  partial_rounds : int;          (** rounds completed (or started) *)
  partial_derived : int;         (** facts derived before the stop *)
  partial_wall_s : float;        (** elapsed wall-clock *)
  partial_stratum_rounds : int list;  (** rounds per stratum, ascending *)
}
(** How far a budgeted run got before it was stopped — the partial
    stats a service reports in its timeout responses. *)

type exhausted = [ `Deadline | `Facts | `Rounds ]

type error =
  | Invalid_program of string list
      (** Validation failures (unsafe rules, arity clashes, …). *)
  | Unstratifiable of string
      (** Recursion through negation. *)
  | Invalid_edb of string
      (** Non-ground or otherwise ill-formed extensional facts. *)
  | Divergent of divergence
      (** [max_rounds] exceeded; carries per-stratum round counts so
          the diagnostic can name the stratum that failed to
          converge. *)
  | Inconsistent of string
      (** A negative constraint φ → ⊥ fired; carries the diagnostic. *)
  | Unknown_fact of string
      (** A {!retract_facts} request named a fact that is not active
          extensional data: absent, or derived ({!unknown_fact}). *)
  | Budget_exceeded of exhausted * partial
      (** The {!budget} tripped; names the exhausted resource and
          preserves partial progress. *)
  | Cancelled of partial
      (** The budget's [cancel] hook answered [true]. *)

val error_to_string : error -> string
(** Human-readable messages; {!Divergent} includes the per-stratum
    round counts, e.g.
    ["chase did not terminate within 50 rounds (rounds per stratum: #1=2, #2=48)"]. *)

val client_error : error -> bool
(** [true] for errors caused by the submitted program or data (a
    service should answer 4xx), [false] for resource exhaustion
    ({!Divergent}, {!Budget_exceeded}, {!Cancelled} — 5xx family). *)

val partial_to_string : partial -> string
(** ["12 rounds, 4096 facts derived, 51.2 ms elapsed"]. *)

val run_checked :
  ?naive:bool ->
  ?max_rounds:int ->
  ?budget:budget ->
  ?stats:Ekg_obs.Metrics.t ->
  ?obs:Ekg_obs.Trace.t ->
  ?parent:Ekg_obs.Trace.span ->
  Program.t ->
  Atom.t list ->
  (result, error) Stdlib.result
(** Like {!run} but with a structured error, so callers (notably the
    explanation server) can distinguish bad input from engine limits
    without string matching. *)

val run :
  ?naive:bool ->
  ?max_rounds:int ->
  ?budget:budget ->
  ?stats:Ekg_obs.Metrics.t ->
  ?obs:Ekg_obs.Trace.t ->
  ?parent:Ekg_obs.Trace.span ->
  Program.t ->
  Atom.t list ->
  (result, string) Stdlib.result
(** [run program edb] materializes the reasoning task over the
    extensional facts [edb].  Fails on unstratifiable programs,
    non-ground EDB facts, or when [max_rounds] (default [100_000]) is
    exceeded — the termination guard for programs outside the
    guaranteed-terminating fragment.  [budget] (default {!unlimited})
    additionally bounds the run by deadline / rounds / facts / cancel
    hook, failing with {!Budget_exceeded} or {!Cancelled} and partial
    stats.  [naive] disables semi-naive
    delta filtering (every rule re-evaluated in full each round) —
    kept for the ablation benchmarks.  The two modes agree on the
    programs [test/reference.ml] compares.  Known exception: a plain
    rule deriving a tuple that a value-in-head aggregate first adopts
    and then supersedes in a later round.  The naive run keeps the
    tuple active, as the reference evaluator does, and the semi-naive
    run does not (ROADMAP item 6's [e0]/[e]/[t]/[link]/[f0] program).

    [obs] opens one ["chase.stratum"] span per stratum (under
    [parent] when given), labelled with the stratum index and its
    round count.

    [stats] turns on engine profiling: the result carries a {!stats}
    record, and the run's totals are pushed into the sink registry as
    [ekg_chase_*] series ([ekg_chase_rounds_total],
    [ekg_chase_facts_derived_total],
    [ekg_chase_rule_seconds_total\{rule,stratum\}],
    [ekg_chase_plan_reorders_total], …).  A
    disabled sink ({!Ekg_obs.Metrics.noop}) disables collection
    outright — [result.stats] stays [None] and the hot path pays a
    single branch, so instrumented call sites can leave observability
    off for free.  Without [stats] the hot path is likewise untouched
    — no clock reads per rule.  A run's totals are one
    {!Ekg_obs.Metrics.record}. *)

val declare_stats : Ekg_obs.Metrics.t -> unit
(** Declare at zero the series every [?stats] run records (the totals
    and the join histograms), so a registry that will receive chases
    exposes them before the first. *)

val run_exn :
  ?naive:bool ->
  ?max_rounds:int ->
  ?budget:budget ->
  ?stats:Ekg_obs.Metrics.t ->
  ?obs:Ekg_obs.Trace.t ->
  ?parent:Ekg_obs.Trace.span ->
  Program.t ->
  Atom.t list ->
  result
(** Like {!run} but raising [Failure]. *)

(** {1 Incremental maintenance}

    Live updates to a completed materialization — the workload of a
    reasoner over a continuously changing financial KG (Vadalog over
    the Banca d'Italia ownership graph): absorb a stream of fact
    additions and retractions without a cold re-chase.

    An update runs the cold chase's round loop (see {e Rounds} above)
    over the existing result; only each stratum's opening differs.
    {b Additions} open it: the new facts, with whatever earlier strata
    activated, are the first round's delta, and each stratum re-runs to
    fixpoint with the usual per-round join planning.  {b Retractions}
    run DRed-style deletion propagation over the stored provenance DAG:
    first {e over-delete} the cone of consequences reachable from a
    retracted fact through any recorded derivation, then {e re-derive}
    every over-deleted fact that still has a surviving alternative
    proof.  Re-derivation is proportional to what fell: the stratum's
    opening has each plain rule deriving an over-deleted fact (or a
    retracted one) bind the head variables its positive body binds to
    that fact's values and probe its hash join once per distinct key
    ({!Matcher.head_probe_matches}), and the semi-naive tail propagates
    whatever came back.  A rule is evaluated over the whole instance
    instead only where no probe can stand in for it: when its negated
    premises changed, and when no positive atom binds any head
    variable; {!update} counts those passes.  Stratified negation is handled
    stratum-by-stratum: when a predicate that some rule negates has
    changed, that rule's previous conclusions are over-deleted and the
    rule is fully re-evaluated, so a deletion can {e enable} facts in a
    later stratum (and an addition can disable them).  The premise →
    consumers index the over-deletion walks is built from the
    provenance before the first insertion, and only when the update
    can delete: it retracts, or some rule has a negated atom.

    The contract, checked by property tests: after any sequence of
    updates, the active instance is {e content-identical}
    ({!Database.fingerprint}) to a cold chase over the updated fact
    base, and every active fact carries a valid provenance grounding in
    the current extensional database.

    {b Aggregation} rides the same loop.  Every fact the update
    activates or deactivates — additions, over-deletions,
    supersessions, reactivations — is logged, and each aggregate rule,
    after its stratum's plain insertions, re-aggregates only the groups
    touched by the facts logged since it last ran, each from a bound
    probe of its body under the plan compiled at the round's start (a
    negation-affected aggregate rule regroups every group on its
    stratum's first round).  DRed over-deletes an aggregate fact through its
    recorded contributors and then re-aggregates only those facts'
    groups, never every group; the cone also follows supersession
    (facts derived from a superseded aggregate fall with the fact that
    superseded it).  A changed group supersedes its fact, and a value
    that returns to an earlier one reactivates that value's fact.  No
    per-group state survives the update (a group's current fact is
    found by its head pattern), so [result] carries none.

    Re-aggregation moves a group's value and supersedes its fact but
    never withdraws what an earlier value derived, so {!incrementable}
    admits an aggregate only when no conclusion can depend on its value
    having stopped short: [sum], [count] and [max] rise as contributors
    join and [min] falls; every condition over the result stays true
    once true ([S > e] or [S >= e] for the rising ones, [M < e] or
    [M <= e] for [min]); and a value written to the head is read only by
    rules that ignore it or use it as the whole input of a [sum] or
    [max] (rising) or a [min] (falling).  Sums assume non-negative
    inputs: an update that re-aggregates a group still holding a fact it
    no longer earns — a sum that met a negative input — abandons the
    pass and re-chases the updated base, reporting
    [upd_incremental = false] with the input already mutated.  Within
    the fragment the result is content-identical to a cold chase except
    where the cold chase itself depends on the order contributions
    arrive in (a recursive sum over signed inputs can keep a fact a
    partial sum earned).

    Programs outside the fragment — existential heads (labelled-null
    identity is chase-order-dependent), aggregates failing the
    conditions above — transparently fall back to a full re-chase over
    the updated extensional base; {!update} reports which path ran.
    The input [result] is mutated in place on the incremental path
    (also when an update abandons it) and untouched by the fallback.  A
    successful incremental update ends with a minor collection, so what
    the long-lived result gained — the pages its writes copied, its new
    facts and derivations — is promoted at the update's expense rather
    than the next caller's.

    {b Error contract.}  Validation errors ({!Invalid_edb},
    {!Unknown_fact}) are raised before any mutation, so on those the
    input is untouched.  {!Inconsistent} — a negative constraint fired
    by the update — and budget trips are only detected {e after} the
    incremental pass has mutated the database, so on those the mutated
    state is unspecified and the caller must discard it.  Callers that
    publish results to concurrent readers should therefore apply
    updates to a {!copy_result} copy and swap the pointer on success,
    which is what the server's registry does: its served snapshot is
    never mutated, so lock-free readers stay safe and every failed
    update leaves the pre-update state servable. *)

type update = {
  upd_incremental : bool;
      (** [true] when the delta algorithms ran; [false] when the
          update re-chased: the program is outside the fragment, or the
          pass met a group it could not maintain *)
  upd_rounds : int;        (** incremental (or fallback) rounds executed *)
  upd_added : int;         (** facts that became active, re-derivations excluded *)
  upd_retracted : int;     (** facts deactivated and not restored — retraction
                               seeds plus their unsupported consequences *)
  upd_rederived : int;     (** over-deleted facts restored by a surviving
                               alternative derivation *)
  upd_changed_preds : string list;
      (** predicates whose active content (or recorded provenance) may
          have changed — the cache-invalidation key, sorted.  The head
          of an aggregate rule that re-aggregated any group counts as
          changed, since the group's value may have moved where no fact
          did *)
  upd_overdeleted : int;
      (** facts the DRed over-deletion deactivated, retraction roots
          included, whether or not they came back; 0 on a re-chase *)
  upd_full_passes : int;
      (** plain-rule evaluations over the whole instance during the
          update: 0 for an incremental update whose re-derivation took
          head-bound probes; every plain rule on a re-chase *)
  upd_cone_ms : float;
      (** milliseconds in the DRed over-deletion: the retraction cone
          and the negation cones, the premise → consumers index built
          on first need included ({!Provenance.consumers}); 0 on a
          re-chase *)
  upd_rounds_ms : float;
      (** milliseconds in the chase rounds that followed the
          retraction cone, the negation cones they opened with left
          out; on a re-chase, its cold chase *)
}

val incrementable : Program.t -> bool
(** Whether the program is in the fragment maintained by the delta
    algorithms: no existential heads, and every aggregate moves one way
    with conditions and head-value readers that follow it (see above). *)

val revision : int
(** The engine's materialization revision.  It is bumped whenever an
    engine change can make an instance this build maintains differ from
    one an earlier build maintained over the same program and updates;
    revision 2 folds aggregate inputs in ascending order, where earlier
    builds folded them in enumeration order, and revision 3 has a cold
    chase reactivate a superseded aggregate tuple that a plain rule
    derives, as updates already did, where no recorded derivation
    cites the tuple (updates stopped reactivating it otherwise), and
    revision 4 has [derived_count] count the active derived facts, where
    a cold chase counted every fact it derived, superseded aggregate
    values included.  {!Ekg_core.Pipeline.identity}
    includes it, so a snapshot an earlier build wrote is re-chased
    instead of warm-restored. *)

val affected_preds : Program.t -> string list -> string list
(** Downstream closure of the seed predicates over the program's
    dependency graph: every predicate whose content could change when
    facts of a seed predicate change.  Sorted; includes the seeds. *)

val unknown_fact : Program.t -> Atom.t -> error
(** The {!Unknown_fact} error of a retraction naming an atom that is
    not active extensional data.  Its message depends on the atom and
    the program only: when a rule derives the atom's predicate, it
    says that only extensional facts can be retracted. *)

val edb_atoms : result -> Atom.t list
(** The active extensional facts as ground atoms, in insertion order —
    the fact base a cold re-chase of this result would start from. *)

val copy_result : result -> result
(** Copy of a materialization — database, indexes, provenance — that
    shares every page with the original ({!Database.copy},
    {!Provenance.copy}).  {!add_facts} / {!retract_facts} applied to
    the copy copy the pages they touch and leave the original (and any
    reader holding it) untouched, and writes to the original never show
    through the copy, enabling copy-on-write publication under
    concurrency.  O(pages): it copies page tables, and the join indexes
    survive it. *)

val add_facts :
  ?max_rounds:int ->
  ?budget:budget ->
  Program.t ->
  result ->
  Atom.t list ->
  (result * update, error) Stdlib.result
(** [add_facts program res facts] inserts the ground [facts] into the
    extensional database of the completed materialization [res] and
    restores the fixpoint.  Atoms already present are idempotent
    no-ops; an atom matching a previously derived fact makes that fact
    extensional (as a cold chase on the new base would).  [budget] and
    [max_rounds] bound the propagation exactly as in {!run}.  An
    addition that fires a negative constraint fails with
    {!Inconsistent} only after the fixpoint was restored — [res] is
    then mutated and must be discarded (see the error contract
    above). *)

val retract_facts :
  ?max_rounds:int ->
  ?budget:budget ->
  Program.t ->
  result ->
  Atom.t list ->
  (result * update, error) Stdlib.result
(** [retract_facts program res facts] removes the ground extensional
    [facts] and every consequence that no longer has a derivation.
    Fails with {!Unknown_fact} when a named fact is not active
    extensional data, derived facts included (see {!unknown_fact}),
    and with {!Invalid_edb} when it is not ground; validation completes
    before any mutation, so a request
    failing validation leaves [res] untouched.  A retraction can still
    fail {e after} mutation: under stratified negation a deletion may
    enable a later-stratum negative constraint, surfacing as
    {!Inconsistent} with [res] mutated (see the error contract
    above). *)
