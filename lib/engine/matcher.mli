(** Body evaluation: enumerating the homomorphisms θ that make a rule
    applicable to the current database (§3, Chase Procedure).

    Non-aggregating rules yield one {!match_result} per homomorphism;
    aggregating rules yield one {!agg_result} per SQL-like group, with
    the contributors that feed the monotonic aggregate.

    Joins follow an optional {!Plan.t} (cost-based atom order); the
    results are plan-independent — [used_facts] is always reported in
    body order — only the enumeration order of the matches may differ
    between plans.  Every entry point but {!prepare} only {e read}s the
    database, so a match pass never disturbs readers of a result the
    server has published: those read it off the session lock. *)

open Ekg_kernel
open Ekg_datalog

type match_result = {
  binding : Subst.t;         (** θ extended with assignment results *)
  used_facts : int list;     (** premise fact ids, positive atoms in body order *)
}

type agg_result = {
  group_binding : Subst.t;   (** group variables + aggregation result *)
  value : Value.t;           (** the aggregate *)
  contributors : Provenance.contributor list;  (** one per distinct body match *)
}

type delta
(** A round's delta: the facts the previous round activated. *)

val delta : Database.t -> int list -> delta
(** The delta of the given fact ids (duplicates ignored): a membership
    set for the semi-naive partition, and per predicate symbol the
    ids in ascending order, which seed passes start from. *)

exception Interrupted
(** Raised from inside a join enumeration when the [interrupt] hook
    answers [true] — the cooperative-cancellation signal of the
    budgeted chase ({!Chase.budget}).  The database is untouched (the
    matcher only reads), so the caller may safely abandon or retry. *)

(** {1 Evaluation}

    Build/probe hash joins over the database's columnar storage
    ({!Database.Cols}): the planner's atom order is a left-deep
    pipelined join that probes multi-column hash indexes on the key
    columns bound so far ({!Plan.key_masks}), with dense interned-int
    bindings.  Candidate rows come in ascending fact-id order at each
    join position, so the match sequence is a function of the database
    and the plan: the matches ordered by their fact-id tuples in plan
    order.  An emitted θ binds each variable to its interned id's
    class representative ({!Database.value_of_id}), the value every
    fact view shows, so θ reads no fact and does not depend on the
    plan.  The test suite checks the chase built on it against an
    independent naive evaluator. *)

val match_rule :
  ?interrupt:(unit -> bool) ->
  ?delta:delta -> ?plan:Plan.t -> Database.t -> Rule.t -> match_result list
(** Matches of a non-aggregating rule.  With [delta], only the
    matches using a delta fact (semi-naive evaluation), in the full
    pass's order under [plan] once grouped by the first plan position
    holding a delta fact: pass k (position k holds a delta fact,
    earlier positions none) for k ascending, each ordered by fact-id
    tuple in [plan]'s order.
    A pass starts from its atom's delta rows, so its join work follows
    the delta: pass 0 under [plan], a later pass under a seed-first
    plan ({!Plan.compile} [~first]) whose matches are then sorted.
    Passes whose atom has no delta fact are skipped.  [interrupt] is
    polled once per join node; answering [true] aborts the
    enumeration with {!Interrupted}.  Raises [Invalid_argument] on
    aggregating rules. *)

val head_bound_vars : Rule.t -> string list
(** The head variables some positive body atom binds, in head order —
    the key of {!head_probe_matches}.  Variables bound only by an
    assignment (close link's [W = W1 * W2]) are not among them. *)

val head_probe_matches :
  ?interrupt:(unit -> bool) ->
  ?plan:Plan.t -> ?delta:delta ->
  heads:Fact.t list -> Database.t -> Rule.t -> match_result list
(** Re-derivation of a plain rule by head-bound probes: every match of
    the rule whose head could be one of the [heads] facts.  Facts of
    another predicate, or that do not unify with the head's constants
    and repeated variables, are skipped; the rest are keyed by their
    values at {!head_bound_vars},
    and each distinct key runs one hash join under [plan] with those
    variables pre-bound (the indexes of {!prepare} [~bound]), compiled
    once for all the keys.  A probe's
    matches are the full pass's matches with that key, in the full
    pass's order, and the probes run in the order their keys first
    occur in [heads]; together they include every match deriving one of
    [heads], and possibly other facts that share a key.  With [delta],
    matches using a delta fact are left out: the round's
    {!match_rule} [~delta] produces those.  [[]] when no fact yields a
    key. *)

val prepare :
  ?changed:int list -> ?bound:string list -> ?delta:delta ->
  Database.t -> Rule.t -> Plan.t -> int
(** Ensure the hash indexes the rule's join positions will probe
    ({!Database.ensure_index} on each {!Plan.key_masks} mask).  For an
    aggregating rule, [changed] names the pass about to run: absent,
    the full pass under [plan]; present, the {!touched_groups}
    discovery seeded from [changed] and the group probes of
    {!match_agg_rule} [~groups].  For a plain rule, [delta] also covers
    the seed-first plans of {!match_rule} [~delta]'s passes, and
    [bound] the {!head_probe_matches} probes pre-binding those
    variables (the full pass's indexes included).  {e Mutates the database}: call in a
    round's plan phase, before its match passes, and never on a result
    published to readers.  Returns the number of indexes built or
    extended. *)

module GroupSet : Set.S with type elt = Value.t list
(** Sets of group keys, ordered by {!Ekg_kernel.Value.compare}. *)

val group_key : string list -> Subst.t -> Value.t list
(** [group_key (Rule.group_vars r) binding] — the group a match or a
    fact of the rule's head belongs to. *)

val touched_groups :
  ?interrupt:(unit -> bool) -> changed:int list -> Database.t -> Rule.t ->
  Value.t list list
(** The group keys of an aggregating rule whose contributor set may
    differ from what it was before the [changed] facts were inserted,
    deactivated or reactivated: the keys of every body match that uses
    a [changed] fact, where [changed] facts join whether active or
    not.  One hash pass per body atom, seeded from that atom's changed
    facts (a seed-first plan); ascending, distinct.  A superset is
    harmless — re-aggregating an unchanged group reproduces its
    fact. *)

val match_agg_rule :
  ?interrupt:(unit -> bool) -> ?plan:Plan.t -> ?groups:Value.t list list ->
  Database.t -> Rule.t -> agg_result list
(** Groups of an aggregating rule in ascending group-key order,
    conditions already enforced (including those over the aggregate
    result); [interrupt] as in {!match_rule}.  Without [groups], one
    full pass over the body.  With [groups], only those keys, each
    re-aggregated from a bound probe of the body with the key
    substituted in as hash-key constants (one join compiled for all
    the keys); contributors come out in the full pass's enumeration
    order under [plan], so the result equals
    the full pass restricted to [groups].  A group's value folds its
    inputs in ascending {!Ekg_kernel.Value.compare} order, so it
    depends only on the contributor multiset.  Raises
    [Invalid_argument] on non-aggregating rules. *)
