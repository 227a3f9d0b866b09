(** The automated pipeline (§4.4): structural analysis, template
    generation and enhancement run once per deployed KG application;
    explanation queries are then answered by mapping the queried fact's
    proof onto the pre-computed templates — no instance data ever
    leaves the system. *)

open Ekg_datalog
open Ekg_engine

type t = {
  program : Program.t;
  glossary : Glossary.t;
  analysis : Reasoning_path.analysis;
  deterministic : (string * Template.t) list;  (** per path name *)
  enhanced : (string * Template.t) list;       (** per path name *)
}

val build :
  ?style:int ->
  ?obs:Ekg_obs.Trace.t ->
  ?parent:Ekg_obs.Trace.span ->
  Program.t ->
  Glossary.t ->
  t
(** Pre-compute the reasoning paths and both template families.  The
    enhancement guard guarantees enhanced templates are token-complete;
    paths whose enhancement fails keep their deterministic template.

    With [obs], the work is recorded as a ["pipeline-build"] span with
    ["structural-analysis"] (itself split into ["depgraph"],
    ["critical-nodes"], ["path-extraction"]), ["verbalization"] and
    ["enhancement"] children — the stage map of §4.2–§4.3. *)

val template_for : t -> enhanced:bool -> Reasoning_path.t -> Template.t
(** Lookup with on-the-fly fallback for ad-hoc (mapper-synthesized)
    paths. *)

type explanation = {
  fact : Fact.t;
  proof : Proof.t;
  mapping : Proof_mapper.mapping;
  text : string;                (** enhanced-template explanation *)
  deterministic_text : string;  (** deterministic-template explanation *)
  paths_used : string list;
}

val reason :
  ?stats:Ekg_obs.Metrics.t ->
  ?budget:Chase.budget ->
  ?obs:Ekg_obs.Trace.t ->
  ?parent:Ekg_obs.Trace.span ->
  t ->
  Atom.t list ->
  (Chase.result, string) result
(** Run the reasoning task over extensional facts; [stats], [budget]
    (deadline / cancellation) and the tracing arguments are passed
    through to {!Chase.run}. *)

val incrementable : t -> bool
(** Whether {!add_facts} / {!retract_facts} can maintain a
    materialization of this pipeline's program in place rather than
    re-chasing from scratch ({!Chase.incrementable}).  When [true], an
    update still re-chases if it meets a sum group that fell back below
    its threshold, and then leaves its input mutated. *)

val add_facts :
  ?budget:Chase.budget ->
  t ->
  Chase.result ->
  Atom.t list ->
  (Chase.result * Chase.update, Chase.error) result
(** Live maintenance of a completed reasoning run: assert new
    extensional facts and warm-start the semi-naive chase from them
    ({!Chase.add_facts}).  The returned {!Chase.update} reports what
    moved — the service layer uses [upd_changed_preds] to drop only
    the cached query answers the update could have touched. *)

val retract_facts :
  ?budget:Chase.budget ->
  t ->
  Chase.result ->
  Atom.t list ->
  (Chase.result * Chase.update, Chase.error) result
(** Withdraw extensional facts with DRed-style over-deletion and
    re-derivation over the provenance DAG ({!Chase.retract_facts}). *)

val explain :
  ?strategy:[ `Primary | `Shortest ] ->
  ?horizon:int ->
  ?degraded:bool ->
  ?obs:Ekg_obs.Trace.t ->
  ?parent:Ekg_obs.Trace.span ->
  t ->
  Chase.result ->
  Fact.t ->
  (explanation, string) result
(** Answer the explanation query Q_e = \{fact\}.  [`Primary] (default)
    explains the proof the chase found first; [`Shortest] picks, for
    every sub-fact, the most compact recorded derivation.  [horizon]
    truncates very long cascades to the last n derivation hops; the
    facts whose derivations fell outside open the report as
    assumptions ("Taking as already established that …").

    [degraded] (default [false]) skips template instantiation entirely:
    both text fields carry the pre-computed template {e skeletons} of
    the proof's reasoning paths instead of fully verbalized prose — the
    cheap fallback a service uses when the request's verbalization
    budget is exhausted but proof extraction already succeeded.

    With [obs], the query is recorded as an ["explain"] span with
    ["proof-extraction"], ["proof-mapping"] and ["instantiation"]
    children (nested under [parent] when given). *)

val explain_atom_budgeted :
  ?strategy:[ `Primary | `Shortest ] ->
  ?degrade:(unit -> bool) ->
  ?obs:Ekg_obs.Trace.t ->
  ?parent:Ekg_obs.Trace.span ->
  t ->
  Chase.result ->
  Atom.t ->
  (explanation list * bool, string) result
(** Like {!explain_atom}, but polls [degrade] before verbalizing each
    match; once it answers [true] (e.g. the request deadline passed),
    remaining explanations are rendered in degraded (skeleton) form.
    The returned flag is [true] iff any explanation was degraded. *)

val explain_atom :
  ?strategy:[ `Primary | `Shortest ] ->
  ?obs:Ekg_obs.Trace.t ->
  ?parent:Ekg_obs.Trace.span ->
  t ->
  Chase.result ->
  Atom.t ->
  (explanation list, string) result
(** Explain every derived fact the (possibly non-ground) atom matches. *)

val explain_query :
  ?strategy:[ `Primary | `Shortest ] ->
  ?obs:Ekg_obs.Trace.t ->
  ?parent:Ekg_obs.Trace.span ->
  t ->
  Chase.result ->
  string ->
  (explanation list, string) result
(** Parse an atom (e.g. ["control(\"B\", \"D\")"]) and explain it. *)

(** {1 The query lane}

    Point queries take one of two paths.  Over a completed
    materialization they are one indexed lookup
    ({!query_materialized}).  Without one, they never build it: the
    program is magic-sets-specialized for the query's bound/free
    pattern ({!Magic.specialize}), the scoped chase runs over the
    extensional facts plus the demand seeds, and answers plus proofs
    are projected back onto the source vocabulary ({!query}).  Both
    paths return the same answers in the same order. *)

type specialization =
  | Sp_magic of Magic.specialized
      (** goal-directed rewrite applies — the common case *)
  | Sp_full of string
      (** the program shape escapes the magic fragment (reason given):
          the query is answered from a private full chase *)
  | Sp_edb  (** extensional predicate: a simple scan over the EDB *)

val unknown_pred : t -> string -> string option
(** [Some message] when the program does not mention the predicate:
    a query or explanation of it is the caller's error, answered before
    any chase. *)

val specialize : t -> pred:string -> mask:string -> (specialization, string) result
(** Plan how queries of the given shape will be answered.  Depends only
    on the (immutable) program and the pattern, so serving layers cache
    the result per session.  [Error] means the predicate does not exist
    in the program at all. *)

type query_answer = {
  qa_fact : Fact.t;      (** the answer, in the program's vocabulary *)
  qa_internal : Fact.t;  (** the same fact as stored in the scoped instance *)
  qa_binding : Subst.t;  (** the query variables' binding *)
}

type query_mode = [ `Materialized | `Magic | `Full | `Edb ]
(** Where a query's answers came from: a lookup on a completed
    materialization, a magic-sets scoped chase, a private full chase,
    or a scan of the extensional facts. *)

val mode_name : query_mode -> string
(** ["materialized"], ["magic"], ["full"] or ["edb"] — the tag the
    service puts on the wire and in its wide events. *)

type query_result = {
  q_answers : query_answer list;  (** sorted by rendered fact — stable paging *)
  q_mode : query_mode;
  q_fallback : string option;     (** why goal-direction was unavailable *)
  q_scoped : Chase.result option;
      (** the instance answers were read from and proofs are extracted
          from; [None] for EDB scans *)
  q_sp : Magic.specialized option;
  q_rounds : int;    (** chase rounds the query ran; 0 for a lookup *)
  q_derived : int;   (** facts the query derived; 0 for a lookup *)
}

val query_materialized :
  t -> Chase.result -> Atom.t -> (query_result, string) result
(** Answer one query atom by a lookup on a completed materialization of
    this pipeline's program ({!Query.ask}): no chase, [`Materialized]
    mode, [q_rounds] and [q_derived] both [0], and [q_scoped] is the
    given result, so {!explain_answer} reads the same provenance
    {!explain_atom} does.  The answers, bindings and their order equal
    {!query}'s over the materialization's extensional facts.  The
    lookup only reads the result's postings and activation bitmap (it
    builds no lazy join index), so it is safe off any lock on a result
    no one mutates, such as one the service published copy-on-write.
    [Error] means the predicate does not exist in the program. *)

val query :
  ?stats:Ekg_obs.Metrics.t ->
  ?budget:Chase.budget ->
  ?obs:Ekg_obs.Trace.t ->
  ?parent:Ekg_obs.Trace.span ->
  t ->
  specialization ->
  Atom.t list ->
  Atom.t ->
  (query_result, Chase.error) result
(** Answer one concrete query atom over the given extensional facts,
    per the pre-computed [specialization] — the path for a session with
    no materialization, which it never builds or waits on: the magic
    and full modes each run a private chase (budget/deadline
    arguments pass straight through), and the EDB mode
    only scans.  A rewritten program that fails to stratify falls back
    to the full mode transparently, recorded in [q_fallback]. *)

val explain_answer :
  ?strategy:[ `Primary | `Shortest ] ->
  ?degraded:bool ->
  ?obs:Ekg_obs.Trace.t ->
  ?parent:Ekg_obs.Trace.span ->
  t ->
  query_result ->
  query_answer ->
  (explanation, string) result
(** Template-backed explanation of one query answer, extracted from the
    provenance of [q_scoped] (the scoped instance, or the
    materialization a lookup read) and — for magic-mode results —
    projected back onto the source program ({!Magic.unadorn_proof})
    before the proof mapper runs, so the explanation reads exactly as
    it would against the full materialization.  [degraded] renders
    skeletons, as in {!explain}. *)

val identity : t -> string
(** Stable hex digest of the pipeline's {e semantic} inputs — the
    program's canonical rendering, the glossary spec and the engine's
    {!Ekg_engine.Chase.revision}.  Two pipelines
    with equal identity materialize identical instances and verbalize
    identical explanations, so the persistent session store stamps
    every snapshot with this digest and refuses to warm-restore a
    materialization under a program that no longer matches
    (falling back to a cold re-chase instead). *)
