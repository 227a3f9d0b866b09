(** Goal-directed query answering via the magic-sets transformation —
    the classic top-down/bottom-up bridge of the Datalog literature the
    paper builds on (§1's "top-down logical inference methods typically
    adopted in KRR", §2's recursive-query references).

    Answering a point query does not need the full materialization:
    {!specialize} rewrites the program with respect to the query's
    binding pattern (adornment), adds magic predicates that propagate
    the query constants, and the ordinary chase on the rewritten
    program derives only the facts relevant to the query — often
    dramatically smaller than the full fixpoint.  The specialization
    depends on the {e pattern} (predicate + bound/free mask) alone, so
    serving layers cache it and re-seed it per concrete query.

    Supported fragment: Datalog with comparisons, arithmetic
    assignments, monotonic aggregations (demand fixes the group
    variables, so every contributor of a demanded group is still
    derived), and stratified negation (intensional negated atoms are
    adorned and demanded; when the rewritten program no longer
    stratifies the chase reports it and callers fall back).
    Constraint (falsum) rules are rewritten with their head kept and
    their demand unconditional, so the scoped chase rejects exactly the
    inconsistent bases the full chase rejects.  Existential heads stay
    outside the fragment: a labelled null's identity depends on chase
    order, so a scoped instance would not be comparable to the full
    one. *)

open Ekg_datalog

type answer = {
  facts : Fact.t list;           (** the facts matching the query *)
  derived_count : int;           (** facts materialized to answer it *)
  pruned : bool;                 (** true when the magic rewriting ran *)
}

type specialized = {
  sp_pred : string;              (** queried predicate *)
  sp_mask : string;              (** ["bf"]-style bound/free mask *)
  sp_goal : string;              (** adorned goal predicate of {!sp_program} *)
  sp_seed_pred : string;         (** magic predicate seeded per concrete query *)
  sp_program : Program.t;        (** the rewritten program *)
  sp_extra_seeds : Atom.t list;  (** unconditional demand (constraint rules) *)
  sp_renames : (string * string) list;
      (** adorned predicate → source predicate, for projecting scoped
          facts and proofs back onto the program's vocabulary *)
  sp_rule_origin : (string * string) list;
      (** rewritten rule id → source rule id *)
  sp_magic_preds : string list;  (** demand predicates (internal bookkeeping) *)
}

val adornment : Atom.t -> string
(** ["bf"]-style binding pattern: [b] for constant arguments, [f] for
    variables. *)

val specialize :
  Program.t -> pred:string -> mask:string -> (specialized, string) result
(** Rewrite the program for point queries of the given shape.  Pure in
    the program and the pattern — two queries with equal constants in
    equal positions share one specialization.  Errors (unknown or
    extensional predicate, bad mask, a fragment violation such as an
    existential head or a query binding an aggregate result) mean the
    caller should answer from the full materialization instead. *)

val seeds : specialized -> Atom.t -> Atom.t list
(** The extensional seed facts for one concrete query atom: the magic
    fact carrying the query's bound constants, plus the unconditional
    constraint demand. *)

val goal_atom : specialized -> Atom.t -> Atom.t
(** The query atom renamed into the rewritten program's vocabulary —
    what to {!Query.ask} the scoped chase result for. *)

val original_fact : specialized -> Fact.t -> Fact.t
(** Project a scoped fact back onto the source program's vocabulary
    (identity for facts that were never adorned). *)

val unadorn_proof : specialized -> Proof.t -> Proof.t
(** Project a proof extracted from the scoped chase back onto the
    source program: magic (demand) steps and premises are dropped,
    rewritten rule ids map back to their source labels, and adorned
    predicates are renamed — the result is a proof the template mapper
    accepts against the {e original} program's reasoning paths. *)

val rewrite : Program.t -> Atom.t -> (Program.t * Atom.t list, string) result
(** {!specialize} for the concrete atom's own adornment, returning the
    rewritten program and the seed facts; fails on queries over
    unknown predicates. *)

val answer : Program.t -> Atom.t list -> Atom.t -> (answer, string) result
(** Answer the query over the extensional facts, goal-directed when the
    program is in the supported fragment (falling back to the full
    chase otherwise, and when the rewritten program fails to
    stratify). *)
