(** Cost-based join planning: per-rule evaluation orders for the
    matcher's positive body atoms.

    The matcher historically joined body atoms in textual order, which
    is catastrophic when an unselective atom comes first (the full
    predicate scan seeds the join).  A {!t} reorders the atoms
    greedily by estimated selectivity: at each step it picks the
    remaining atom with the lowest

    {v cardinality(pred) / (1 + number of bound argument positions) v}

    where a position is bound when it holds a constant or a variable
    already bound by an earlier (planned) atom — the textbook
    bound-is-easier heuristic driven by live predicate cardinalities
    from the database ({!Database.pred_card}), so plans are recompiled
    per chase round as the instance grows.  Ties break toward textual
    order, which keeps plans (and therefore the whole chase)
    deterministic. *)

open Ekg_datalog

type t = {
  order : int array;
      (** [order.(k)] is the index, in the rule's positive-atom list,
          of the atom evaluated at join position [k]. *)
  reordered : bool;  (** [order] differs from the identity *)
}

val compile : ?first:int -> card:(string -> int) -> Rule.t -> t
(** Plan a rule's positive body against cardinality estimates.
    [card p] is the (active + inactive) fact count of predicate [p];
    unknown predicates estimate to [0] and therefore evaluate first,
    which short-circuits the join immediately.  [first] pins the atom
    at that positive-atom index to join position 0 — a seed-first plan
    for joining a few given facts against the rest. *)

val key_masks : ?bound:string list -> Rule.t -> t -> int array
(** Per join position, the bitmask of argument positions bound at
    probe time — constants plus variables bound by earlier atoms in
    plan order, plus the [bound] variables (bound before the join
    starts) at every position.  These are the hash-join key columns the matcher
    builds and probes indexes on ({!Database.ensure_index}): the
    greedy cardinality order chooses the build side (the atom indexed
    at each position), the mask chooses its key columns.  A mask of
    [0] (nothing bound — typically the seed position) means the
    position scans instead of probing. *)
