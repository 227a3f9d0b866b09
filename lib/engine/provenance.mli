(** The chase graph G(D, Σ): provenance of every materialized fact
    (§3, Chase Procedure and Chase Graph).

    Every intensional fact records the chase step that first derived
    it: the activated rule, the homomorphism θ, the premise facts, and
    — for aggregation rules — the list of contributors that fed the
    monotonic aggregate.  Extensional facts have no derivation. *)

open Ekg_datalog

type contributor = {
  facts : int list;     (** premise fact ids of this contributor *)
  binding : Subst.t;    (** θ restricted to this contributor's body match *)
}

type derivation = {
  rule_id : string;
  premises : int list;             (** all premise fact ids, deduplicated *)
  binding : Subst.t;               (** representative θ incl. head/group/aggregate values *)
  contributors : contributor list; (** ≥ 1 entries iff the rule aggregates *)
  round : int;                     (** chase round that performed the step *)
}

type t

val create : unit -> t

val copy : t -> t
(** A copy that shares every page with the original ({!Paged}): one
    immutable entry per fact id and the {!consumers} index's int
    chains, so the copy costs page tables.
    Recording or forgetting derivations on either side copies the pages
    it touches and never shows through the other (the companion of
    {!Database.copy} inside {!Chase.copy_result}). *)

val record : t -> fact_id:int -> derivation -> unit
(** The first derivation becomes the fact's primary one (the chase adds
    each fact once); later distinct derivations are kept as
    alternatives, enabling shortest-proof explanation. *)

val alternatives : t -> int -> derivation list
(** All recorded derivations, primary first; [] for EDB facts. *)

val forget : t -> int -> unit
(** Drop every recorded derivation of the fact — the DRed over-deletion
    step of the incremental chase ({!Chase.retract_facts}): a fact whose
    support was retracted loses its history before re-derivation gets a
    chance to record a fresh, still-valid proof.  The fact's
    {!consumers} edges go stale with its derivations. *)

val consumers : t -> int -> (int -> unit) -> unit
(** [consumers t p f] calls [f] on every fact a recorded derivation of
    which has [p] among its premises (a fact once per such derivation)
    — the edges the DRed over-deletion of {!Chase.retract_facts}
    follows.  The premise → consumer index behind it is built from
    every recorded derivation on the first call (or {!cited}), and from
    then on {!record} extends it.  It keeps int chains on shadow-paged
    vectors, shared by {!copy} like the rest.  An edge is followed only
    while its consumer still cites the premise: {!forget} retires the
    fact's edges, and the index is rebuilt once retired edges
    outnumber live ones.  {e Mutates} [t] when it builds the index:
    call it on a writer's copy, never on a result published to
    readers. *)

val cited : t -> int -> bool
(** Whether a recorded derivation has the fact among its premises: the
    first live edge of its {!consumers} chain, building the index on
    first need (so, like {!consumers}, a writer's call). *)

val record_superseded : t -> old_fact:int -> by:int -> unit
(** Note that a stale aggregate fact was replaced by a newer one. *)

val superseded_by : t -> int -> int option

val derivation : t -> int -> derivation option
(** [None] for extensional facts. *)

val is_edb : t -> int -> bool

val derived_ids : t -> int list
(** Ids with a recorded derivation, ascending. *)

val to_digraph : t -> Database.t -> string Ekg_graph.Digraph.t
(** Chase graph as a digraph whose nodes are rendered facts and whose
    edge labels are rule ids — the shape of the paper's Figure 8. *)

val encode : Buffer.t -> t -> unit
(** Snapshot codec hook: every derivation (alternatives included, in
    recorded order) and the superseded table, in deterministic fact-id
    order — the companion of {!Database.encode} inside a session
    snapshot. *)

val decode : Wire.reader -> t
(** Raises {!Wire.Truncated} / {!Wire.Corrupt} on malformed input. *)
