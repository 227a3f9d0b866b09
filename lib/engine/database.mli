(** Indexed fact store with set semantics.

    Facts are deduplicated on their (predicate, tuple); each inserted
    fact receives a stable id.  Facts can be {e deactivated}: a
    deactivated fact stays addressable by id (the chase graph may
    reference it) but no longer participates in rule matching.  The
    chase uses deactivation to supersede stale monotonic-aggregation
    results.

    A fact is stored once, as interned value ids in its column group
    (see {!Cols}); the database keeps one int per fact locating it.
    Every reader that returns a {!Fact.t} — {!fact}, {!find_exact},
    {!matching}, {!active}, {!all_of_pred}, {!active_all} — builds a
    fresh view from the columns, and {!fingerprint} and {!encode} read
    the columns too.  Each value of a view is the first-interned
    representative of its {!Value.equal} class ({!value_of_id}): a
    tuple inserted as [p(1.0)] reads back as [p(1)] once [1] was
    interned first. *)

open Ekg_kernel
open Ekg_datalog

type t

val create : unit -> t

val copy : t -> t
(** A copy of the full store — facts, ids, indexes, activation state,
    null counter — that shares every page with the original
    ({!Paged}).  O(pages): it copies page tables, plus the symbol table
    and the small group and mask tables.  Neither side owns a shared
    page afterwards, so a write to either database copies the page it
    touches and never shows through the other: a reader can keep using
    the original while an incremental update runs against the copy
    ({!Chase.copy_result}), and the join indexes survive the copy. *)

val add : t -> string -> Value.t array -> [ `Added of int | `Existing of int ]
(** Insert or retrieve, answering the fact's id; builds no {!Fact.t}.
    A tuple whose values are {!Value.equal} to a stored one's, position
    by position, is that fact.  A previously deactivated identical
    tuple is treated as existing (it is not resurrected). *)

val add_atom : t -> Atom.t -> ([ `Added of int | `Existing of int ], string) result
(** Convenience for ground atoms; [Error] on non-ground input. *)

val deactivate : t -> int -> unit
val is_active : t -> int -> bool

val all_active : t -> bool
(** True when no fact is deactivated — lets read loops skip the
    per-fact activation check.  Only stable while no deactivations
    happen (e.g. within one pure-read match pass). *)

val reactivate : t -> int -> unit
(** Resurrect a deactivated fact: it participates in matching again
    under its original id.  The incremental chase uses this when a
    retracted or over-deleted fact is re-added or re-derived, so fact
    identity (and with it the provenance graph) survives an
    add-then-retract round trip. *)

val fingerprint : t -> string
(** Canonical content fingerprint of the {e active} instance: every
    active fact rendered and sorted, one per line.  Two databases with
    the same fingerprint hold the same facts regardless of insertion
    order, fact ids, or deactivated garbage — the equality the
    incremental chase's "byte-identical to a cold chase" invariant is
    stated over. *)

val fact : t -> int -> Fact.t
(** A view of the fact, built from its column group: every argument is
    its class's representative, so the view may differ from the tuple
    {!add} was given in [Int]/[Num] carrier only.  Raises [Not_found]
    for unknown ids. *)

val find_exact : t -> string -> Value.t array -> Fact.t option
(** Lookup by tuple regardless of activity. *)

val active : t -> string -> Fact.t list
(** Active facts of a predicate, in ascending id order — across the
    predicate's arities, which the EDB may mix. *)

val all_of_pred : t -> string -> Fact.t list
(** Active and inactive, in ascending id order. *)

val active_all : t -> Fact.t list
(** All active facts, in ascending id order. *)

val size : t -> int
(** Number of facts ever inserted (active + inactive). *)

val active_size : t -> int

val fresh_null : t -> Value.t
(** Next labelled null ν_i; the counter is per-database. *)

val matching : t -> Atom.t -> Subst.t -> (Fact.t * Subst.t) list
(** Active facts of the pattern's predicate that the pattern maps onto
    under an extension of the given substitution, with the extended
    substitution, in ascending id order. *)

val exists_matching : t -> Atom.t -> Subst.t -> bool
(** Whether {!matching} would be non-empty, without materializing the
    matches — the negation check of the matcher early-exits through
    this. *)

(** {1 Interned symbols and statistics}

    Predicate names are interned to dense ints on first insertion;
    the matcher and the chase key their hot-path lookups (delta
    membership, posting lengths) on these symbols instead of hashing
    strings. *)

val pred_sym : t -> string -> int option
(** The symbol of a predicate, if any fact of it was ever inserted. *)

val pred_sym_of_fact : t -> int -> int
(** The predicate symbol of a fact id; raises [Not_found] for unknown
    ids. *)

val pred_of_fact : t -> int -> string
(** The predicate of a fact id, without building its view; raises
    [Not_found] for unknown ids. *)

val pred_card : t -> string -> int
(** Number of facts ever inserted for the predicate (active +
    inactive), summed over its column groups (one per arity) — the
    join planner's cardinality estimate. *)

(** {1 Columnar storage and hash-join indexes}

    Facts are stored only as a struct-of-arrays representation: one {e
    column group} per (predicate symbol, arity), holding a column of
    interned value ids per argument position plus a row → fact-id map;
    each fact id maps back to its group and row.  Rows are in insertion
    order (ascending fact id), and activation is a bitmap checked per
    candidate row — deactivated facts stay in the columns forever.

    A group's hash indexes key its rows on the columns named by a
    bitmask.  Each index keeps, per key hash, a {e chain} of rows in
    ascending order.  Every insertion maintains two kinds: the full-key
    index (set semantics, {!find_exact}) and one index per column
    ({!matching}, {!exists_matching}), so readers never need an index
    built for them.  The join planner's other masks are built by
    [ensure_index], incrementally from a row watermark, so per-round
    index maintenance costs O(new rows).  [ensure_index] mutates the
    database and must be called from the planning step of a chase
    round, never on a result published to readers, who read it off the
    session lock; {!index_handle} is a pure read and answers [None]
    whenever the index is missing or stale, so correctness never
    depends on index preparation.  Indexes live on the same pages as
    the facts and survive {!copy}. *)

module Cols : sig
  type group
  (** A (predicate symbol, arity) column group — a read-only view for
      the matcher; only {!Database.add} appends rows. *)

  val find : t -> sym:int -> arity:int -> group option
  val rows : group -> int
  val arity : group -> int

  val fact_id : group -> int -> int
  (** [fact_id g row] — the fact id stored at a row.  No bounds check;
      callers iterate [0 .. rows g - 1]. *)

  val col : group -> int -> int -> int
  (** [col g i row] — the interned value id of argument position [i]
      at [row].  No bounds check. *)
end

val value_id : t -> Value.t -> int
(** The interned id of a value, or [-1] if no stored fact contains it
    (in which case no probe can match it).  Interning follows
    {!Value.equal}, so numerically equal [Int]/[Num] values share an
    id. *)

val value_of_id : t -> int -> Value.t
(** The representative of the class: the first value interned under
    the id, which every view and {!encode} render for all of the
    class's members.  Raises [Invalid_argument] on ids never returned
    by interning. *)

val key_hash_add : int -> int -> int
(** Fold a key column's value id into a probe hash (seed [0], columns
    in ascending position order) — deterministic pure-int mixing, the
    exact combiner the indexes use to chain rows. *)

val ensure_index : t -> sym:int -> arity:int -> mask:int -> int
(** Build or extend the hash index of the column group on the key
    columns set in [mask] (bit [i] = argument position [i]).  Returns
    the number of rows newly indexed (0 when the index was already
    fresh — always so for a single column or every column — or the
    group does not exist).  Sequential-phase only: never on a result
    published to readers. *)

type index_handle
(** A resolved, fresh index over a column group — the mask lookup and
    staleness check, paid once.  Valid only while no rows are appended
    to the group: resolve at the start of a pure-read match pass, drop
    before any insertion. *)

val index_handle : Cols.group -> mask:int -> index_handle option
(** [Some h] when the [mask] index exists and covers every row of the
    group, [None] when the caller must scan. *)

val probe_handle : index_handle -> hash:int -> int
(** The first row of the chain of rows whose key columns hash to
    [hash], or [-1] when there is none.  Collisions are possible;
    callers re-check every column. *)

val chain_next : index_handle -> int -> int
(** The row after [row] in its chain (ascending), or [-1] at the end. *)

val encode : Buffer.t -> t -> unit
(** Snapshot codec hook: the full store — facts in id order, read off
    their columns (so each value is its class's representative),
    activation state, null counter, symbol table — in the engine's
    binary wire form.  {!decode} replays the insertion sequence, so the restored
    database carries identical fact ids, symbols, insertion-kept
    indexes and {!fingerprint}; planner indexes are rebuilt on demand. *)

val decode : Wire.reader -> t
(** Raises {!Wire.Truncated} / {!Wire.Corrupt} on malformed input,
    including replays that fail to reproduce the recorded ids or
    symbol table. *)
