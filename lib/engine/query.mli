(** Queries over a materialized instance: pattern matching against the
    active facts, used both for reasoning-task answers and to resolve
    explanation queries Q_e = {fact} (§4.3). *)

open Ekg_datalog

val ask : Database.t -> Atom.t -> (Fact.t * Subst.t) list
(** All active facts the (possibly non-ground) atom maps onto. *)

val holds : Database.t -> Atom.t -> bool

val parse_and_ask : Database.t -> string -> ((Fact.t * Subst.t) list, string) result
(** Parse an atom such as ["control(\"B\", \"D\")"] and query it. *)
