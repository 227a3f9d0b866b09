(** Ground facts materialized by the chase, identified by the id the
    database assigned at insertion time.  Ids are also the nodes of the
    chase graph.

    A [t] is a view: the database stores a fact only as interned ids in
    its column group and builds a fresh record whenever a reader asks
    ({!Database.fact}, {!Database.active}, ...), each argument the
    first-interned representative of its {!Ekg_kernel.Value.equal}
    class.  Nothing keeps a view alive but its reader. *)

open Ekg_kernel
open Ekg_datalog

type t = {
  id : int;
  pred : string;
  args : Value.t array;
}

val atom : t -> Atom.t
val arg : t -> int -> Value.t
val to_string : t -> string
val pp : Format.formatter -> t -> unit
