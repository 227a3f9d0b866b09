(** Ground facts materialized by the chase, identified by the id the
    database assigned at insertion time.  Ids are also the nodes of the
    chase graph. *)

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
