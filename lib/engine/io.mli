(** Loading and exporting extensional data.

    The paper distributes its synthetic financial data as flat files;
    this module reads one relation per CSV file ([own.csv] holds the
    [own] facts) and exports instances back to CSV or JSON for
    front-ends.  CSV: comma-separated, double quotes with [""]
    escaping, [#]-comment and blank lines ignored.  Unquoted numeric
    fields parse as numbers, everything else as strings. *)

open Ekg_datalog

val facts_of_csv : pred:string -> string -> (Atom.t list, string) result
(** Parse CSV content into facts of the given predicate; every row must
    have the same arity.  Errors carry the offending line number. *)

val facts_to_csv : Fact.t list -> string
(** Render facts as CSV rows (strings quoted, numbers bare). *)

val load_directory : string -> (Atom.t list, string) result
(** Read every [<pred>.csv] in the directory; the file's base name is
    the predicate. *)

val fact_to_json : Fact.t -> string
(** A {"id": …, "predicate": …, "args": […]} object. *)

val result_to_json : Chase.result -> string
(** The materialized instance: active facts grouped by predicate, with
    each derived fact carrying its rule and premise ids — a serialized
    chase graph front-ends can render. *)
