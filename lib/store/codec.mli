(** Versioned binary snapshot codec for persisted sessions.

    A snapshot is the full durable closure of one registry session:
    its identity (id, name, creation spec), the program identity hash
    ({!Ekg_core.Pipeline.identity}), the live-update generation, the
    extensional-base mirror, and — when the session was materialized —
    the complete chase result (database, provenance, round counts) via
    the engine's codec hooks ({!Ekg_engine.Database.encode} and
    friends).

    The byte layout is a magic tag, a format version, then two
    independently length-prefixed and checksummed sections: {e meta}
    (identity + EDB mirror — everything startup recovery needs) and
    {e materialization} (the expensive part, absent for dormant
    sessions).  {!decode_meta} reads and validates only the first
    section, so a recovery scan over thousands of snapshots never
    deserializes a database; {!decode} reads both and additionally
    recomputes {!Ekg_engine.Database.fingerprint} over the restored
    instance against the digest recorded at snapshot time — a restore
    can therefore never silently serve a different instance than the
    one that was persisted.

    Every failure mode is a typed {!error}; no exception escapes
    {!decode}/{!decode_meta}. *)

open Ekg_datalog
open Ekg_engine

(** How the session was created — persisted so a restarted daemon can
    recompile the pipeline.  The registry re-exports this type as
    [Registry.spec]: it lives here because the store layer sits below
    the server. *)
type spec =
  | App of string
  | Files of { program : string; glossary : string option; facts_dir : string option }
  | Inline of { program : string; glossary : string option }

type t = {
  id : string;                    (** registry session id, e.g. ["s1"] *)
  name : string;
  spec : spec;
  program_hash : string;          (** {!Ekg_core.Pipeline.identity} at snapshot time *)
  update_gen : int;               (** the session's update generation the
                                      snapshot captures — warm restore
                                      refuses a stale one *)
  created_at : float;
  edb : Atom.t list;              (** extensional-base mirror *)
  mat : Chase.result option;      (** the materialization; [None] for
                                      dormant sessions (and always [None]
                                      from {!decode_meta}) *)
}

val format_version : int
(** The codec's current on-disk format version. *)

type error =
  | Bad_magic             (** not a snapshot file *)
  | Version_mismatch of { found : int; expected : int }
  | Truncated             (** the input ends mid-field (interrupted write) *)
  | Corrupt of string     (** checksum mismatch or malformed field *)
  | Fingerprint_mismatch of { expected : string; got : string }
      (** the restored database does not hash to the digest recorded
          at snapshot time *)

val error_to_string : error -> string

val encode : t -> string
(** The snapshot's complete byte image.  Deterministic: equal
    snapshots encode to equal bytes. *)

val decode : string -> (t, error) result
(** Decode and validate everything, fingerprint check included. *)

val decode_meta : string -> (t, error) result
(** Decode and validate the meta section only; [mat] is [None] even
    when the file carries a materialization.  The cheap read behind a
    startup recovery scan. *)
