(** The on-disk snapshot store: one file per session under a store
    directory, written atomically and scanned at startup recovery.

    Durability discipline: {!save} writes the encoded snapshot to a
    temporary file in the same directory, [fsync]s it, [rename]s it
    over the final [<id>.snap] path, then [fsync]s the directory — a
    crash at any instant leaves either the previous complete snapshot
    or the new complete snapshot, never a torn file.  (A torn tmp file
    left by a crash is ignored by {!scan} and swept by {!open_dir}.)

    The store records its series on the registry {!set_obs} gives it,
    where it declares them at zero: [ekg_store_snapshot_bytes] and
    [ekg_store_snapshot_seconds] (encoding and durably writing) on every
    save, [ekg_store_restore_seconds] (reading and decoding) on every
    successful full load. *)

type t

val open_dir : string -> (t, string) result
(** Create (mkdir -p) or open the store directory; sweeps orphaned
    [*.tmp] files from interrupted writes.  The error is the system
    message (not a directory, permission, …). *)

val dir : t -> string

val set_obs : t -> Ekg_obs.Metrics.t -> unit
(** Re-bind the metrics registry the store records on, declaring the
    store's series there — the server opens the store before its
    observability registry exists, then points it at the scrapeable
    one. *)

val path : t -> string -> string
(** [path t id] is the snapshot file of session [id] —
    [<dir>/<id>.snap]. *)

val save : t -> Codec.t -> (int, string) result
(** Atomically persist the snapshot under its session id; returns the
    byte size written.  Rejects ids that are not simple file names (no
    separators, no leading dot). *)

val load : t -> string -> (Codec.t, string) result
(** Read and fully decode (and fingerprint-validate) a session's
    snapshot.  [Error] carries a human-readable reason — missing file,
    I/O failure, or a {!Codec.error} rendering; warm-restore callers
    treat every error as "fall back to a cold chase". *)

val load_meta : t -> string -> (Codec.t, string) result
(** Like {!load} but validates and decodes the meta section only
    ([mat] is always [None]) — the recovery-scan read. *)

val delete : t -> string -> unit
(** Remove the session's snapshot if present; idempotent. *)

val scan : t -> string list
(** Session ids with a snapshot on disk, sorted shortest-first then
    lexicographically (so ["s2"] precedes ["s10"]). *)
