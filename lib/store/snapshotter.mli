(** Write-behind session persistence: snapshot saves happen off the
    request path, on one dedicated background domain.

    A request names a session and a {e capture} closure.  Captures are
    cheap by construction — under the copy-on-write registry
    discipline a published {!Ekg_engine.Chase.result} is immutable, so
    capturing a consistent snapshot means grabbing pointers under the
    session lock, not copying data; the expensive encode + fsync run
    afterwards on the snapshotter's own domain.

    Requests {e coalesce} per session: while a session already has a
    pending request, a new one replaces its capture closure instead of
    queueing behind it, so a burst of fact updates to one session costs
    a single snapshot of the final state.  Ordering across sessions is
    FIFO by first request.

    The [`Sync] mode runs every request inline on the caller (tests,
    and deployments that prefer commit-latency over throughput);
    [`Off] drops them (snapshots then only happen at eviction time). *)

type mode = Off | Write_behind | Sync

val mode_of_string : string -> (mode, string) result
(** ["off" | "behind" | "sync"]; the [--snapshot] server flag. *)

val mode_to_string : mode -> string

type t

val create : ?mode:mode -> ?obs:Ekg_obs.Metrics.t -> Store.t -> t
(** Spawns the background domain iff [mode] (default [Write_behind])
    is [Write_behind].  [obs] instruments the snapshotter's queue
    mutex (wait/hold histograms labeled [{lock="snapshotter"}]), and
    gets that lock's series and the two gauges of {!runtime_samples}
    declared at zero. *)

val mode : t -> mode

val depth : t -> int
(** Snapshot requests pending or in flight — the write-behind queue
    depth a stalled disk lets grow. *)

val stall_s : t -> float
(** How long the current in-flight save has been running ([0.] when
    idle) — a large value means a snapshot is stalling the drain. *)

val runtime_samples : t -> unit -> Ekg_obs.Runtime.sample list
(** A {!Ekg_obs.Runtime.register} source publishing {!depth} as
    [ekg_store_snapshot_queue_depth] and {!stall_s} as
    [ekg_store_snapshot_stall_seconds]. *)

val request : t -> sid:string -> (unit -> Codec.t option) -> unit
(** Ask for session [sid] to be persisted.  [capture] runs on the
    snapshotter domain (or inline under [`Sync]); answering [None]
    skips the save (the session vanished meanwhile).  Save failures
    are logged, never raised — persistence is best-effort behind a
    serving path that must not block. *)

val discard : t -> sid:string -> unit
(** Drop any pending request for [sid] and wait out an in-flight save
    of it, so a caller deleting the session's snapshot file cannot race
    a concurrent re-write. *)

val flush : t -> unit
(** Block until the queue is empty and no save is in flight. *)

val stop : t -> unit
(** Drain the queue, then join the background domain.  Idempotent. *)
