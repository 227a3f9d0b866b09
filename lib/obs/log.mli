(** Leveled, thread-safe structured logging: every event is one
    single-line JSON object ({e JSONL}), so the log is greppable and
    machine-parseable without a framing layer.

    The server uses this for {e wide events}: one canonical record per
    request carrying everything known about it — trace id, endpoint,
    status, admission wait, chase work, cache hits, GC deltas — instead
    of scattering the same facts over interleaved free-text lines.
    Lower tiers contribute fields to the current request's event
    through the ambient {!Ctx} without threading a context value
    through every signature.

    Independently of the severity filter, events that carry a
    [duration_ms] at or above the logger's slow threshold are captured
    in a bounded in-memory {e slow-request ring}, served live by
    [GET /v1/debug/slowlog]. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string

val level_of_string : string -> (level, string) result
(** ["debug" | "info" | "warn" | "error"]; the [--log-level] flag. *)

(** Wide-event field values, rendered as the corresponding JSON type. *)
type value = Bool of bool | Int of int | Float of float | Str of string

type entry = {
  e_ts : float;                    (** unix seconds at emission *)
  e_level : level;
  e_event : string;
  e_duration_ms : float;
  e_fields : (string * value) list;
}
(** A slow-ring capture. *)

type t

val create :
  ?level:level ->
  ?slow_threshold_ms:float ->
  ?slow_capacity:int ->
  ?sink:(string -> unit) ->
  unit ->
  t
(** [level] (default [Info]) is the minimum severity forwarded to
    [sink]; [sink] receives one rendered line (no newline) per passing
    event and may be omitted — the logger then only feeds the slow
    ring, which keeps [/v1/debug/slowlog] alive without a log file.
    [slow_threshold_ms] (default [500.]) and [slow_capacity] (default
    [64]) configure the ring. *)

val noop : unit -> t
(** A disabled logger: every emission returns after one branch. *)

val open_file :
  ?level:level ->
  ?slow_threshold_ms:float ->
  ?slow_capacity:int ->
  string ->
  (t, string) result
(** A logger appending JSONL lines to [path] (created [0o644]), one
    [flush] per event so a crash loses at most the in-flight line.
    The error is the [Sys_error] message. *)

val close : t -> unit
(** Close the channel owned by {!open_file} loggers; no-op otherwise.
    Later emissions are silently dropped. *)

val enabled : t -> bool
val level : t -> level
val set_level : t -> level -> unit
val slow_threshold_ms : t -> float

val emitted : t -> int
(** Events forwarded to the sink since creation. *)

val would_log : t -> level -> bool
(** Whether an event at this severity would reach the sink — the guard
    for callers that want to skip field construction entirely. *)

val event : t -> ?duration_ms:float -> level -> string -> (string * value) list -> unit
(** [event t lvl name fields] renders
    [{"ts":…,"level":…,"event":name,"duration_ms":…,fields…}] and
    hands it to the sink if [lvl] passes the severity filter.  When
    [duration_ms] is at or above the slow threshold the event is
    {e also} captured in the slow ring — regardless of the filter, so
    raising the level cannot blind the slowlog. *)

val debug : t -> string -> (string * value) list -> unit
val info : t -> string -> (string * value) list -> unit
val warn : t -> string -> (string * value) list -> unit
val error : t -> string -> (string * value) list -> unit

val slow_entries : t -> entry list
(** The slow ring, most recent first. *)

(** Ambient per-domain field accumulation for the current wide event.

    {!Ctx.collect} opens a scope on the calling domain; any {!Ctx.put}
    executed beneath it — in the registry, a handler, anywhere on the
    same domain — lands in the collected field list.  Requests are
    handled start-to-finish on one worker domain, so the scope is
    naturally request-bounded.  Outside a scope, {!Ctx.put} is a
    no-op, which keeps instrumented library code callable from
    anywhere (tests, CLI) without setup. *)
module Ctx : sig
  val active : unit -> bool
  (** Whether a {!collect} scope is open on this domain. *)

  val put : string -> value -> unit
  (** Set a field on the current event; last write per key wins. *)

  val add : string -> float -> unit
  (** Accumulate onto a numeric field (starting from [0.]). *)

  val collect : ?init:(string * value) list -> (unit -> 'a) -> 'a * (string * value) list
  (** [collect f] runs [f] with a fresh field scope and returns its
      result with the fields recorded during the call, in first-put
      order.  [init] (default none) is put first, in order, so a later
      put overrides one of its fields in place.  Scopes nest: the inner
      scope shadows the outer for its duration.  Re-raises [f]'s
      exception after closing the scope. *)
end
