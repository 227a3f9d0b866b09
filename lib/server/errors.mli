(** The structured error envelope of the /v1 API.

    Every non-2xx body the service produces is
    [{"error": {"code", "message", "retryable", "detail"?}}] with a
    stable machine-readable code, so clients program against codes
    instead of matching free-text messages.  The code set, its HTTP
    statuses and retryability are documented in README ("API errors")
    and DESIGN ("Failure semantics"); a new code is an API addition, a
    changed mapping is a breaking change. *)

open Ekg_engine

type code =
  | Moved_permanently    (** deprecated pre-/v1 path; [Location] names the new one — 301 *)
  | Parse_error          (** malformed HTTP framing or JSON — 400 *)
  | Invalid_atom         (** query/explain atom fails the wire grammar — 400 *)
  | Invalid_request      (** well-formed but unusable (bad spec/strategy/header) — 400 *)
  | Length_required      (** body-bearing method without [Content-Length] — 411 *)
  | Payload_too_large    (** 413 *)
  | Headers_too_large    (** 431 *)
  | Request_timeout      (** request incomplete at its read deadline — 408 *)
  | Not_found            (** unknown route — 404 *)
  | Session_not_found    (** 404 *)
  | No_trace             (** session has no recorded trace yet — 404 *)
  | No_explanation       (** no derived fact matches the query — 404 *)
  | Unknown_fact         (** retraction names a fact absent from the EDB — 404 *)
  | Method_not_allowed   (** known path, wrong verb — 405 *)
  | Invalid_program      (** program/EDB rejected by the engine — 400 *)
  | Inconsistent_program (** a constraint φ → ⊥ fired — 409 *)
  | Divergent            (** the chase hit its round bound — 500 *)
  | Budget_exceeded      (** fact/round budget exhausted — 500 *)
  | Deadline_exceeded    (** per-request deadline exhausted — 504 *)
  | Cancelled            (** run cancelled (e.g. shutdown) — 503 *)
  | Overloaded           (** load shed at the admission queue — 503 *)
  | Internal_error       (** handler exception — 500 *)

val all : code list
(** Every code, for documentation and exhaustiveness tests. *)

val id : code -> string
(** The stable wire identifier, e.g. ["deadline_exceeded"]. *)

val status : code -> int
val retryable : code -> bool

val envelope : ?detail:(string * Json.t) list -> code -> string -> Json.t
(** The [{"error": …}] document. *)

val response :
  ?detail:(string * Json.t) list ->
  ?headers:(string * string) list ->
  code ->
  string ->
  Http.response
(** The full HTTP response: {!status}, JSON {!envelope} body.  A status
    of 400 or above also puts the code's {!id} as the [error_code]
    field of the current {!Ekg_obs.Log.Ctx} scope: the request's wide
    event takes it from here. *)

val partial_detail : Chase.partial -> (string * Json.t) list
(** Partial chase progress as envelope detail fields
    ([rounds], [derived_facts], [elapsed_ms], [rounds_per_stratum]). *)

val of_chase : Chase.error -> code * string * (string * Json.t) list
(** Map a typed chase error to (code, message, detail). *)
