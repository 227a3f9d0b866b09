open Ekg_engine

type code =
  | Moved_permanently
  | Parse_error
  | Invalid_atom
  | Invalid_request
  | Length_required
  | Payload_too_large
  | Headers_too_large
  | Request_timeout
  | Not_found
  | Session_not_found
  | No_trace
  | No_explanation
  | Unknown_fact
  | Method_not_allowed
  | Invalid_program
  | Inconsistent_program
  | Divergent
  | Budget_exceeded
  | Deadline_exceeded
  | Cancelled
  | Overloaded
  | Internal_error

let all =
  [
    Moved_permanently;
    Parse_error;
    Invalid_atom;
    Invalid_request;
    Length_required;
    Payload_too_large;
    Headers_too_large;
    Request_timeout;
    Not_found;
    Session_not_found;
    No_trace;
    No_explanation;
    Unknown_fact;
    Method_not_allowed;
    Invalid_program;
    Inconsistent_program;
    Divergent;
    Budget_exceeded;
    Deadline_exceeded;
    Cancelled;
    Overloaded;
    Internal_error;
  ]

let id = function
  | Moved_permanently -> "moved_permanently"
  | Parse_error -> "parse_error"
  | Invalid_atom -> "invalid_atom"
  | Invalid_request -> "invalid_request"
  | Length_required -> "length_required"
  | Payload_too_large -> "payload_too_large"
  | Headers_too_large -> "headers_too_large"
  | Request_timeout -> "request_timeout"
  | Not_found -> "not_found"
  | Session_not_found -> "session_not_found"
  | No_trace -> "no_trace"
  | No_explanation -> "no_explanation"
  | Unknown_fact -> "unknown_fact"
  | Method_not_allowed -> "method_not_allowed"
  | Invalid_program -> "invalid_program"
  | Inconsistent_program -> "inconsistent_program"
  | Divergent -> "divergent"
  | Budget_exceeded -> "budget_exceeded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Cancelled -> "cancelled"
  | Overloaded -> "overloaded"
  | Internal_error -> "internal_error"

let status = function
  | Moved_permanently -> 301
  | Parse_error | Invalid_atom | Invalid_request | Invalid_program -> 400
  | Length_required -> 411
  | Payload_too_large -> 413
  | Headers_too_large -> 431
  | Request_timeout -> 408
  | Not_found | Session_not_found | No_trace | No_explanation | Unknown_fact -> 404
  | Method_not_allowed -> 405
  | Inconsistent_program -> 409
  | Divergent | Budget_exceeded | Internal_error -> 500
  | Deadline_exceeded -> 504
  | Cancelled | Overloaded -> 503

(* Retryable means: the identical request may succeed later without the
   caller changing anything — transient load or a too-tight deadline.
   Client mistakes and genuine engine limits are not retryable. *)
let retryable = function
  | Overloaded | Deadline_exceeded | Cancelled | Request_timeout -> true
  | Moved_permanently | Parse_error | Invalid_atom | Invalid_request
  | Length_required
  | Payload_too_large | Headers_too_large | Not_found | Session_not_found | No_trace
  | No_explanation | Unknown_fact | Method_not_allowed | Invalid_program
  | Inconsistent_program | Divergent | Budget_exceeded | Internal_error ->
    false

let envelope ?(detail = []) code message =
  let base =
    [
      "code", Json.str (id code);
      "message", Json.str message;
      "retryable", Json.bool (retryable code);
    ]
  in
  let fields =
    if detail = [] then base else base @ [ "detail", Json.Obj detail ]
  in
  Json.Obj [ "error", Json.Obj fields ]

(* the request's wide event takes its error code from here *)
let response ?detail ?(headers = []) code message =
  let status = status code in
  if status >= 400 then Ekg_obs.Log.Ctx.put "error_code" (Ekg_obs.Log.Str (id code));
  Http.response ~headers status (Json.to_string (envelope ?detail code message))

let partial_detail (p : Chase.partial) =
  [
    "rounds", Json.int p.Chase.partial_rounds;
    "derived_facts", Json.int p.Chase.partial_derived;
    "elapsed_ms", Json.num (p.Chase.partial_wall_s *. 1000.);
    ( "rounds_per_stratum",
      Json.Arr (List.map Json.int p.Chase.partial_stratum_rounds) );
  ]

let of_chase (err : Chase.error) =
  let message = "reasoning: " ^ Chase.error_to_string err in
  match err with
  | Chase.Invalid_program _ | Chase.Unstratifiable _ | Chase.Invalid_edb _ ->
    Invalid_program, message, []
  | Chase.Unknown_fact _ -> Unknown_fact, message, []
  | Chase.Inconsistent _ -> Inconsistent_program, message, []
  | Chase.Divergent { stratum_rounds; _ } ->
    ( Divergent,
      message,
      [ "rounds_per_stratum", Json.Arr (List.map Json.int stratum_rounds) ] )
  | Chase.Budget_exceeded (`Deadline, p) ->
    Deadline_exceeded, message, partial_detail p
  | Chase.Budget_exceeded ((`Facts | `Rounds), p) ->
    Budget_exceeded, message, partial_detail p
  | Chase.Cancelled p -> Cancelled, message, partial_detail p
