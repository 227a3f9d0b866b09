(** A deliberately small HTTP/1.1 implementation over the stdlib —
    enough protocol for the explanation service: request-line + header
    parsing with size limits, [Content-Length]-framed bodies, and
    response serialization.  One request per connection
    ([Connection: close]); no chunked encoding, no pipelining. *)

type meth = GET | POST | PUT | DELETE | HEAD | OPTIONS | Other of string

val meth_to_string : meth -> string

type request = {
  meth : meth;
  target : string;               (** raw request target, e.g. ["/sessions/s1/explain?x=1"] *)
  path : string list;            (** decoded, non-empty segments: [["sessions"; "s1"; "explain"]] *)
  query : (string * string) list; (** decoded query parameters, in order *)
  headers : (string * string) list; (** names lowercased *)
  body : string;
}

type error =
  | Bad_request of string    (** malformed request line, header, or framing — 400 *)
  | Length_required          (** body-bearing method without [Content-Length] — 411 *)
  | Payload_too_large of int (** declared body beyond the limit — 413; carries the limit *)
  | Headers_too_large of int (** header block beyond the limit — 431; carries the limit *)
  | Closed                   (** peer closed before a full request arrived *)

val error_status : error -> int
val error_message : error -> string

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val parse_prefix :
  ?max_header_bytes:int ->
  ?max_body_bytes:int ->
  eof:bool ->
  Buffer.t ->
  (request option, error) result
(** Parse the bytes of a connection received so far: [Ok (Some r)] once
    they hold a complete request, [Ok None] while more bytes may still
    complete one, or the framing error.  [eof] says the peer sent
    everything it will, so a prefix becomes an error:
    {!Closed} when nothing arrived, [Bad_request] otherwise.  Defaults:
    16 KiB of headers, 4 MiB of body.  [GET]/[HEAD]/[DELETE]/[OPTIONS]
    may omit [Content-Length] (empty body); [POST]/[PUT] must declare
    one.  Bytes past the declared body are ignored. *)

val parse_request_string :
  ?max_header_bytes:int -> ?max_body_bytes:int -> string -> (request, error) result
(** Parse from a complete in-memory request — the unit-test entry
    point. *)

type response = {
  status : int;
  content_type : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

val response :
  ?content_type:string -> ?headers:(string * string) list -> int -> string -> response

val status_text : int -> string

val response_to_string : response -> string
(** Serialize with [Content-Length] and [Connection: close]. *)
