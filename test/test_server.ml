(* Tests for the explanation service: JSON codec round-trips, the HTTP
   request parser, the latency histogram's edges, the typed chase errors,
   the session registry's cache accounting, router status mapping, the
   two forms of /v1/metrics, and one loopback-socket integration test
   against a live server. *)

open Ekg_server

let contains haystack needle =
  List.length (Ekg_kernel.Textutil.split_on_string ~sep:needle haystack) > 1

let check = Alcotest.check
let bool' = Alcotest.bool
let int' = Alcotest.int
let string' = Alcotest.string

let json_t =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Json.to_string j))
    ( = )

(* --- json ------------------------------------------------------------------ *)

let roundtrip j =
  match Json.parse (Json.to_string j) with
  | Ok j' -> j'
  | Error e -> Alcotest.failf "reparse: %s" e

let test_json_print () =
  check string' "object"
    {|{"a":1,"b":[true,null,"x"]}|}
    (Json.to_string
       (Json.Obj [ "a", Json.int 1; "b", Json.Arr [ Json.Bool true; Json.Null; Json.str "x" ] ]));
  check string' "integral floats have no point" "42" (Json.to_string (Json.num 42.));
  check string' "fractions survive" "0.125" (Json.to_string (Json.num 0.125));
  check string' "escapes" {|"a\"b\\c\nd\te"|} (Json.to_string (Json.str "a\"b\\c\nd\te"));
  check string' "control chars" {|"\u0001"|} (Json.to_string (Json.str "\001"))

let test_json_roundtrip () =
  let deep =
    Json.Obj
      [
        "text", Json.str "quotes \" backslash \\ newline \n tab \t unicode \xc3\xa9";
        "nums", Json.Arr [ Json.int 0; Json.int (-17); Json.num 3.5; Json.num 1e-3 ];
        "nested", Json.Obj [ "empty_arr", Json.Arr []; "empty_obj", Json.Obj [] ];
        "flag", Json.Bool false;
        "nothing", Json.Null;
      ]
  in
  check json_t "deep round-trip" deep (roundtrip deep)

let test_json_parse_escapes () =
  (match Json.parse {|"caf\u00e9 \ud83d\ude00"|} with
  | Ok (Json.Str s) -> check string' "utf8 from \\u" "caf\xc3\xa9 \xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse: %s" e);
  (match Json.parse "  [1, 2,\t3]\n" with
  | Ok j -> check json_t "whitespace" (Json.Arr [ Json.int 1; Json.int 2; Json.int 3 ]) j
  | Error e -> Alcotest.failf "parse: %s" e)

let test_json_parse_errors () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted malformed %S" s
    | Error _ -> ()
  in
  List.iter bad
    [ "{"; "[1,]"; "{\"a\" 1}"; "\"unterminated"; "nul"; "1 2"; "{\"a\":}"; "\"\\u12"; "\"\\ud800\"" ]

let test_json_accessors () =
  let j = Json.Obj [ "s", Json.str "x"; "n", Json.int 7; "b", Json.Bool true; "z", Json.Null ] in
  check bool' "mem_str" true (Json.mem_str "s" j = Some "x");
  check bool' "mem_int" true (Json.mem_int "n" j = Some 7);
  check bool' "mem_bool" true (Json.mem_bool "b" j = Some true);
  check bool' "null reads as absent" true (Json.member "z" j = None);
  check bool' "missing" true (Json.member "w" j = None)

(* --- http parser ----------------------------------------------------------- *)

let parse = Http.parse_request_string

let test_http_happy_path () =
  let req =
    "POST /sessions/s1/explain?v=1&q=a%20b HTTP/1.1\r\nHost: localhost\r\n\
     Content-Type: application/json\r\nContent-Length: 15\r\n\r\n{\"query\": \"x\"}X"
  in
  match parse req with
  | Error _ -> Alcotest.fail "happy path rejected"
  | Ok r ->
    check bool' "method" true (r.Http.meth = Http.POST);
    check bool' "path segments" true (r.Http.path = [ "sessions"; "s1"; "explain" ]);
    check bool' "query decoded" true (r.Http.query = [ "v", "1"; "q", "a b" ]);
    check string' "body by content-length" "{\"query\": \"x\"}X" r.Http.body;
    check bool' "header lookup is case-insensitive" true
      (Http.header r "content-TYPE" = Some "application/json")

let test_http_get_without_length () =
  match parse "GET /health HTTP/1.1\r\nHost: x\r\n\r\n" with
  | Ok r ->
    check bool' "GET" true (r.Http.meth = Http.GET);
    check string' "empty body" "" r.Http.body
  | Error _ -> Alcotest.fail "bare GET rejected"

let test_http_missing_content_length () =
  match parse "POST /sessions HTTP/1.1\r\nHost: x\r\n\r\n{}" with
  | Error Http.Length_required -> ()
  | Error _ -> Alcotest.fail "wrong error for missing Content-Length"
  | Ok _ -> Alcotest.fail "POST without Content-Length accepted"

let test_http_oversized_body () =
  let req = "POST /x HTTP/1.1\r\nContent-Length: 999999\r\n\r\n" in
  (match parse ~max_body_bytes:1024 req with
  | Error (Http.Payload_too_large limit) -> check int' "limit reported" 1024 limit
  | Error _ -> Alcotest.fail "wrong error for oversized body"
  | Ok _ -> Alcotest.fail "oversized body accepted");
  check int' "413 maps" 413 (Http.error_status (Http.Payload_too_large 1024))

let test_http_bad_requests () =
  let bad s =
    match parse s with
    | Error (Http.Bad_request _) -> ()
    | Error _ -> Alcotest.failf "wrong error class for %S" s
    | Ok _ -> Alcotest.failf "accepted malformed %S" s
  in
  bad "NONSENSE\r\n\r\n";
  bad "GET /x SMTP/1.0\r\n\r\n";
  bad "GET nopath HTTP/1.1\r\n\r\n";
  bad "POST /x HTTP/1.1\r\nContent-Length: tw0\r\n\r\n";
  bad "GET /x HTTP/1.1\r\nbroken header line\r\n\r\n";
  (* truncated before the blank line *)
  bad "GET /x HTTP/1.1\r\nHost: y\r\n"

let test_http_header_limit () =
  let req =
    "GET / HTTP/1.1\r\nBig: " ^ String.make 4096 'x' ^ "\r\n\r\n"
  in
  match parse ~max_header_bytes:256 req with
  | Error (Http.Headers_too_large _) -> ()
  | _ -> Alcotest.fail "oversized headers accepted"

(* the reader's parser sees a request a few bytes at a time: every
   proper prefix is "not yet", the whole is the same request the
   string parser reads, and a limit trips before the request is whole *)
let test_http_prefixes () =
  let req =
    "POST /v1/sessions HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}"
  in
  let buf = Buffer.create 64 in
  String.iteri
    (fun i c ->
      (match Http.parse_prefix ~eof:false buf with
      | Ok None -> ()
      | _ -> Alcotest.failf "prefix of %d bytes answered" i);
      Buffer.add_char buf c)
    req;
  (match Http.parse_prefix ~eof:false buf, parse req with
  | Ok (Some r), Ok r' -> check bool' "same request as the string parser" true (r = r')
  | _ -> Alcotest.fail "complete request not parsed");
  let cut = Buffer.create 64 in
  Buffer.add_string cut (String.sub req 0 (String.length req - 1));
  (match Http.parse_prefix ~eof:true cut with
  | Error (Http.Bad_request "truncated body") -> ()
  | _ -> Alcotest.fail "end of input inside the body is not a truncated body");
  let big = Buffer.create 512 in
  Buffer.add_string big ("GET / HTTP/1.1\r\nBig: " ^ String.make 300 'x');
  match Http.parse_prefix ~max_header_bytes:256 ~eof:false big with
  | Error (Http.Headers_too_large 256) -> ()
  | _ -> Alcotest.fail "oversized header block waited for more bytes"

let test_http_response_serialization () =
  let s = Http.response_to_string (Http.response 404 "{\"error\":\"x\"}") in
  check bool' "status line" true
    (String.length s > 20 && String.sub s 0 22 = "HTTP/1.1 404 Not Found");
  check bool' "content-length" true
    (contains s "Content-Length: 13");
  check bool' "connection close" true (contains s "Connection: close")

(* --- typed chase errors ---------------------------------------------------- *)

let parse_exn src =
  match Ekg_datalog.Parser.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse: %s" e

let test_chase_checked_unstratifiable () =
  let { Ekg_datalog.Parser.program; facts } =
    parse_exn {|
p(X), not q(X) -> q(X).
@goal(q).
p("a").
|}
  in
  match Ekg_engine.Chase.run_checked program facts with
  | Error (Ekg_engine.Chase.Unstratifiable _ as e) ->
    check bool' "client error" true (Ekg_engine.Chase.client_error e);
    check bool' "message preserved" true
      (Ekg_kernel.Textutil.contains_word
         (Ekg_engine.Chase.error_to_string e) "stratifiable")
  | Error _ -> Alcotest.fail "wrong error constructor"
  | Ok _ -> Alcotest.fail "unstratifiable program accepted"

let test_chase_checked_inconsistent () =
  let { Ekg_datalog.Parser.program; facts } =
    parse_exn {|
veto: bad(X) -> false.
mark: p(X) -> bad(X).
@goal(bad).
p("a").
|}
  in
  match Ekg_engine.Chase.run_checked program facts with
  | Error (Ekg_engine.Chase.Inconsistent _ as e) ->
    check bool' "client error" true (Ekg_engine.Chase.client_error e)
  | Error _ -> Alcotest.fail "wrong error constructor"
  | Ok _ -> Alcotest.fail "violated constraint accepted"

let test_chase_checked_divergent_is_server_side () =
  let err =
    Ekg_engine.Chase.Divergent { max_rounds = 7; stratum_rounds = [ 2; 5 ] }
  in
  check bool' "divergence is not a client error" false
    (Ekg_engine.Chase.client_error err);
  check bool' "message names the strata" true
    (contains (Ekg_engine.Chase.error_to_string err) "#2=5")

(* --- registry -------------------------------------------------------------- *)

let inline_program =
  {|
sigma1: own(X, Y, S), S > 0.5 -> control(X, Y).
sigma3: control(X, Z), own(Z, Y, S), TS = sum(S), TS > 0.5 -> control(X, Y).
@goal(control).
own("A", "B", 0.6).
own("B", "C", 0.7).
|}

(* (hits, misses) of the registry's kept materializations *)
let session_cache_counts obs =
  let count family =
    int_of_float
      (Option.value ~default:0.
         (Ekg_obs.Metrics.value obs (Ekg_obs.Metrics.name family)))
  in
  ( count Registry.session_cache_hits_metric,
    count Registry.session_cache_misses_metric )

let test_registry_cache_accounting () =
  let obs = Ekg_obs.Metrics.create () in
  let reg = Registry.create ~obs () in
  let session =
    match Registry.add reg ~name:"inline" (Registry.Inline { program = inline_program; glossary = None }) with
    | Ok s -> s
    | Error e -> Alcotest.failf "add: %s" e
  in
  check string' "first id" "s1" session.Registry.id;
  (match Registry.materialize reg session with
  | Ok r -> check bool' "derived something" true (r.Ekg_engine.Chase.derived_count > 0)
  | Error _ -> Alcotest.fail "materialize failed");
  (match Registry.materialize reg session with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "second materialize failed");
  check bool' "one miss then one hit" true (session_cache_counts obs = (1, 1));
  check bool' "found by id" true (Registry.find reg "s1" <> None);
  check bool' "unknown id" true (Registry.find reg "s99" = None)

let test_registry_path_containment () =
  let reg = Registry.create () in
  let escape p =
    match
      Registry.add reg (Registry.Files { program = p; glossary = None; facts_dir = None })
    with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "path %S escaped the root" p
  in
  escape "../../../etc/passwd";
  escape "/etc/passwd"

let test_registry_spec_decoding () =
  let decode s =
    match Json.parse s with
    | Ok j -> Registry.spec_of_json j
    | Error e -> Alcotest.failf "json: %s" e
  in
  (match decode {|{"app":"company-control","name":"cc"}|} with
  | Ok (Registry.App "company-control", Some "cc") -> ()
  | _ -> Alcotest.fail "app spec");
  (match decode {|{"program_path":"programs/x.vada","facts_dir":"data/x"}|} with
  | Ok (Registry.Files { program = "programs/x.vada"; facts_dir = Some "data/x"; _ }, None) -> ()
  | _ -> Alcotest.fail "files spec");
  (match decode {|{"program":"p(\"a\"). @goal(p)."}|} with
  | Ok (Registry.Inline _, None) -> ()
  | _ -> Alcotest.fail "inline spec");
  (match decode {|{}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty spec accepted");
  match decode {|{"app":"x","program":"y"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ambiguous spec accepted"

(* --- router (no sockets) --------------------------------------------------- *)

let request ?(body = "") ?(headers = []) ?(query = []) meth path =
  let target = "/" ^ String.concat "/" path in
  {
    Http.meth;
    target;
    path;
    query;
    headers = ("content-type", "application/json") :: headers;
    body;
  }

(* the machine-readable code of an envelope response *)
let json_of (r : Http.response) =
  match Json.parse r.Http.resp_body with
  | Ok j -> j
  | Error e -> Alcotest.failf "body is not json (%s): %s" e r.Http.resp_body

let envelope_code (r : Http.response) =
  match Json.parse r.Http.resp_body with
  | Ok j -> Option.bind (Json.member "error" j) (Json.mem_str "code")
  | Error _ -> None

let envelope_retryable (r : Http.response) =
  match Json.parse r.Http.resp_body with
  | Ok j -> Option.bind (Json.member "error" j) (fun e -> Json.mem_bool "retryable" e)
  | Error _ -> None

let resp_header (r : Http.response) name = List.assoc_opt name r.Http.resp_headers

let test_error_envelope_codes () =
  List.iter
    (fun code ->
      let resp = Errors.response code "boom" in
      check int' ("status of " ^ Errors.id code) (Errors.status code)
        resp.Http.status;
      match Json.parse resp.Http.resp_body with
      | Error e -> Alcotest.failf "envelope of %s is not json: %s" (Errors.id code) e
      | Ok j -> (
        match Json.member "error" j with
        | None -> Alcotest.failf "%s: no error object" (Errors.id code)
        | Some err ->
          check bool' (Errors.id code ^ " code echoed") true
            (Json.mem_str "code" err = Some (Errors.id code));
          check bool' (Errors.id code ^ " message echoed") true
            (Json.mem_str "message" err = Some "boom");
          check bool' (Errors.id code ^ " retryable present") true
            (Json.mem_bool "retryable" err = Some (Errors.retryable code))))
    Errors.all;
  let ids = List.map Errors.id Errors.all in
  check int' "wire ids are unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  (* the documented failure-semantics table, spot-checked *)
  check int' "deadline_exceeded is 504" 504 (Errors.status Errors.Deadline_exceeded);
  check int' "overloaded is 503" 503 (Errors.status Errors.Overloaded);
  check int' "inconsistent_program is 409" 409 (Errors.status Errors.Inconsistent_program);
  check bool' "overloaded is retryable" true (Errors.retryable Errors.Overloaded);
  check bool' "deadline is retryable" true (Errors.retryable Errors.Deadline_exceeded);
  check bool' "divergent is not retryable" false (Errors.retryable Errors.Divergent);
  check bool' "invalid_program is not retryable" false
    (Errors.retryable Errors.Invalid_program)

let test_router_statuses () =
  let st = Router.make_state () in
  let status r = r.Http.status in
  check int' "health" 200 (status (Router.handle st (request Http.GET [ "v1"; "health" ])));
  let missing = Router.handle st (request Http.GET [ "v1"; "nope" ]) in
  check int' "unknown route" 404 missing.Http.status;
  check bool' "not_found code" true (envelope_code missing = Some "not_found");
  let bad_method = Router.handle st (request Http.DELETE [ "v1"; "health" ]) in
  check int' "bad method" 405 bad_method.Http.status;
  check bool' "method_not_allowed code" true
    (envelope_code bad_method = Some "method_not_allowed");
  let no_session =
    Router.handle st
      (request ~body:{|{"query":"p("a")"}|} Http.POST
         [ "v1"; "sessions"; "s9"; "explain" ])
  in
  check int' "unknown session" 404 no_session.Http.status;
  check bool' "session_not_found code" true
    (envelope_code no_session = Some "session_not_found");
  let bad_body = Router.handle st (request ~body:"{oops" Http.POST [ "v1"; "sessions" ]) in
  check int' "bad session body" 400 bad_body.Http.status;
  check bool' "parse_error code" true (envelope_code bad_body = Some "parse_error");
  let created =
    Router.handle st
      (request ~body:(Json.to_string (Json.Obj [ "program", Json.str inline_program ]))
         Http.POST [ "v1"; "sessions" ])
  in
  check int' "created" 201 created.Http.status;
  check int' "templates" 200
    (status (Router.handle st (request Http.GET [ "v1"; "sessions"; "s1"; "templates" ])));
  check int' "malformed atom is 400"
    400
    (status
       (Router.handle st
          (request ~body:{|{"query":"control(\"A\" oops"}|} Http.POST
             [ "v1"; "sessions"; "s1"; "explain" ])));
  let bad_deadline =
    Router.handle st
      (request
         ~headers:[ "x-ekg-deadline-ms", "soon" ]
         ~body:{|{"query":"control(\"A\", \"C\")"}|} Http.POST
         [ "v1"; "sessions"; "s1"; "explain" ])
  in
  check int' "bad deadline header is 400" 400 bad_deadline.Http.status;
  check bool' "invalid_request code" true
    (envelope_code bad_deadline = Some "invalid_request");
  check int' "valid explain" 200
    (status
       (Router.handle st
          (request ~body:{|{"query":"control(\"A\", \"C\")"}|} Http.POST
             [ "v1"; "sessions"; "s1"; "explain" ])))

let test_router_legacy_redirect () =
  let st = Router.make_state () in
  let r = Router.handle st (request Http.GET [ "health" ]) in
  check int' "301" 301 r.Http.status;
  check bool' "Location points at /v1" true
    (resp_header r "Location" = Some "/v1/health");
  check bool' "Deprecation header" true (resp_header r "Deprecation" = Some "true");
  check bool' "moved_permanently envelope" true
    (envelope_code r = Some "moved_permanently");
  let r2 =
    Router.handle st
      (request ~body:"{}" Http.POST [ "sessions"; "s1"; "explain" ])
  in
  check int' "nested legacy path redirects" 301 r2.Http.status;
  check bool' "nested Location" true
    (resp_header r2 "Location" = Some "/v1/sessions/s1/explain");
  let r3 = Router.handle st (request Http.GET [ "metrics" ]) in
  check int' "legacy metrics redirects" 301 r3.Http.status

let test_router_observability () =
  let st = Router.make_state () in
  let header (r : Http.response) name = List.assoc_opt name r.Http.resp_headers in
  let r1 = Router.handle st (request Http.GET [ "v1"; "health" ]) in
  let r2 = Router.handle st (request Http.GET [ "v1"; "health" ]) in
  (match header r1 "X-Ekg-Trace-Id", header r2 "X-Ekg-Trace-Id" with
  | Some a, Some b ->
    check bool' "trace id assigned" true (String.length a > 0);
    check bool' "trace ids unique per request" true (a <> b)
  | _ -> Alcotest.fail "missing X-Ekg-Trace-Id header");
  let created =
    Router.handle st
      (request ~body:(Json.to_string (Json.Obj [ "program", Json.str inline_program ]))
         Http.POST [ "v1"; "sessions" ])
  in
  check int' "created" 201 created.Http.status;
  let no_trace =
    Router.handle st (request Http.GET [ "v1"; "sessions"; "s1"; "trace" ])
  in
  check int' "no trace before the first explain" 404 no_trace.Http.status;
  check bool' "no_trace code" true (envelope_code no_trace = Some "no_trace");
  check int' "bad method on trace is 405" 405
    (Router.handle st (request Http.POST [ "v1"; "sessions"; "s1"; "trace" ])).Http.status;
  let explained =
    Router.handle st
      (request ~body:{|{"query":"control(\"A\", \"C\")"}|} Http.POST
         [ "v1"; "sessions"; "s1"; "explain" ])
  in
  check int' "explain ok" 200 explained.Http.status;
  check bool' "explain body echoes the trace id" true
    (contains explained.Http.resp_body {|"trace_id"|});
  check bool' "explain is not degraded under a roomy deadline" true
    (contains explained.Http.resp_body {|"degraded":false|});
  let trace = Router.handle st (request Http.GET [ "v1"; "sessions"; "s1"; "trace" ]) in
  check int' "trace recorded after explain" 200 trace.Http.status;
  check bool' "root span is the request" true
    (contains trace.Http.resp_body {|"name":"explain-request"|});
  check bool' "chase child span" true
    (contains trace.Http.resp_body {|"name":"chase"|});
  check bool' "explain stage spans" true
    (contains trace.Http.resp_body {|"name":"proof-extraction"|});
  (* content negotiation on /v1/metrics *)
  let json_doc = Router.handle st (request Http.GET [ "v1"; "metrics" ]) in
  check bool' "default stays json" true
    (contains json_doc.Http.resp_body {|"requests_total"|});
  let prom =
    Router.handle st
      (request ~headers:[ "accept", "text/plain" ] Http.GET [ "v1"; "metrics" ])
  in
  check string' "prometheus content type" "text/plain; version=0.0.4"
    prom.Http.content_type;
  check bool' "requests_total exposition" true
    (contains prom.Http.resp_body "# TYPE ekg_requests_total counter");
  check bool' "chase series present" true
    (contains prom.Http.resp_body "ekg_chase_rounds_total");
  check bool' "robustness series pre-declared" true
    (contains prom.Http.resp_body "ekg_server_shed_total"
    && contains prom.Http.resp_body "ekg_request_deadline_exceeded_total"
    && contains prom.Http.resp_body "ekg_server_queue_depth");
  check bool' "stage series fed by the tracer" true
    (contains prom.Http.resp_body {|ekg_pipeline_stage_seconds_total{stage="chase"}|});
  check bool' "endpoint histogram present" true
    (contains prom.Http.resp_body {|ekg_request_duration_ms_bucket{endpoint="GET /v1/health",le="+Inf"}|});
  let prom2 =
    Router.handle st
      (request ~query:[ "format", "prometheus" ] Http.GET [ "v1"; "metrics" ])
  in
  check bool' "?format=prometheus negotiates too" true
    (contains prom2.Http.resp_body "# HELP ekg_uptime_seconds")

let test_router_deadline_504 () =
  (* a chase stretched far past the deadline by fault injection: the
     request must come back 504 within roughly the deadline, not after
     the full chase *)
  let st = Router.make_state ~fault:(Fault.Slow_chase 5.0) () in
  let created =
    Router.handle st
      (request ~body:(Json.to_string (Json.Obj [ "program", Json.str inline_program ]))
         Http.POST [ "v1"; "sessions" ])
  in
  check int' "created" 201 created.Http.status;
  let t0 = Unix.gettimeofday () in
  let r =
    Router.handle st
      (request
         ~headers:[ "x-ekg-deadline-ms", "50" ]
         ~body:{|{"query":"control(\"A\", \"C\")"}|} Http.POST
         [ "v1"; "sessions"; "s1"; "explain" ])
  in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  check int' "504" 504 r.Http.status;
  check bool' "deadline_exceeded code" true
    (envelope_code r = Some "deadline_exceeded");
  check bool' "retryable" true (envelope_retryable r = Some true);
  check bool' "partial chase stats in detail" true
    (contains r.Http.resp_body {|"detail"|}
    && contains r.Http.resp_body {|"rounds"|}
    && contains r.Http.resp_body {|"elapsed_ms"|});
  (* the 5s fault never completes; ~50ms deadline + 5ms poll slices +
     scheduling slack is the real bound *)
  check bool' "answered near the deadline, not the chase" true
    (elapsed_ms < 1000.);
  let prom =
    Router.handle st
      (request ~query:[ "format", "prometheus" ] Http.GET [ "v1"; "metrics" ])
  in
  check bool' "deadline counter advanced" true
    (contains prom.Http.resp_body "ekg_request_deadline_exceeded_total 1");
  (* a failed (budget-tripped) run is not cached: a roomy retry succeeds *)
  let retry =
    Router.handle st
      (request
         ~headers:[ "x-ekg-deadline-ms", "30000" ]
         ~body:{|{"query":"control(\"A\", \"C\")"}|} Http.POST
         [ "v1"; "sessions"; "s1"; "explain" ])
  in
  check int' "roomy retry succeeds after the fault window" 200 retry.Http.status

let test_router_degraded_explain () =
  (* delay fault + cached chase + a deadline shorter than the delay:
     proof extraction still works, verbalization is skipped *)
  let st = Router.make_state ~fault:(Fault.Delay 0.15) () in
  let created =
    Router.handle st
      (request ~body:(Json.to_string (Json.Obj [ "program", Json.str inline_program ]))
         Http.POST [ "v1"; "sessions" ])
  in
  check int' "created" 201 created.Http.status;
  let warm =
    Router.handle st
      (request ~body:{|{"query":"control(\"A\", \"C\")"}|} Http.POST
         [ "v1"; "sessions"; "s1"; "explain" ])
  in
  check int' "warm explain ok" 200 warm.Http.status;
  check bool' "warm explain fully verbalized" true
    (contains warm.Http.resp_body {|"degraded":false|});
  (* the 150 ms delay outlasts a 50 ms deadline: the chase is kept, so
     the explanation still answers, as skeletons *)
  let degraded =
    Router.handle st
      (request
         ~headers:[ "x-ekg-deadline-ms", "50" ]
         ~body:{|{"query":"control(\"A\", \"B\")"}|} Http.POST
         [ "v1"; "sessions"; "s1"; "explain" ])
  in
  check int' "degraded explain still answers 200" 200 degraded.Http.status;
  check bool' "flagged degraded" true
    (contains degraded.Http.resp_body {|"degraded":true|})

let test_router_batch_explain () =
  let st = Router.make_state () in
  let created =
    Router.handle st
      (request ~body:(Json.to_string (Json.Obj [ "program", Json.str inline_program ]))
         Http.POST [ "v1"; "sessions" ])
  in
  check int' "created" 201 created.Http.status;
  let body =
    {|{"queries":["control(\"A\", \"C\")","broken(","zzz(\"q\")"]}|}
  in
  let r =
    Router.handle st
      (request ~body Http.POST [ "v1"; "sessions"; "s1"; "explain:batch" ])
  in
  check int' "batch answers 200 with per-item statuses" 200 r.Http.status;
  (match Json.parse r.Http.resp_body with
  | Error e -> Alcotest.failf "batch body: %s" e
  | Ok j ->
    check bool' "item count" true (Json.mem_int "count" j = Some 3);
    check bool' "ok count" true (Json.mem_int "ok" j = Some 1);
    check bool' "failed count" true (Json.mem_int "failed" j = Some 2);
    (match Option.bind (Json.member "items" j) Json.get_arr with
    | Some [ first; second; third ] ->
      check bool' "first item ok" true (Json.mem_str "status" first = Some "ok");
      check bool' "second item invalid_atom" true
        (Option.bind (Json.member "error" second) (Json.mem_str "code")
        = Some "invalid_atom");
      check bool' "third item invalid_atom" true
        (Option.bind (Json.member "error" third) (Json.mem_str "code")
        = Some "invalid_atom")
    | _ -> Alcotest.fail "expected three items"));
  (* a bare array body works too, and the whole batch shares one chase:
     the registry saw exactly one miss across both batches *)
  let r2 =
    Router.handle st
      (request ~body:{|["control(\"A\", \"C\")"]|} Http.POST
         [ "v1"; "sessions"; "s1"; "explain:batch" ])
  in
  check int' "bare array accepted" 200 r2.Http.status;
  check int' "one chase across all batch items" 1
    (snd (session_cache_counts (Router.obs st)));
  let empty =
    Router.handle st
      (request ~body:{|{"queries":[]}|} Http.POST
         [ "v1"; "sessions"; "s1"; "explain:batch" ])
  in
  check int' "empty batch rejected" 400 empty.Http.status

(* --- live fact updates ------------------------------------------------------ *)

(* incrementable (no aggregation/existentials): updates maintain the
   materialization in place instead of re-chasing *)
let closure_program =
  {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
e("a", "b"). e("b", "c").
|}

let create_closure_session st =
  let created =
    Router.handle st
      (request
         ~body:(Json.to_string (Json.Obj [ "program", Json.str closure_program ]))
         Http.POST [ "v1"; "sessions" ])
  in
  check int' "created" 201 created.Http.status

let explain_path st id query =
  Router.handle st
    (request
       ~body:(Json.to_string (Json.Obj [ "query", Json.str query ]))
       Http.POST [ "v1"; "sessions"; id; "explain" ])

(* an explain response's explanations, byte for byte *)
let explanations_of (r : Http.response) =
  Option.map Json.to_string (Json.member "explanations" (json_of r))

let test_router_facts_live_updates () =
  let st = Router.make_state () in
  create_closure_session st;
  (* the first explain materializes; every later one reads the kept
     materialization *)
  let first = explain_path st "s1" {|path("a", "c")|} in
  check int' "cold explain ok" 200 first.Http.status;
  (* live addition: the closure extends without a fresh chase *)
  let added =
    Router.handle st
      (request ~body:{|{"facts":["e(\"c\", \"d\")"]}|} Http.POST
         [ "v1"; "sessions"; "s1"; "facts" ])
  in
  check int' "addition accepted" 200 added.Http.status;
  check bool' "addition was incremental" true
    (contains added.Http.resp_body {|"incremental":true|});
  let extended = explain_path st "s1" {|path("a", "d")|} in
  check int' "new consequence explainable" 200 extended.Http.status;
  (* the edge extends the closure past path("a", "c") without touching
     its proof *)
  check (Alcotest.option string') "path(a, c) explains as before"
    (explanations_of first)
    (explanations_of (explain_path st "s1" {|path("a", "c")|}));
  check int' "one chase total: updates maintained it in place" 1
    (snd (session_cache_counts (Router.obs st)));
  (* live retraction: the support chain collapses *)
  let removed =
    Router.handle st
      (request ~body:{|{"facts":["e(\"b\", \"c\")"]}|} Http.DELETE
         [ "v1"; "sessions"; "s1"; "facts" ])
  in
  check int' "retraction accepted" 200 removed.Http.status;
  check bool' "retraction was incremental" true
    (contains removed.Http.resp_body {|"incremental":true|});
  let gone = explain_path st "s1" {|path("a", "c")|} in
  check int' "withdrawn consequence is gone" 404 gone.Http.status;
  check bool' "no_explanation code" true
    (envelope_code gone = Some "no_explanation");
  (* the live-update series advanced *)
  let prom =
    Router.handle st
      (request ~query:[ "format", "prometheus" ] Http.GET [ "v1"; "metrics" ])
  in
  check bool' "incremental rounds series advanced" true
    (contains prom.Http.resp_body "ekg_chase_incremental_rounds_total"
    && not
         (contains prom.Http.resp_body "ekg_chase_incremental_rounds_total 0\n"));
  check bool' "retracted facts series advanced" true
    (contains prom.Http.resp_body "ekg_chase_retracted_facts_total"
    && not (contains prom.Http.resp_body "ekg_chase_retracted_facts_total 0\n"))

let test_router_fingerprint_endpoint () =
  let st = Router.make_state () in
  create_closure_session st;
  let fingerprint () =
    let r =
      Router.handle st (request Http.GET [ "v1"; "sessions"; "s1"; "fingerprint" ])
    in
    check int' "fingerprint ok" 200 r.Http.status;
    match Json.parse r.Http.resp_body with
    | Error e -> Alcotest.failf "fingerprint body: %s" e
    | Ok j ->
      check bool' "algo advertised" true (Json.mem_str "algo" j = Some "md5");
      let fp = Option.get (Json.mem_str "fingerprint" j) in
      check int' "md5 hex digest" 32 (String.length fp);
      check bool' "fact count present" true (Json.mem_int "facts" j <> None);
      fp
  in
  let original = fingerprint () in
  check bool' "stable across repeat requests" true (original = fingerprint ());
  (* an incremental update must move the canonical identity, and the
     inverse update must restore it exactly — the replay gate's premise *)
  let update meth =
    let r =
      Router.handle st
        (request ~body:{|{"facts":["e(\"c\", \"d\")"]}|} meth
           [ "v1"; "sessions"; "s1"; "facts" ])
    in
    check int' "update ok" 200 r.Http.status
  in
  update Http.POST;
  let extended = fingerprint () in
  check bool' "update moves the fingerprint" false (original = extended);
  update Http.DELETE;
  check bool' "inverse update restores the fingerprint" true
    (original = fingerprint ());
  (* wrong method on the known path: 405, not 404 *)
  let bad =
    Router.handle st (request Http.POST [ "v1"; "sessions"; "s1"; "fingerprint" ])
  in
  check int' "POST not allowed" 405 bad.Http.status

let test_router_facts_validation () =
  let st = Router.make_state () in
  create_closure_session st;
  let post body =
    Router.handle st (request ~body Http.POST [ "v1"; "sessions"; "s1"; "facts" ])
  in
  let del body =
    Router.handle st
      (request ~body Http.DELETE [ "v1"; "sessions"; "s1"; "facts" ])
  in
  check int' "missing facts field" 400 (post {|{}|}).Http.status;
  check int' "empty facts array" 400 (post {|{"facts":[]}|}).Http.status;
  check int' "non-string fact" 400 (post {|{"facts":[7]}|}).Http.status;
  check int' "unparsable atom" 400 (post {|{"facts":["own(\"A\" oops"]}|}).Http.status;
  check int' "malformed json" 400 (post "{nope").Http.status;
  (* materialize, then hit the engine-level validations *)
  check int' "warm explain" 200 (explain_path st "s1" {|path("a", "b")|}).Http.status;
  let unknown = del {|{"facts":["e(\"z\", \"q\")"]}|} in
  check int' "unknown fact is 404" 404 unknown.Http.status;
  check bool' "unknown_fact code" true (envelope_code unknown = Some "unknown_fact");
  check bool' "unknown_fact not retryable" true
    (envelope_retryable unknown = Some false);
  let derived = del {|{"facts":["path(\"a\", \"b\")"]}|} in
  check int' "derived fact rejected" 404 derived.Http.status;
  check bool' "unknown_fact code" true
    (envelope_code derived = Some "unknown_fact");
  (* rejected updates must not perturb the session *)
  let survivor = explain_path st "s1" {|path("a", "c")|} in
  check int' "session intact after rejections" 200 survivor.Http.status;
  check int' "GET on facts is 405" 405
    (Router.handle st (request Http.GET [ "v1"; "sessions"; "s1"; "facts" ])).Http.status

(* the MD5 the fingerprint endpoint serves, of a local cold chase *)
let cold_fingerprint program_src facts =
  let { Ekg_datalog.Parser.program; _ } =
    match Ekg_datalog.Parser.parse program_src with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  match Ekg_engine.Chase.run program facts with
  | Ok r ->
    Digest.to_hex (Digest.string (Ekg_engine.Database.fingerprint r.Ekg_engine.Chase.db))
  | Error e -> Alcotest.failf "cold chase: %s" e

let served_fingerprint st id =
  let r = Router.handle st (request Http.GET [ "v1"; "sessions"; id; "fingerprint" ]) in
  check int' "fingerprint ok" 200 r.Http.status;
  match Json.parse r.Http.resp_body with
  | Ok j -> Option.get (Json.mem_str "fingerprint" j)
  | Error e -> Alcotest.failf "fingerprint body: %s" e

let create_inline_session ?(program = inline_program) st =
  let created =
    Router.handle st
      (request
         ~body:(Json.to_string (Json.Obj [ "program", Json.str program ]))
         Http.POST [ "v1"; "sessions" ])
  in
  check int' "created" 201 created.Http.status

let test_router_facts_aggregate_incremental () =
  (* inline_program aggregates (sum): updates maintain the groups in
     place on a copy-on-write copy — [incremental:true] — and the
     served state equals a cold chase of the updated base *)
  let st = Router.make_state () in
  create_inline_session st;
  check int' "warm explain" 200
    (explain_path st "s1" {|control("A", "C")|}).Http.status;
  let own_bc = {|["own(\"B\", \"C\", 0.7)"]|} in
  let removed =
    Router.handle st
      (request ~body:({|{"facts":|} ^ own_bc ^ "}") Http.DELETE
         [ "v1"; "sessions"; "s1"; "facts" ])
  in
  check int' "retraction accepted" 200 removed.Http.status;
  check bool' "retraction maintained incrementally" true
    (contains removed.Http.resp_body {|"incremental":true|});
  let own a b w =
    Ekg_datalog.Atom.make "own"
      [ Ekg_datalog.Term.str a; Ekg_datalog.Term.str b; Ekg_datalog.Term.num w ]
  in
  check string' "retraction = cold chase" (cold_fingerprint inline_program [ own "A" "B" 0.6 ])
    (served_fingerprint st "s1");
  let gone = explain_path st "s1" {|control("A", "C")|} in
  check int' "control chain broken" 404 gone.Http.status;
  let readded =
    Router.handle st
      (request ~body:({|{"facts":|} ^ own_bc ^ "}") Http.POST
         [ "v1"; "sessions"; "s1"; "facts" ])
  in
  check int' "re-addition accepted" 200 readded.Http.status;
  check bool' "re-addition maintained incrementally" true
    (contains readded.Http.resp_body {|"incremental":true|});
  check string' "re-addition = cold chase"
    (cold_fingerprint inline_program [ own "A" "B" 0.6; own "B" "C" 0.7 ])
    (served_fingerprint st "s1");
  check int' "control chain restored" 200
    (explain_path st "s1" {|control("A", "C")|}).Http.status

(* a held session value is a snapshot: its current version, read again *)
let current reg (session : Registry.session) =
  match Registry.find reg session.Registry.id with
  | Some s -> s
  | None -> Alcotest.failf "session %s missing" session.Registry.id

(* A failed aggregation update runs against a private [copy_result]
   copy: the served fingerprint, the EDB mirror and the explanation
   must come out byte-identical. *)
let check_failed_update_preserves st ~expect_status ~headers ~body meth =
  let session =
    match Registry.find (Router.registry st) "s1" with
    | Some s -> s
    | None -> Alcotest.fail "session s1 missing"
  in
  let explain () = explain_path st "s1" {|control("A", "C")|} in
  let before = explain () in
  check int' "warm explain" 200 before.Http.status;
  let fingerprint = served_fingerprint st "s1" in
  let edb = session.Registry.edb in
  let r = Router.handle st (request ~headers ~body meth [ "v1"; "sessions"; "s1"; "facts" ]) in
  check int' "update rejected" expect_status r.Http.status;
  check string' "served fingerprint unchanged" fingerprint (served_fingerprint st "s1");
  check bool' "EDB mirror unchanged" true
    (List.equal Ekg_datalog.Atom.equal edb (current (Router.registry st) session).Registry.edb);
  (* every byte but the per-request trace id *)
  check (Alcotest.option string') "explanations unchanged" (explanations_of before)
    (explanations_of (explain ()))

let test_router_aggregate_update_deadline_504 () =
  (* the slow-chase fault slows materialization, not updates, so the
     update gets a deadline that lapses before its first round *)
  let st = Router.make_state () in
  create_inline_session st;
  check_failed_update_preserves st ~expect_status:504
    ~headers:[ "x-ekg-deadline-ms", "0.001" ]
    ~body:{|{"facts":["own(\"C\", \"D\", 0.9)"]}|} Http.POST

let test_router_aggregate_update_inconsistent_409 () =
  (* nobody may control itself: closing the ownership cycle derives
     control("A", "A") through the σ3 sum *)
  let st = Router.make_state () in
  create_inline_session ~program:(inline_program ^ "control(X, X) -> false.\n") st;
  check_failed_update_preserves st ~expect_status:409 ~headers:[]
    ~body:{|{"facts":["own(\"C\", \"A\", 0.8)"]}|} Http.POST

let test_registry_update_before_materialize () =
  (* updates against a dormant session mutate the EDB mirror only; the
     first materialization sees the updated base *)
  let reg = Registry.create () in
  let session =
    match
      Registry.add reg
        (Registry.Inline { program = closure_program; glossary = None })
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "add: %s" e
  in
  let atom s =
    match Ekg_datalog.Parser.parse_atom s with
    | Ok a -> a
    | Error e -> Alcotest.failf "atom: %s" e
  in
  (match Registry.update_facts reg session `Add [ atom {|e("c", "d")|} ] with
  | Ok upd ->
    check bool' "dormant update is not incremental" false
      upd.Ekg_engine.Chase.upd_incremental;
    check int' "no chase rounds run" 0 upd.Ekg_engine.Chase.upd_rounds
  | Error e -> Alcotest.failf "add: %s" (Ekg_engine.Chase.error_to_string e));
  (match Registry.update_facts reg session `Retract [ atom {|e("a", "b")|} ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "retract: %s" (Ekg_engine.Chase.error_to_string e));
  (match Registry.update_facts reg session `Retract [ atom {|e("x", "y")|} ] with
  | Error (Ekg_engine.Chase.Unknown_fact _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Ekg_engine.Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "unknown retraction accepted on a dormant session");
  match Registry.materialize reg session with
  | Error _ -> Alcotest.fail "materialize failed"
  | Ok r ->
    let paths =
      Ekg_engine.Database.active r.Ekg_engine.Chase.db "path"
      |> List.map Ekg_engine.Fact.to_string
      |> List.sort String.compare
    in
    check bool' "materialization reflects the updated base" true
      (paths = [ {|path("b", "c")|}; {|path("b", "d")|}; {|path("c", "d")|} ])

(* closure plus a negative constraint the update stream can violate:
   a cycle edge derives path(X, X) -> false *)
let acyclic_program = {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
path(X, X) -> false.
@goal(path).
e("a", "b"). e("b", "c").
|}

let test_router_facts_inconsistent_preserves_state () =
  let st = Router.make_state () in
  let created =
    Router.handle st
      (request
         ~body:(Json.to_string (Json.Obj [ "program", Json.str acyclic_program ]))
         Http.POST [ "v1"; "sessions" ])
  in
  check int' "created" 201 created.Http.status;
  let warm = explain_path st "s1" {|path("a", "c")|} in
  check int' "warm explain" 200 warm.Http.status;
  (* the violating addition is the client's fault... *)
  let violating =
    Router.handle st
      (request ~body:{|{"facts":["e(\"c\", \"a\")"]}|} Http.POST
         [ "v1"; "sessions"; "s1"; "facts" ])
  in
  check int' "constraint violation is 409" 409 violating.Http.status;
  check bool' "inconsistent_program code" true
    (envelope_code violating = Some "inconsistent_program");
  (* ...and the session still serves its pre-update state: the engine
     only detects the violation after mutating, but it mutated a
     private copy — instance and base are intact *)
  check (Alcotest.option string') "explanation intact after the rejection"
    (explanations_of warm)
    (explanations_of (explain_path st "s1" {|path("a", "c")|}));
  check int' "no corrupted consequence served" 404
    (explain_path st "s1" {|path("a", "a")|}).Http.status;
  check int' "rejected atom did not enter the base" 404
    (explain_path st "s1" {|path("c", "a")|}).Http.status;
  (* the session remains live-updatable after the rejection *)
  let ok_add =
    Router.handle st
      (request ~body:{|{"facts":["e(\"c\", \"d\")"]}|} Http.POST
         [ "v1"; "sessions"; "s1"; "facts" ])
  in
  check int' "later valid addition accepted" 200 ok_add.Http.status;
  check bool' "still maintained incrementally" true
    (contains ok_add.Http.resp_body {|"incremental":true|});
  check int' "new consequence explainable" 200
    (explain_path st "s1" {|path("a", "d")|}).Http.status

let registry_inline_session reg program =
  match Registry.add reg (Registry.Inline { program; glossary = None }) with
  | Ok s -> s
  | Error e -> Alcotest.failf "add: %s" e

let parse_atom_exn s =
  match Ekg_datalog.Parser.parse_atom s with
  | Ok a -> a
  | Error e -> Alcotest.failf "atom: %s" e

let test_registry_failed_update_keeps_snapshot () =
  (* a budget trip mid-propagation mutates only the private copy: the
     published materialization must survive, byte-identical *)
  let reg = Registry.create () in
  let session = registry_inline_session reg closure_program in
  let before =
    match Registry.materialize reg session with
    | Ok r -> Ekg_engine.Database.fingerprint r.Ekg_engine.Chase.db
    | Error e ->
      Alcotest.failf "materialize: %s" (Ekg_engine.Chase.error_to_string e)
  in
  let budget = Ekg_engine.Chase.budget ~cancel:(fun () -> true) () in
  (match
     Registry.update_facts ~budget reg session `Add
       [ parse_atom_exn {|e("c", "d")|} ]
   with
  | Error (Ekg_engine.Chase.Cancelled _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Ekg_engine.Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "cancelled update succeeded");
  match (current reg session).Registry.chase with
  | None -> Alcotest.fail "failed update dropped the materialization"
  | Some r ->
    check string' "served snapshot identical after the failed update" before
      (Ekg_engine.Database.fingerprint r.Ekg_engine.Chase.db)

let test_registry_duplicate_add_deduped () =
  (* a request repeating an atom adds it to the dormant mirror once *)
  let reg = Registry.create () in
  let session = registry_inline_session reg closure_program in
  let dup = parse_atom_exn {|e("c", "d")|} in
  (match Registry.update_facts reg session `Add [ dup; dup ] with
  | Ok upd -> check int' "repeated atom counted once" 1 upd.Ekg_engine.Chase.upd_added
  | Error e -> Alcotest.failf "add: %s" (Ekg_engine.Chase.error_to_string e));
  check int' "mirror holds it once" 3 (List.length (current reg session).Registry.edb);
  match Registry.update_facts reg session `Add [ dup ] with
  | Ok upd -> check int' "re-adding is a no-op" 0 upd.Ekg_engine.Chase.upd_added
  | Error e -> Alcotest.failf "re-add: %s" (Ekg_engine.Chase.error_to_string e)

(* The dormant mirror edit against the list code it replaced, kept here
   as the reference: for random batches — repeats, re-adds, numerically
   equal [Int]/[Num] atoms, retractions of missing atoms — the mirror
   (order and representation), the counts and the error agree. *)
let reference_mirror_edit mirror op atoms =
  let open Ekg_datalog in
  match op with
  | `Add ->
    let fresh =
      List.rev
        (List.fold_left
           (fun acc a ->
             if List.exists (Atom.equal a) mirror || List.exists (Atom.equal a) acc
             then acc
             else a :: acc)
           [] atoms)
    in
    Ok (mirror @ fresh, List.length fresh, 0)
  | `Retract -> (
    match List.find_opt (fun a -> not (List.exists (Atom.equal a) mirror)) atoms with
    | Some missing ->
      Error ("fact not in the extensional database: " ^ Atom.to_string missing)
    | None ->
      let kept = List.filter (fun e -> not (List.exists (Atom.equal e) atoms)) mirror in
      Ok (kept, 0, List.length mirror - List.length kept))

let prop_dormant_mirror_edit =
  let open Ekg_datalog in
  let atom_gen =
    QCheck2.Gen.(
      map2
        (fun pred v -> Atom.make pred [ Term.cst v ])
        (oneofl [ "p"; "q" ])
        (oneof
           [
             map Ekg_kernel.Value.int (int_range 0 3);
             map (fun i -> Ekg_kernel.Value.num (float_of_int i)) (int_range 0 3);
             pure (Ekg_kernel.Value.num 1.5);
             pure (Ekg_kernel.Value.str "a");
           ]))
  in
  let gen =
    QCheck2.Gen.(
      triple (list_size (int_range 0 12) atom_gen) bool (list_size (int_range 0 8) atom_gen))
  in
  let render l = String.concat " " (List.map Atom.to_string l) in
  let print (mirror, add, atoms) =
    Printf.sprintf "mirror: %s\n%s: %s" (render mirror)
      (if add then "add" else "retract")
      (render atoms)
  in
  QCheck2.Test.make ~name:"dormant mirror edit = list reference" ~count:300 ~print gen
    (fun (mirror, add, atoms) ->
      let reg = Registry.create () in
      (* the mirror is the session's inline facts, in order, repeats
         included *)
      let session =
        registry_inline_session reg
          ("p(X) -> r(X).\nq(X) -> r(X).\n@goal(r).\n"
          ^ String.concat "" (List.map (fun a -> Atom.to_string a ^ ".\n") mirror))
      in
      let op = if add then `Add else `Retract in
      match
        (Registry.update_facts reg session op atoms, reference_mirror_edit mirror op atoms)
      with
      | Ok upd, Ok (expected, added, retracted) ->
        render (current reg session).Registry.edb = render expected
        && upd.Ekg_engine.Chase.upd_added = added
        && upd.Ekg_engine.Chase.upd_retracted = retracted
      | Error (Ekg_engine.Chase.Unknown_fact got), Error expected ->
        got = expected && render (current reg session).Registry.edb = render mirror
      | _ -> false)

(* --- persistence tier ------------------------------------------------------- *)

let with_store_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ekg_server_store_%d_%d" (Unix.getpid ())
         (Random.int 1_000_000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () -> f dir)

let open_store_exn dir =
  match Ekg_store.Store.open_dir dir with
  | Ok s -> s
  | Error e -> Alcotest.failf "open_dir: %s" e

let materialize_exn reg session =
  match Registry.materialize reg session with
  | Ok r -> r
  | Error e -> Alcotest.failf "materialize: %s" (Ekg_engine.Chase.error_to_string e)

let chase_rounds obs =
  Option.value ~default:0. (Ekg_obs.Metrics.value obs "ekg_chase_rounds_total")

let test_persistence_warm_restore_after_restart () =
  with_store_dir @@ fun dir ->
  (* first daemon lifetime: create, materialize, snapshot synchronously *)
  let fp1 =
    let st = Router.make_state ~store:(open_store_exn dir)
        ~snapshot_mode:Ekg_store.Snapshotter.Sync ()
    in
    let reg = Router.registry st in
    let session = registry_inline_session reg closure_program in
    let r = materialize_exn reg session in
    Registry.stop_persistence reg;
    Ekg_engine.Database.fingerprint r.Ekg_engine.Chase.db
  in
  (* second lifetime over the same directory: recover dormant, then a
     materialization must warm-restore — same fingerprint, zero chase
     rounds on the fresh observability registry *)
  let st2 = Router.make_state ~store:(open_store_exn dir)
      ~snapshot_mode:Ekg_store.Snapshotter.Sync ()
  in
  let reg2 = Router.registry st2 in
  let recovered, failed = Registry.recover reg2 in
  check int' "no recovery failures" 0 (List.length failed);
  check int' "one session recovered" 1 (List.length recovered);
  let session = List.hd recovered in
  check string' "same id" "s1" session.Registry.id;
  check bool' "recovered dormant" true
    (Ekg_obs.Metrics.value (Router.obs st2)
       (Ekg_obs.Metrics.name Registry.recovered_sessions_metric)
    = Some 1.);
  let r = materialize_exn reg2 session in
  check string' "restored fingerprint identical" fp1
    (Ekg_engine.Database.fingerprint r.Ekg_engine.Chase.db);
  check bool' "no chase ran" true (chase_rounds (Router.obs st2) = 0.);
  (* recovery bumped next_id past the recovered sessions *)
  let s_new = registry_inline_session reg2 closure_program in
  check string' "fresh ids allocate above recovered ones" "s2" s_new.Registry.id;
  Registry.stop_persistence reg2

let test_persistence_corrupt_snapshot_falls_back () =
  with_store_dir @@ fun dir ->
  let store = open_store_exn dir in
  let st = Router.make_state ~store ~snapshot_mode:Ekg_store.Snapshotter.Sync () in
  let reg = Router.registry st in
  let session = registry_inline_session reg closure_program in
  let fp =
    Ekg_engine.Database.fingerprint
      (materialize_exn reg session).Ekg_engine.Chase.db
  in
  Registry.stop_persistence reg;
  (* flip one byte inside the snapshot: the next lifetime must detect
     it on the warm-restore path and silently re-chase *)
  let path = Ekg_store.Store.path store "s1" in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string data in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b);
  let st2 = Router.make_state ~store:(open_store_exn dir)
      ~snapshot_mode:Ekg_store.Snapshotter.Sync ()
  in
  let reg2 = Router.registry st2 in
  (match Registry.recover reg2 with
  | [ session2 ], [] ->
    (* meta decoded (the flip landed in the materialization section) —
       restore fails, cold chase reproduces the instance *)
    let r = materialize_exn reg2 session2 in
    check string' "re-chased to the same instance" fp
      (Ekg_engine.Database.fingerprint r.Ekg_engine.Chase.db);
    check bool' "a chase really ran" true (chase_rounds (Router.obs st2) > 0.)
  | [], [ (id, _reason) ] ->
    (* the flip landed in the meta section: recovery reports it and
       carries on *)
    check string' "failure names the session" "s1" id
  | _ -> Alcotest.fail "unexpected recovery outcome");
  Registry.stop_persistence reg2

let test_persistence_earlier_engine_rechases () =
  (* a snapshot written by an engine of an earlier revision carries the
     identity that build computed — program and glossary alone — and
     is re-chased instead of warm-restored *)
  with_store_dir @@ fun dir ->
  let store = open_store_exn dir in
  let st = Router.make_state ~store ~snapshot_mode:Ekg_store.Snapshotter.Sync () in
  let reg = Router.registry st in
  let session = registry_inline_session reg closure_program in
  let fp =
    Ekg_engine.Database.fingerprint
      (materialize_exn reg session).Ekg_engine.Chase.db
  in
  Registry.stop_persistence reg;
  let pipeline = session.Registry.pipeline in
  let earlier =
    Digest.to_hex
      (Digest.string
         (Ekg_datalog.Program.to_string pipeline.Ekg_core.Pipeline.program
         ^ "\x00"
         ^ Ekg_core.Glossary.to_string pipeline.Ekg_core.Pipeline.glossary))
  in
  (match Ekg_store.Store.load store "s1" with
  | Ok snap ->
    check bool' "snapshot holds a materialization" true
      (snap.Ekg_store.Codec.mat <> None);
    (match
       Ekg_store.Store.save store { snap with Ekg_store.Codec.program_hash = earlier }
     with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "save: %s" e)
  | Error e -> Alcotest.failf "load: %s" e);
  let st2 = Router.make_state ~store:(open_store_exn dir)
      ~snapshot_mode:Ekg_store.Snapshotter.Sync ()
  in
  let reg2 = Router.registry st2 in
  (match Registry.recover reg2 with
  | [ session2 ], [] ->
    let r = materialize_exn reg2 session2 in
    check string' "re-chased to the same instance" fp
      (Ekg_engine.Database.fingerprint r.Ekg_engine.Chase.db);
    check bool' "a chase really ran" true (chase_rounds (Router.obs st2) > 0.)
  | _ -> Alcotest.fail "session not recovered");
  Registry.stop_persistence reg2

let test_persistence_lru_eviction () =
  with_store_dir @@ fun dir ->
  let obs = Ekg_obs.Metrics.create () in
  let reg =
    Registry.create ~obs ~store:(open_store_exn dir)
      ~snapshot_mode:Ekg_store.Snapshotter.Sync ~max_hot_sessions:1 ()
  in
  let s1 = registry_inline_session reg closure_program in
  let s2 = registry_inline_session reg closure_program in
  let fp1 =
    Ekg_engine.Database.fingerprint (materialize_exn reg s1).Ekg_engine.Chase.db
  in
  check int' "one hot session" 1 (Registry.hot_count reg);
  ignore (materialize_exn reg s2);
  check int' "still one hot session" 1 (Registry.hot_count reg);
  check bool' "s1 was demoted" true
    (Ekg_obs.Metrics.value obs (Ekg_obs.Metrics.name Registry.evictions_metric)
    = Some 1.);
  (* the demoted session still serves — warm-restored from its
     eviction snapshot, fingerprint-identical *)
  let rounds_before = chase_rounds obs in
  let r1' = materialize_exn reg s1 in
  check string' "demoted session restores identically" fp1
    (Ekg_engine.Database.fingerprint r1'.Ekg_engine.Chase.db);
  check bool' "restore, not re-chase" true (chase_rounds obs = rounds_before);
  check bool' "s2 demoted in turn" true
    (Ekg_obs.Metrics.value obs (Ekg_obs.Metrics.name Registry.evictions_metric)
    = Some 2.);
  Registry.stop_persistence reg

let test_router_delete_session () =
  with_store_dir @@ fun dir ->
  let store = open_store_exn dir in
  let st = Router.make_state ~store ~snapshot_mode:Ekg_store.Snapshotter.Sync () in
  create_closure_session st;
  check int' "explain before delete" 200
    (explain_path st "s1" {|path("a", "c")|}).Http.status;
  check bool' "snapshot on disk" true (Sys.file_exists (Ekg_store.Store.path store "s1"));
  let deleted =
    Router.handle st (request Http.DELETE [ "v1"; "sessions"; "s1" ])
  in
  check int' "delete is 200" 200 deleted.Http.status;
  check bool' "body confirms" true (contains deleted.Http.resp_body {|"deleted":true|});
  check bool' "snapshot removed" false
    (Sys.file_exists (Ekg_store.Store.path store "s1"));
  let again = Router.handle st (request Http.DELETE [ "v1"; "sessions"; "s1" ]) in
  check int' "second delete is 404" 404 again.Http.status;
  check bool' "stable envelope" true (envelope_code again = Some "session_not_found");
  check int' "explain after delete is 404" 404
    (explain_path st "s1" {|path("a", "c")|}).Http.status;
  Registry.stop_persistence (Router.registry st)

let test_router_delete_without_store () =
  let st = Router.make_state () in
  create_closure_session st;
  let deleted = Router.handle st (request Http.DELETE [ "v1"; "sessions"; "s1" ]) in
  check int' "delete works without persistence" 200 deleted.Http.status;
  check int' "gone" 404 (explain_path st "s1" {|path("a", "c")|}).Http.status

(* --- debug endpoints + wide events ------------------------------------------ *)

let body_json (r : Http.response) =
  match Json.parse r.Http.resp_body with
  | Ok j -> j
  | Error e -> Alcotest.failf "body is not JSON (%s): %s" e r.Http.resp_body

let create_inline_session st =
  let created =
    Router.handle st
      (request
         ~body:(Json.to_string (Json.Obj [ "program", Json.str inline_program ]))
         Http.POST [ "v1"; "sessions" ])
  in
  check int' "session created" 201 created.Http.status

let explain_inline st id =
  Router.handle st
    (request
       ~body:(Json.to_string (Json.Obj [ "query", Json.str {|control("A", "C")|} ]))
       Http.POST [ "v1"; "sessions"; id; "explain" ])

let test_debug_runtime_endpoint () =
  let st = Router.make_state () in
  let r = Router.handle st (request Http.GET [ "v1"; "debug"; "runtime" ]) in
  check int' "200" 200 r.Http.status;
  let j = body_json r in
  check bool' "uptime present" true
    (match Json.member "uptime_seconds" j with
    | Some (Json.Num u) -> u >= 0.
    | _ -> false);
  (match Json.member "gauges" j with
  | Some (Json.Arr gauges) ->
    let names =
      List.filter_map (fun g -> Json.mem_str "name" g) gauges
    in
    check bool' "gc heap gauge live" true
      (List.mem "ekg_runtime_gc_heap_words" names);
    check bool' "alloc rate gauge live" true
      (List.mem "ekg_runtime_alloc_rate_words_per_s" names)
  | _ -> Alcotest.fail "gauges array missing");
  match Json.member "log" j with
  | Some l ->
    check bool' "log level reported" true (Json.mem_str "level" l <> None);
    check bool' "slowlog threshold reported" true
      (Json.member "slowlog_threshold_ms" l <> None)
  | None -> Alcotest.fail "log block missing"

let test_debug_sessions_endpoint () =
  let st = Router.make_state () in
  create_inline_session st;
  check int' "explain ok" 200 (explain_inline st "s1").Http.status;
  let r = Router.handle st (request Http.GET [ "v1"; "debug"; "sessions" ]) in
  check int' "200" 200 r.Http.status;
  let j = body_json r in
  check bool' "count" true (Json.mem_int "count" j = Some 1);
  check bool' "hot count" true (Json.mem_int "hot" j = Some 1);
  match Json.member "sessions" j with
  | Some (Json.Arr [ s ]) ->
    check bool' "id" true (Json.mem_str "id" s = Some "s1");
    check bool' "LRU clock exposed" true
      (match Json.member "last_used_unix_s" s with
      | Some (Json.Num t) -> t > 0.
      | _ -> false)
  | _ -> Alcotest.fail "sessions array missing"

let test_debug_inflight_endpoint () =
  let st = Router.make_state () in
  let r = Router.handle st (request Http.GET [ "v1"; "debug"; "inflight" ]) in
  check int' "200" 200 r.Http.status;
  let j = body_json r in
  (* the debug request observes itself: it is registered in-flight
     before its handler runs *)
  check bool' "sees itself" true (Json.mem_int "count" j = Some 1);
  match Json.member "inflight" j with
  | Some (Json.Arr [ e ]) ->
    check bool' "method" true (Json.mem_str "method" e = Some "GET");
    check bool' "target" true
      (Json.mem_str "target" e = Some "/v1/debug/inflight");
    check bool' "trace id assigned" true (Json.mem_str "trace_id" e <> None);
    check bool' "elapsed" true
      (match Json.member "elapsed_ms" e with
      | Some (Json.Num ms) -> ms >= 0.
      | _ -> false)
  | _ -> Alcotest.fail "inflight array missing"

let test_debug_slowlog_endpoint () =
  (* threshold 0: every request qualifies as slow *)
  let log = Ekg_obs.Log.create ~slow_threshold_ms:0. () in
  let st = Router.make_state ~log () in
  check int' "probe" 200
    (Router.handle st (request Http.GET [ "v1"; "health" ])).Http.status;
  let r = Router.handle st (request Http.GET [ "v1"; "debug"; "slowlog" ]) in
  check int' "200" 200 r.Http.status;
  let j = body_json r in
  check bool' "threshold echoed" true
    (match Json.member "threshold_ms" j with
    | Some (Json.Num t) -> t = 0.
    | _ -> false);
  match Json.member "slow" j with
  | Some (Json.Arr (e :: _)) ->
    check bool' "entries are wide events" true
      (Json.mem_str "event" e = Some "request");
    check bool' "endpoint field" true (Json.mem_str "endpoint" e <> None);
    check bool' "trace id field" true (Json.mem_str "trace_id" e <> None);
    check bool' "duration field" true (Json.member "duration_ms" e <> None)
  | _ -> Alcotest.fail "no slow entries despite zero threshold"

let test_debug_unknown_404 () =
  let st = Router.make_state () in
  let r = Router.handle st (request Http.GET [ "v1"; "debug"; "nonsense" ]) in
  check int' "404" 404 r.Http.status;
  check bool' "envelope code" true (envelope_code r = Some "not_found");
  let bad_method =
    Router.handle st (request Http.POST [ "v1"; "debug"; "runtime" ])
  in
  check int' "405 on known debug path" 405 bad_method.Http.status;
  check bool' "method_not_allowed code" true
    (envelope_code bad_method = Some "method_not_allowed")

(* one canonical JSONL record per request, stable field set *)
let wide_event_keys =
  [
    "ts"; "level"; "event"; "duration_ms"; "trace_id"; "method"; "target";
    "endpoint"; "status"; "error_code"; "queue_wait_ms"; "session";
    "cache_hit"; "degraded"; "chase_source"; "chase_rounds"; "chase_facts";
    "plan_reorders"; "snapshot_scheduled"; "shed";
    "gc_minor_collections";
    "gc_major_collections"; "gc_promoted_words"; "gc_minor_words";
  ]

let capturing_state () =
  let lines = ref [] in
  let log =
    Ekg_obs.Log.create ~level:Ekg_obs.Log.Debug
      ~sink:(fun l -> lines := l :: !lines)
      ()
  in
  let st = Router.make_state ~log () in
  st, fun () -> List.rev !lines

let test_wide_event_per_request () =
  let st, lines = capturing_state () in
  let resp =
    Router.handle ~queue_wait_s:0.25 st (request Http.GET [ "v1"; "health" ])
  in
  (match lines () with
  | [ line ] ->
    let j =
      match Json.parse line with
      | Ok j -> j
      | Error e -> Alcotest.failf "wide event is not JSON (%s): %s" e line
    in
    List.iter
      (fun k -> check bool' ("field " ^ k) true (Json.member k j <> None))
      wide_event_keys;
    check bool' "event name" true (Json.mem_str "event" j = Some "request");
    check bool' "status" true (Json.mem_int "status" j = Some 200);
    check bool' "endpoint label" true
      (Json.mem_str "endpoint" j = Some "GET /v1/health");
    check bool' "queue wait propagated" true
      (match Json.member "queue_wait_ms" j with
      | Some (Json.Num ms) -> Float.abs (ms -. 250.) < 1e-6
      | _ -> false);
    check bool' "trace id matches the response header" true
      (Json.mem_str "trace_id" j = resp_header resp "X-Ekg-Trace-Id");
    check bool' "no error code on success" true
      (Json.mem_str "error_code" j = Some "")
  | l -> Alcotest.failf "expected exactly one wide event, got %d" (List.length l));
  ignore resp

let test_wide_event_chase_fields () =
  let st, lines = capturing_state () in
  create_inline_session st;
  check int' "explain ok" 200 (explain_inline st "s1").Http.status;
  check int' "explain again (hot)" 200 (explain_inline st "s1").Http.status;
  let missing = Router.handle st (request Http.GET [ "v1"; "nope" ]) in
  check int' "404" 404 missing.Http.status;
  match List.map (fun l -> Json.parse l) (lines ()) with
  | [ Ok created; Ok explained; Ok warm; Ok notfound ] ->
    check bool' "one event per request" true
      (List.for_all
         (fun j -> Json.mem_str "event" j = Some "request")
         [ created; explained; warm; notfound ]);
    check bool' "explain carries the session" true
      (Json.mem_str "session" explained = Some "s1");
    check bool' "cold explain chased" true
      (Json.mem_str "chase_source" explained = Some "chased");
    check bool' "chase rounds counted" true
      (match Json.mem_int "chase_rounds" explained with
      | Some n -> n > 0
      | None -> false);
    check bool' "chase facts counted" true
      (match Json.mem_int "chase_facts" explained with
      | Some n -> n > 0
      | None -> false);
    check bool' "explain events claim no cache hit" true
      (Json.mem_bool "cache_hit" explained = Some false
      && Json.mem_bool "cache_hit" warm = Some false);
    check bool' "warm explain reads the kept materialization" true
      (Json.mem_str "chase_source" warm = Some "hot");
    check bool' "404 level is warn" true
      (Json.mem_str "level" notfound = Some "warn");
    check bool' "404 error code" true
      (Json.mem_str "error_code" notfound = Some "not_found")
  | l -> Alcotest.failf "expected 4 wide events, got %d" (List.length l)

(* A cold chase opens one span per stratum, labelled with the stratum
   index and the rounds it ran, and with nothing else *)
let test_chase_span_stratum_labels () =
  let st = Router.make_state () in
  create_inline_session st;
  check int' "explain ok" 200 (explain_inline st "s1").Http.status;
  let trace =
    Router.handle st (request Http.GET [ "v1"; "sessions"; "s1"; "trace" ])
  in
  check int' "trace served" 200 trace.Http.status;
  let rec strata (j : Json.t) =
    match j with
    | Json.Obj fields ->
      let here =
        match Json.mem_str "name" j, Json.member "labels" j with
        | Some "chase.stratum", Some (Json.Obj labels) ->
          [ List.sort compare (List.map fst labels) ]
        | _ -> []
      in
      here @ List.concat_map (fun (_, v) -> strata v) fields
    | Json.Arr items -> List.concat_map strata items
    | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ -> []
  in
  match Json.parse trace.Http.resp_body with
  | Error e -> Alcotest.failf "trace body: %s" e
  | Ok j ->
    let spans = strata j in
    check bool' "chase.stratum spans recorded" true (spans <> []);
    List.iter
      (fun keys ->
        check (Alcotest.list string') "stratum span labels" [ "rounds"; "stratum" ] keys)
      spans

(* the chase is sequential: [~chase_domains:1] serves as before, any
   other value is refused before a registry exists *)
let test_chase_domains_shim () =
  (match Router.make_state ~chase_domains:2 () with
  | exception Invalid_argument msg ->
    check bool' "message says the chase is sequential" true (contains msg "sequential")
  | _ -> Alcotest.fail "~chase_domains:2 accepted");
  let st = Router.make_state ~chase_domains:1 () in
  create_inline_session st;
  check int' "explain ok at ~chase_domains:1" 200 (explain_inline st "s1").Http.status

(* Every fact update logs its path, its phases and what its
   re-derivation cost.  Close link re-derives by head-bound probes; a
   retraction that enables a negated rule re-evaluates that rule in
   full; an
   existential head re-chases; a dormant session edits its mirror. *)
let test_wide_event_update_fields () =
  let st, lines = capturing_state () in
  let session program =
    let created =
      Router.handle st
        (request
           ~body:(Json.to_string (Json.Obj [ "program", Json.str program ]))
           Http.POST [ "v1"; "sessions" ])
    in
    check int' "session created" 201 created.Http.status;
    match Json.mem_str "id" (body_json created) with
    | Some id -> id
    | None -> Alcotest.fail "no session id"
  in
  let materialize id =
    check int' "materialized" 200
      (Router.handle st (request Http.GET [ "v1"; "sessions"; id; "fingerprint" ]))
        .Http.status
  in
  let update meth id fact =
    let r =
      Router.handle st
        (request
           ~body:(Json.to_string (Json.Obj [ "facts", Json.Arr [ Json.str fact ] ]))
           meth [ "v1"; "sessions"; id; "facts" ])
    in
    check int' ("update " ^ fact) 200 r.Http.status;
    match List.rev (lines ()) with
    | line :: _ -> (
      match Json.parse line with
      | Ok j -> j
      | Error e -> Alcotest.failf "wide event is not JSON (%s): %s" e line)
    | [] -> Alcotest.fail "no wide event"
  in
  let has_ms k j =
    match Json.member k j with Some (Json.Num ms) -> ms >= 0. | _ -> false
  in
  let close_link =
    session
      {|
cl1: own(X, Y, W) -> pathOwn(X, Y, W).
cl2: pathOwn(X, Z, W1), own(Z, Y, W2), W = W1 * W2, W >= 0.01 -> pathOwn(X, Y, W).
cl3: pathOwn(X, Y, W), W >= 0.2 -> closeLink(X, Y).
@goal(closeLink).
own("A", "B", 0.5). own("B", "C", 0.6). own("A", "C", 0.3).
|}
  in
  materialize close_link;
  let j = update Http.DELETE close_link {|own("B", "C", 0.6)|} in
  check bool' "close link: incremental" true (Json.mem_str "update_path" j = Some "incremental");
  check bool' "close link: over-deleted" true
    (match Json.mem_int "facts_overdeleted" j with Some n -> n >= 1 | None -> false);
  check bool' "close link: no full pass" true (Json.mem_int "full_passes" j = Some 0);
  List.iter
    (fun k -> check bool' ("close link: " ^ k) true (has_ms k j))
    [ "update_copy_ms"; "update_apply_ms"; "update_cone_ms"; "update_rounds_ms";
      "update_mirror_ms" ];
  let num k = match Json.member k j with Some (Json.Num ms) -> ms | _ -> nan in
  check bool' "close link: cone and rounds inside apply" true
    (num "update_cone_ms" +. num "update_rounds_ms" <= num "update_apply_ms" +. 1e-3);
  let negation =
    session
      {|
cand(X), not blocked(X) -> winner(X).
block(X) -> blocked(X).
@goal(winner).
cand("x"). block("x").
|}
  in
  materialize negation;
  let j = update Http.DELETE negation {|block("x")|} in
  check bool' "negation: incremental" true (Json.mem_str "update_path" j = Some "incremental");
  check bool' "negation: the enabled rule's full pass" true
    (match Json.mem_int "full_passes" j with Some n -> n >= 1 | None -> false);
  let existential =
    session
      {|
emp(X) -> worksFor(X, D).
worksFor(X, D) -> staffed(X).
@goal(staffed).
emp("a"). emp("b").
|}
  in
  materialize existential;
  let j = update Http.DELETE existential {|emp("b")|} in
  check bool' "existential head: rechase" true (Json.mem_str "update_path" j = Some "rechase");
  check bool' "existential head: not incremental" true
    (Json.mem_bool "incremental" j = Some false);
  let dormant = session "e(X, Y) -> path(X, Y).\n@goal(path).\ne(\"a\", \"b\").\n" in
  let j = update Http.POST dormant {|e("b", "c")|} in
  check bool' "dormant" true (Json.mem_str "update_path" j = Some "dormant");
  check bool' "dormant: one fact added" true (Json.mem_int "facts_added" j = Some 1);
  check bool' "dormant: mirror edit timed" true (has_ms "update_mirror_ms" j)

(* --- goal-directed query lane ------------------------------------------------ *)

let query_get st id params =
  Router.handle st (request ~query:params Http.GET [ "v1"; "sessions"; id; "query" ])

let test_query_answers_and_bindings () =
  let st = Router.make_state () in
  create_closure_session st;
  let r = query_get st "s1" [ "query", {|path("a", X)|} ] in
  check int' "query ok" 200 r.Http.status;
  let j = json_of r in
  check bool' "magic lane" true (Json.mem_str "mode" j = Some "magic");
  check bool' "both reachable nodes" true (Json.mem_int "total" j = Some 2);
  check bool' "cold" true (Json.mem_bool "cached" j = Some false);
  check bool' "answer facts rendered" true
    (contains r.Http.resp_body {|path(\"a\", \"b\")|}
    || contains r.Http.resp_body {|path("a", "b")|});
  check bool' "free variable bound in answers" true
    (contains r.Http.resp_body {|"X":|});
  (* the POST body form is the same endpoint *)
  let p =
    Router.handle st
      (request ~body:{|{"query":"path(\"a\", X)","limit":1}|} Http.POST
         [ "v1"; "sessions"; "s1"; "query" ])
  in
  check int' "post form ok" 200 p.Http.status;
  let pj = json_of p in
  check bool' "post sees the same total" true (Json.mem_int "total" pj = Some 2);
  (* a ground query has exactly one answer *)
  let g = query_get st "s1" [ "query", {|path("a", "c")|} ] in
  check bool' "ground query answered" true
    (Json.mem_int "total" (json_of g) = Some 1);
  (* an extensional predicate is answered by EDB scan, no chase at all *)
  let e = query_get st "s1" [ "query", {|e("a", X)|} ] in
  check bool' "edb lane for extensional predicates" true
    (Json.mem_str "mode" (json_of e) = Some "edb")

let test_query_pagination () =
  let st = Router.make_state () in
  create_closure_session st;
  let page1 =
    json_of (query_get st "s1" [ "query", {|path("a", X)|}; "limit", "1" ])
  in
  check bool' "total unaffected by limit" true (Json.mem_int "total" page1 = Some 2);
  let page_obj j = Option.get (Json.member "page" j) in
  check bool' "first page cursor" true
    (Json.mem_str "cursor" (page_obj page1) = Some "0");
  check bool' "next cursor points at the second answer" true
    (Json.mem_str "next_cursor" (page_obj page1) = Some "1");
  let page2 =
    json_of
      (query_get st "s1"
         [ "query", {|path("a", X)|}; "limit", "1"; "cursor", "1" ])
  in
  check bool' "last page has no next cursor" true
    (Json.mem_str "next_cursor" (page_obj page2) = None);
  (* the two pages carry distinct answers, in canonical order *)
  let first_fact j =
    match Option.bind (Json.member "answers" j) Json.get_arr with
    | Some (a :: _) -> Json.mem_str "fact" a
    | _ -> None
  in
  check bool' "pages disjoint and ordered" true
    (first_fact page1 < first_fact page2);
  let bad_cursor =
    query_get st "s1" [ "query", {|path("a", X)|}; "cursor", "x" ]
  in
  check int' "invalid cursor rejected" 400 bad_cursor.Http.status;
  check bool' "invalid_request code" true
    (envelope_code bad_cursor = Some "invalid_request");
  check int' "zero limit rejected" 400
    (query_get st "s1" [ "query", {|path("a", X)|}; "limit", "0" ]).Http.status

let test_query_invalid_atoms () =
  let st = Router.make_state () in
  create_closure_session st;
  let missing = query_get st "s1" [] in
  check int' "missing query" 400 missing.Http.status;
  check bool' "missing query is invalid_request" true
    (envelope_code missing = Some "invalid_request");
  let broken = query_get st "s1" [ "query", "broken(" ] in
  check int' "unparsable atom" 400 broken.Http.status;
  check bool' "invalid_atom code" true (envelope_code broken = Some "invalid_atom");
  let unknown = query_get st "s1" [ "query", {|zzz("q")|} ] in
  check int' "unknown predicate" 400 unknown.Http.status;
  check bool' "unknown predicate is invalid_atom" true
    (envelope_code unknown = Some "invalid_atom");
  check int' "bad explain mode" 400
    (query_get st "s1" [ "query", {|path("a", X)|}; "explain", "bogus" ])
      .Http.status;
  check int' "bad strategy" 400
    (query_get st "s1" [ "query", {|path("a", X)|}; "strategy", "bogus" ])
      .Http.status;
  (* satellite consistency: GET explain speaks the same grammar and the
     same error vocabulary *)
  let explain_broken =
    Router.handle st
      (request ~query:[ "query", "broken(" ] Http.GET
         [ "v1"; "sessions"; "s1"; "explain" ])
  in
  check int' "GET explain rejects the same atom" 400 explain_broken.Http.status;
  check bool' "with the same code" true
    (envelope_code explain_broken = Some "invalid_atom")

let test_query_cache_semantics () =
  let st = Router.make_state () in
  create_closure_session st;
  let ask () = json_of (query_get st "s1" [ "query", {|path("a", X)|} ]) in
  let cold = ask () in
  check bool' "cold: rewrite computed" true
    (Json.mem_bool "rewrite_cached" cold = Some false);
  check bool' "cold: answers computed" true
    (Json.mem_bool "cached" cold = Some false);
  let warm = ask () in
  check bool' "warm: rewrite reused" true
    (Json.mem_bool "rewrite_cached" warm = Some true);
  check bool' "warm: answers reused" true
    (Json.mem_bool "cached" warm = Some true);
  (* same shape, different constant: the specialization is shared, the
     answer set is not *)
  let sibling = json_of (query_get st "s1" [ "query", {|path("b", X)|} ]) in
  check bool' "sibling shape: rewrite reused" true
    (Json.mem_bool "rewrite_cached" sibling = Some true);
  check bool' "sibling shape: answers computed" true
    (Json.mem_bool "cached" sibling = Some false);
  (* a fact update must invalidate cached answers for touched predicates *)
  let added =
    Router.handle st
      (request ~body:{|{"facts":["e(\"c\", \"d\")"]}|} Http.POST
         [ "v1"; "sessions"; "s1"; "facts" ])
  in
  check int' "edge added" 200 added.Http.status;
  let refreshed = ask () in
  check bool' "update evicted the cached answers" true
    (Json.mem_bool "cached" refreshed = Some false);
  check bool' "and the new consequence appears" true
    (Json.mem_int "total" refreshed = Some 3);
  (* retraction invalidates too *)
  let removed =
    Router.handle st
      (request ~body:{|{"facts":["e(\"b\", \"c\")"]}|} Http.DELETE
         [ "v1"; "sessions"; "s1"; "facts" ])
  in
  check int' "edge removed" 200 removed.Http.status;
  let shrunk = ask () in
  check bool' "retraction evicted the cached answers" true
    (Json.mem_bool "cached" shrunk = Some false);
  check bool' "the broken chain is gone" true
    (Json.mem_int "total" shrunk = Some 1);
  (* the lane's counter series advanced *)
  let prom =
    Router.handle st
      (request ~query:[ "format", "prometheus" ] Http.GET [ "v1"; "metrics" ])
  in
  let advanced name =
    contains prom.Http.resp_body name
    && not (contains prom.Http.resp_body (name ^ " 0\n"))
  in
  check bool' "requests counted" true (advanced "ekg_query_requests_total");
  check bool' "rewrite hits counted" true
    (advanced "ekg_query_rewrite_cache_hits_total");
  check bool' "answer hits counted" true
    (advanced "ekg_query_answer_cache_hits_total");
  check bool' "invalidations counted" true
    (advanced "ekg_query_cache_invalidations_total")

let test_query_dormant_stays_dormant () =
  (* the whole point of the lane: a point query against a session whose
     materialization was never built must not build (or wait on) it *)
  let obs = Ekg_obs.Metrics.create () in
  let reg = Registry.create ~obs () in
  let session = registry_inline_session reg closure_program in
  (match Registry.query reg session (parse_atom_exn {|path("a", X)|}) with
  | Ok o ->
    check int' "two answers" 2
      (List.length o.Registry.qo_result.Ekg_core.Pipeline.q_answers)
  | Error _ -> Alcotest.fail "query failed");
  check bool' "no materialization was built" true ((current reg session).Registry.chase = None);
  check bool' "no full-chase cache traffic" true
    (session_cache_counts obs = (0, 0));
  (* and through the router: a query then a session listing shows the
     chase still cold *)
  let st = Router.make_state () in
  create_closure_session st;
  check int' "routed query ok" 200
    (query_get st "s1" [ "query", {|path("a", X)|} ]).Http.status;
  let sessions = Router.handle st (request Http.GET [ "v1"; "sessions" ]) in
  check bool' "listing shows the chase was never run" true
    (contains sessions.Http.resp_body {|"chase_cached":false|})

let test_query_explain_modes () =
  let st = Router.make_state () in
  create_closure_session st;
  let none = query_get st "s1" [ "query", {|path("a", X)|} ] in
  check bool' "no explanation by default" true
    (not (contains none.Http.resp_body {|"explanation"|}));
  let full =
    query_get st "s1" [ "query", {|path("a", X)|}; "explain", "full" ]
  in
  check int' "full mode ok" 200 full.Http.status;
  check bool' "answers carry template explanations" true
    (contains full.Http.resp_body {|"explanation"|}
    && contains full.Http.resp_body {|"proof_steps"|}
    && contains full.Http.resp_body {|"text"|});
  let skeleton =
    query_get st "s1" [ "query", {|path("a", X)|}; "explain", "skeleton" ]
  in
  check int' "skeleton mode ok" 200 skeleton.Http.status;
  check bool' "skeleton still proves" true
    (contains skeleton.Http.resp_body {|"deterministic_text"|})

let test_query_deadline_504 () =
  let st = Router.make_state ~fault:(Fault.Slow_chase 5.0) () in
  create_closure_session st;
  let t0 = Unix.gettimeofday () in
  let r =
    Router.handle st
      (request
         ~headers:[ "x-ekg-deadline-ms", "50" ]
         ~query:[ "query", {|path("a", X)|} ]
         Http.GET
         [ "v1"; "sessions"; "s1"; "query" ])
  in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  check int' "504" 504 r.Http.status;
  check bool' "deadline_exceeded code" true
    (envelope_code r = Some "deadline_exceeded");
  check bool' "retryable" true (envelope_retryable r = Some true);
  check bool' "partial chase stats in detail" true
    (contains r.Http.resp_body {|"detail"|}
    && contains r.Http.resp_body {|"rounds"|}
    && contains r.Http.resp_body {|"elapsed_ms"|});
  check bool' "answered near the deadline, not the fault window" true
    (elapsed_ms < 1000.);
  (* a failed run is not cached: the roomy retry recomputes and succeeds *)
  let retry =
    Router.handle st
      (request
         ~headers:[ "x-ekg-deadline-ms", "30000" ]
         ~query:[ "query", {|path("a", X)|} ]
         Http.GET
         [ "v1"; "sessions"; "s1"; "query" ])
  in
  check int' "roomy retry succeeds" 200 retry.Http.status;
  check bool' "and is not served from a cache" true
    (Json.mem_bool "cached" (json_of retry) = Some false)

let test_query_wide_events () =
  let st, lines = capturing_state () in
  create_closure_session st;
  check int' "cold query" 200
    (query_get st "s1" [ "query", {|path("a", X)|} ]).Http.status;
  check int' "warm query" 200
    (query_get st "s1" [ "query", {|path("a", X)|} ]).Http.status;
  match List.map (fun l -> Json.parse l) (lines ()) with
  | [ Ok _created; Ok cold; Ok warm ] ->
    List.iter
      (fun k ->
        check bool' ("cold query field " ^ k) true (Json.member k cold <> None))
      wide_event_keys;
    check bool' "cold query ran the magic lane" true
      (Json.mem_str "chase_source" cold = Some "magic");
    check bool' "cold query is not a cache hit" true
      (Json.mem_bool "cache_hit" cold = Some false);
    check bool' "scoped chase counted its facts" true
      (match Json.mem_int "chase_facts" cold with Some n -> n > 0 | None -> false);
    check bool' "warm query hits the answer cache" true
      (Json.mem_bool "cache_hit" warm = Some true)
  | l -> Alcotest.failf "expected 3 wide events, got %d" (List.length l)

(* --- the materialized lane ---------------------------------------------------- *)

let answer_facts j =
  List.filter_map (Json.mem_str "fact")
    (Option.value ~default:[] (Option.bind (Json.member "answers" j) Json.get_arr))

let answer_texts j =
  List.filter_map
    (fun a -> Option.bind (Json.member "explanation" a) (Json.mem_str "text"))
    (Option.value ~default:[] (Option.bind (Json.member "answers" j) Json.get_arr))

let get_explain st id query =
  Router.handle st
    (request ~query:[ "query", query ] Http.GET [ "v1"; "sessions"; id; "explain" ])

let mode_of j = Option.value ~default:"" (Json.mem_str "mode" j)

let test_query_lane_switch () =
  let st, lines = capturing_state () in
  create_closure_session st;
  let ask () = json_of (query_get st "s1" [ "query", {|path("a", X)|} ]) in
  let dormant = ask () in
  check string' "dormant session: magic lane" "magic" (mode_of dormant);
  check int' "GET explain materializes" 200
    (get_explain st "s1" {|path("a", "c")|}).Http.status;
  let hot = ask () in
  check string' "hot session: materialized lane" "materialized" (mode_of hot);
  check bool' "same total" true
    (Json.mem_int "total" hot = Json.mem_int "total" dormant);
  check Alcotest.(list string) "same answers" (answer_facts dormant) (answer_facts hot);
  check bool' "no rounds" true (Json.mem_int "rounds" hot = Some 0);
  check bool' "no derived facts" true (Json.mem_int "derived_facts" hot = Some 0);
  check bool' "not a cache hit" true (Json.mem_bool "cached" hot = Some false);
  (* live updates reach the hot answer: the lookup reads the published
     materialization *)
  check int' "edge added" 200
    (Router.handle st
       (request ~body:{|{"facts":["e(\"c\", \"d\")"]}|} Http.POST
          [ "v1"; "sessions"; "s1"; "facts" ]))
      .Http.status;
  let grown = ask () in
  check string' "still materialized" "materialized" (mode_of grown);
  check bool' "the new consequence appears" true (Json.mem_int "total" grown = Some 3);
  check int' "edge removed" 200
    (Router.handle st
       (request ~body:{|{"facts":["e(\"b\", \"c\")"]}|} Http.DELETE
          [ "v1"; "sessions"; "s1"; "facts" ]))
      .Http.status;
  let shrunk = ask () in
  check Alcotest.(list string) "the broken chain is gone"
    [ {|path("a", "b")|} ] (answer_facts shrunk);
  let unknown = query_get st "s1" [ "query", {|zzz("q")|} ] in
  check int' "unknown predicate on a hot session" 400 unknown.Http.status;
  check bool' "still invalid_atom" true (envelope_code unknown = Some "invalid_atom");
  (* only the materialized lane advances its series, and it leaves the
     dormant lane's cache counters alone *)
  let obs = Router.obs st in
  let value family =
    Option.value ~default:0.
      (Ekg_obs.Metrics.value obs (Ekg_obs.Metrics.name family))
  in
  check (Alcotest.float 0.) "three lookups" 3. (value Registry.query_materialized_metric);
  check (Alcotest.float 0.) "one rewrite miss, from the dormant query" 1.
    (value Registry.query_rewrite_misses_metric);
  check (Alcotest.float 0.) "one answer miss, from the dormant query" 1.
    (value Registry.query_answer_misses_metric);
  check (Alcotest.float 0.) "no answer hits" 0. (value Registry.query_answer_hits_metric);
  let events = List.filter_map (fun l -> Result.to_option (Json.parse l)) (lines ()) in
  match
    List.filter
      (fun j -> Json.mem_str "endpoint" j = Some "GET /v1/sessions/:id/query")
      events
  with
  | _dormant :: hot_event :: _ ->
    check bool' "wide event: materialized source" true
      (Json.mem_str "chase_source" hot_event = Some "materialized");
    check bool' "wide event: no rounds" true
      (Json.mem_int "chase_rounds" hot_event = Some 0);
    check bool' "wide event: not a cache hit" true
      (Json.mem_bool "cache_hit" hot_event = Some false)
  | _ -> Alcotest.fail "expected the query wide events"

let test_query_hot_session_runs_no_chase () =
  (* the fault stretches every chase to 5 s; a hot session's query runs
     none, so a 50 ms deadline holds (the dormant 504 is
     [test_query_deadline_504]) *)
  with_store_dir @@ fun dir ->
  (* a cold chase under the fault would pay it too: materialize without
     it, then warm-restore that snapshot under it, which runs no chase *)
  (let plain =
     Router.make_state ~store:(open_store_exn dir)
       ~snapshot_mode:Ekg_store.Snapshotter.Sync ()
   in
   let reg = Router.registry plain in
   create_closure_session plain;
   ignore (materialize_exn reg (Option.get (Registry.find reg "s1")));
   Registry.stop_persistence reg);
  let st =
    Router.make_state ~fault:(Fault.Slow_chase 5.0) ~store:(open_store_exn dir)
      ~snapshot_mode:Ekg_store.Snapshotter.Sync ()
  in
  Fun.protect ~finally:(fun () -> Registry.stop_persistence (Router.registry st)) @@ fun () ->
  ignore (Registry.recover (Router.registry st));
  let session = Option.get (Registry.find (Router.registry st) "s1") in
  ignore (materialize_exn (Router.registry st) session);
  let t0 = Unix.gettimeofday () in
  let r =
    Router.handle st
      (request
         ~headers:[ "x-ekg-deadline-ms", "50" ]
         ~query:[ "query", {|path("a", X)|} ]
         Http.GET
         [ "v1"; "sessions"; "s1"; "query" ])
  in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  check int' "200 within the deadline" 200 r.Http.status;
  check string' "materialized lane" "materialized" (mode_of (json_of r));
  check bool' "answered without the fault window" true (elapsed_ms < 1000.)

let test_query_evicted_session_back_to_magic () =
  with_store_dir @@ fun dir ->
  let st =
    Router.make_state ~store:(open_store_exn dir)
      ~snapshot_mode:Ekg_store.Snapshotter.Sync ~max_hot_sessions:1 ()
  in
  create_closure_session st;
  create_closure_session st;
  let mode id = mode_of (json_of (query_get st id [ "query", {|path("a", X)|} ])) in
  check int' "s1 explained" 200 (get_explain st "s1" {|path("a", "c")|}).Http.status;
  check string' "hot s1: materialized" "materialized" (mode "s1");
  check int' "s2 explained" 200 (get_explain st "s2" {|path("a", "c")|}).Http.status;
  check string' "evicted s1: magic again" "magic" (mode "s1");
  check string' "hot s2: materialized" "materialized" (mode "s2");
  Registry.stop_persistence (Router.registry st)

let test_query_cache_keeps_no_instance () =
  (* a cached answer set must not pin its scoped instance, whose
     database copies the whole EDB; explanations then re-run the chase *)
  let st = Router.make_state () in
  create_closure_session st;
  let ask params = json_of (query_get st "s1" (("query", {|path("a", X)|}) :: params)) in
  let first = ask [ "explain", "full" ] in
  check int' "two explained answers" 2 (List.length (answer_texts first));
  check bool' "plain re-query is cached" true (Json.mem_bool "cached" (ask []) = Some true);
  let again = ask [ "explain", "full" ] in
  check bool' "explained re-query recomputes" true
    (Json.mem_bool "cached" again = Some false);
  check Alcotest.(list string) "same explanations" (answer_texts first) (answer_texts again);
  let session = Option.get (Registry.find (Router.registry st) "s1") in
  let entries =
    Hashtbl.fold
      (fun _ answers acc -> Hashtbl.fold (fun _ c acc -> c :: acc) answers acc)
      session.Registry.answers []
  in
  check bool' "answers cached" true (entries <> []);
  List.iter
    (fun (c : Registry.cached_answers) ->
      check bool' "no scoped instance cached" true
        (Option.is_none c.Registry.ca_result.Ekg_core.Pipeline.q_scoped))
    entries

let test_query_hot_lookup_races_updates () =
  (* the lookup runs off the session lock on the published result; a
     writer domain swapping in updated copies meanwhile must never let
     a reader see anything but a whole generation *)
  let reg = Registry.create () in
  let session = registry_inline_session reg closure_program in
  ignore (materialize_exn reg session);
  let cd = parse_atom_exn {|e("c", "d")|} and q = parse_atom_exn {|path("a", X)|} in
  let facts () =
    match Registry.query reg session q with
    | Ok o ->
      let r = o.Registry.qo_result in
      ( r.Ekg_core.Pipeline.q_mode,
        List.map
          (fun (qa : Ekg_core.Pipeline.query_answer) ->
            Ekg_engine.Fact.to_string qa.Ekg_core.Pipeline.qa_fact)
          r.Ekg_core.Pipeline.q_answers )
    | Error _ -> Alcotest.fail "hot query failed"
  in
  let before = [ {|path("a", "b")|}; {|path("a", "c")|} ] in
  let after = before @ [ {|path("a", "d")|} ] in
  let finished = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () ->
            for _ = 1 to 100 do
              List.iter
                (fun op ->
                  (match Registry.update_facts reg session op [ cd ] with
                  | Ok _ -> ()
                  | Error e -> failwith (Ekg_engine.Chase.error_to_string e));
                  (* leave readers a window on each generation *)
                  Unix.sleepf 0.0002)
                [ `Add; `Retract ]
            done))
  in
  let torn = ref 0 and saw_after = ref false in
  while not (Atomic.get finished) do
    let mode, answers = facts () in
    if answers = after then saw_after := true;
    if mode <> `Materialized || (answers <> before && answers <> after) then incr torn
  done;
  Domain.join writer;
  check int' "every read saw a whole generation on the lookup" 0 !torn;
  check bool' "reads overlapped the updates" true !saw_after;
  check bool' "ends where it started" true (snd (facts ()) = before)

(* An explanation reads the published materialization off the session
   lock while a writer domain swaps in updated copies: every response
   must be one the session served at rest, without or with the edge *)
let test_explain_races_updates () =
  let st = Router.make_state () in
  create_closure_session st;
  let reg = Router.registry st in
  let session = Option.get (Registry.find reg "s1") in
  let cd = parse_atom_exn {|e("c", "d")|} in
  let update op =
    match Registry.update_facts reg session op [ cd ] with
    | Ok _ -> ()
    | Error e -> failwith (Ekg_engine.Chase.error_to_string e)
  in
  let texts () =
    let r = get_explain st "s1" {|path("a", X)|} in
    ( r.Http.status,
      List.filter_map (Json.mem_str "text")
        (Option.value ~default:[]
           (Option.bind (Json.member "explanations" (json_of r)) Json.get_arr)) )
  in
  let _, without = texts () in
  update `Add;
  let _, with_edge = texts () in
  update `Retract;
  check int' "two explanations without the edge" 2 (List.length without);
  check int' "three with it" 3 (List.length with_edge);
  let finished = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () ->
            for _ = 1 to 100 do
              List.iter
                (fun op ->
                  update op;
                  (* leave readers a window on each generation *)
                  Unix.sleepf 0.0002)
                [ `Add; `Retract ]
            done))
  in
  let torn = ref 0 and saw_edge = ref false in
  while not (Atomic.get finished) do
    let status, t = texts () in
    if t = with_edge then saw_edge := true;
    if status <> 200 || (t <> without && t <> with_edge) then incr torn
  done;
  Domain.join writer;
  check int' "every explanation was served at rest" 0 !torn;
  check bool' "reads overlapped the updates" true !saw_edge;
  check (Alcotest.list string') "ends where it started" without (snd (texts ()))

(* --- materialized lane = magic lane ------------------------------------------

   A hot session answers a query by a lookup on its served
   materialization, a dormant one by a scoped chase over the EDB mirror
   ({!Ekg_core.Pipeline.query}).  After any sequence of live updates the
   two must agree exactly: same rendered facts, bindings and order, for
   every query shape, and each answer's explanation must be the one
   GET /explain serves. *)

module Dl = struct
  open Ekg_datalog

  let nodes = 5
  let node i = Term.str (Printf.sprintf "n%d" (i mod nodes))

  (* ownership on a 0.1 grid up to [tenths]/10, cycles and self-stakes
     included *)
  let own ~tenths (i, j, k) =
    Atom.make "own"
      [ node i; node j; Term.num (float_of_int (1 + (k mod tenths)) /. 10.) ]

  let stress (i, j, k) =
    let v = Term.num (float_of_int (1 + (k / 4 mod 10))) in
    match k mod 4 with
    | 0 -> Atom.make "shock" [ node i; v ]
    | 1 -> Atom.make "hasCapital" [ node i; v ]
    | 2 -> Atom.make "longTermDebts" [ node i; node j; v ]
    | _ -> Atom.make "shortTermDebts" [ node i; node j; v ]

  (* the magic lane refuses existential heads and answers through its
     full fallback; the labelled nulls must render alike on both lanes *)
  let existential =
    {|
x1: own(X, Y, S), S > 0.5 -> control(X, Y).
x2: control(X, Y) -> keyPerson(Y, P).
@goal(keyPerson).
|}

  type case = {
    spec : Registry.spec;
    goal : string;
    goal_arity : int;
    edb_pred : string;
    edb_arity : int;
    fixed : Atom.t list;  (** always in the initial base *)
    fact : int * int * int -> Atom.t;
  }

  let company_control =
    {
      spec = Registry.App "company-control";
      goal = "control";
      goal_arity = 2;
      edb_pred = "own";
      edb_arity = 3;
      fixed = List.init nodes (fun i -> Atom.make "company" [ node i ]);
      fact = own ~tenths:10;
    }

  (* stakes up to 0.5 keep the integrated-participation walks short:
     around cycles of larger stakes, every query's scoped chase derives
     thousands of pathOwn products before they fall below 0.01 *)
  let close_link =
    {
      company_control with
      spec = Registry.App "close-link";
      goal = "closeLink";
      fixed = [];
      fact = own ~tenths:5;
    }

  let stress_test =
    {
      spec = Registry.App "stress-test";
      goal = "default";
      goal_arity = 1;
      edb_pred = "hasCapital";
      edb_arity = 2;
      fixed = List.init nodes (fun i -> Atom.make "hasCapital" [ node i; Term.num 5. ]);
      fact = stress;
    }

  let existential_head =
    {
      company_control with
      spec = Registry.Inline { program = existential; glossary = None };
      goal = "keyPerson";
      fixed = [];
    }

  (* every source bound in each goal position in turn, all free, and
     every source bound on one extensional predicate *)
  let queries c =
    let vars n = List.init n (fun i -> Term.var (Printf.sprintf "V%d" i)) in
    let bound_at pos i =
      List.mapi (fun p t -> if p = pos then node i else t) (vars c.goal_arity)
    in
    List.concat
      (List.init nodes (fun i ->
           Atom.make c.edb_pred (node i :: List.tl (vars c.edb_arity))
           :: List.init c.goal_arity (fun pos -> Atom.make c.goal (bound_at pos i))))
    @ [ Atom.make c.goal (vars c.goal_arity) ]

  let render (qr : Ekg_core.Pipeline.query_result) =
    List.map
      (fun (qa : Ekg_core.Pipeline.query_answer) ->
        Ekg_engine.Fact.to_string qa.Ekg_core.Pipeline.qa_fact
        ^ " "
        ^ String.concat ","
            (List.map
               (fun (v, c) -> v ^ "=" ^ Term.to_string (Term.Cst c))
               (Subst.to_list qa.Ekg_core.Pipeline.qa_binding)))
      qr.Ekg_core.Pipeline.q_answers

  let texts = function
    | Ok (e : Ekg_core.Pipeline.explanation) ->
      Some [ e.Ekg_core.Pipeline.text; e.Ekg_core.Pipeline.deterministic_text ]
    | Error _ -> None

  let check_hot reg (s : Registry.session) c =
    let s = current reg s in
    let res = Option.get s.Registry.chase in
    let pipeline = s.Registry.pipeline in
    List.iter
      (fun (q : Atom.t) ->
        let qs = Atom.to_string q in
        let hot =
          match Registry.query reg s q with
          | Ok o -> o.Registry.qo_result
          | Error _ -> QCheck2.Test.fail_reportf "%s: hot query failed" qs
        in
        if hot.Ekg_core.Pipeline.q_mode <> `Materialized then
          QCheck2.Test.fail_reportf "%s: hot session did not take the lookup" qs;
        let reference =
          match
            Ekg_core.Pipeline.specialize pipeline ~pred:q.Atom.pred
              ~mask:(Ekg_engine.Magic.adornment q)
          with
          | Error e -> QCheck2.Test.fail_reportf "%s: %s" qs e
          | Ok spec -> (
            match Ekg_core.Pipeline.query pipeline spec s.Registry.edb q with
            | Ok r -> r
            | Error e ->
              QCheck2.Test.fail_reportf "%s: %s" qs (Ekg_engine.Chase.error_to_string e))
        in
        if render hot <> render reference then
          QCheck2.Test.fail_reportf "%s:\n materialized: %s\n %s: %s" qs
            (String.concat "; " (render hot))
            (Ekg_core.Pipeline.mode_name reference.Ekg_core.Pipeline.q_mode)
            (String.concat "; " (render reference));
        List.iter
          (fun (qa : Ekg_core.Pipeline.query_answer) ->
            let served =
              match
                Ekg_core.Pipeline.explain_atom pipeline res
                  (Ekg_engine.Fact.atom qa.Ekg_core.Pipeline.qa_fact)
              with
              | Ok [ e ] -> texts (Ok e)
              | Ok _ | Error _ -> None
            in
            if texts (Ekg_core.Pipeline.explain_answer pipeline hot qa) <> served then
              QCheck2.Test.fail_reportf "%s: explanation of %s differs from GET /explain" qs
                (Ekg_engine.Fact.to_string qa.Ekg_core.Pipeline.qa_fact))
          hot.Ekg_core.Pipeline.q_answers)
      (queries c)

  let raw = QCheck2.Gen.(triple (int_bound (nodes - 1)) (int_bound (nodes - 1)) (int_bound 39))

  let print (base, ops) =
    let show (i, j, k) = Printf.sprintf "(%d,%d,%d)" i j k in
    Printf.sprintf "base [%s]; ops [%s]"
      (String.concat " " (List.map show base))
      (String.concat " "
         (List.map (fun (add, r) -> (if add then "+" else "-") ^ show r) ops))

  let prop name c =
    QCheck2.Test.make ~name:(name ^ " lookup = magic lane") ~count:40
      ~print
      QCheck2.Gen.(pair (list_size (int_range 0 10) raw) (list_size (int_range 1 5) (pair bool raw)))
      (fun (base, ops) ->
        let reg = Registry.create () in
        let s =
          match Registry.add reg c.spec with
          | Ok s -> s
          | Error e -> QCheck2.Test.fail_reportf "add: %s" e
        in
        let update op atoms =
          match Registry.update_facts reg s op atoms with
          | Ok _ -> ()
          | Error e ->
            QCheck2.Test.fail_reportf "update: %s" (Ekg_engine.Chase.error_to_string e)
        in
        (* swap the generated base in while the session is dormant *)
        update `Retract (current reg s).Registry.edb;
        update `Add (c.fixed @ List.map c.fact base);
        (match Registry.materialize reg s with
        | Ok _ -> ()
        | Error e ->
          QCheck2.Test.fail_reportf "materialize: %s" (Ekg_engine.Chase.error_to_string e));
        check_hot reg s c;
        List.iter
          (fun (add, ((i, j, k) as r)) ->
            (if add then update `Add [ c.fact r ]
             else
               match (current reg s).Registry.edb with
               | [] -> ()
               | edb -> update `Retract [ List.nth edb ((i + (nodes * j) + k) mod List.length edb) ]);
            check_hot reg s c)
          ops;
        true)
end

let dl_properties =
  List.map QCheck_alcotest.to_alcotest
    [
      Dl.prop "company control" Dl.company_control;
      Dl.prop "close link" Dl.close_link;
      Dl.prop "stress test" Dl.stress_test;
      Dl.prop "existential head" Dl.existential_head;
    ]

let test_explain_get_parity () =
  (* GET and POST explain are one lane: the same grammar, the same
     explanations in the same paged envelope *)
  let st = Router.make_state () in
  create_closure_session st;
  let get params =
    Router.handle st
      (request ~query:params Http.GET [ "v1"; "sessions"; "s1"; "explain" ])
  in
  let envelope j =
    List.filter (fun k -> Json.member k j <> None)
      [ "session"; "query"; "trace_id"; "degraded"; "total"; "page"; "explanations" ]
  in
  let g = get [ "query", {|path("a", "c")|} ] in
  check int' "GET explain ok" 200 g.Http.status;
  let p = explain_path st "s1" {|path("a", "c")|} in
  check int' "POST explain ok" 200 p.Http.status;
  check (Alcotest.list string') "GET carries the whole envelope"
    [ "session"; "query"; "trace_id"; "degraded"; "total"; "page"; "explanations" ]
    (envelope (json_of g));
  check (Alcotest.list string') "POST answers in the same envelope"
    (envelope (json_of g)) (envelope (json_of p));
  check (Alcotest.option string') "same explanations" (explanations_of g)
    (explanations_of p);
  check int' "missing query parameter" 400 (get []).Http.status;
  check int' "missing query member" 400
    (Router.handle st
       (request ~body:"{}" Http.POST [ "v1"; "sessions"; "s1"; "explain" ]))
      .Http.status;
  let bad = get [ "query", {|path("a", "c")|}; "limit", "nope" ] in
  check int' "invalid limit rejected" 400 bad.Http.status;
  check bool' "invalid_request code" true
    (envelope_code bad = Some "invalid_request");
  let bad_post =
    Router.handle st
      (request ~body:{|{"query":"path(\"a\", \"c\")","limit":0}|} Http.POST
         [ "v1"; "sessions"; "s1"; "explain" ])
  in
  check int' "POST validates limit too" 400 bad_post.Http.status;
  check bool' "as an invalid request" true
    (envelope_code bad_post = Some "invalid_request")

(* POST explain pages as GET does: on company control, control("A", X)
   matches four facts; one per page, the cursor walks GET's
   explanations in GET's order *)
let test_explain_post_pages () =
  let st = Router.make_state () in
  let created =
    Router.handle st
      (request ~body:{|{"app":"company-control"}|} Http.POST [ "v1"; "sessions" ])
  in
  check int' "created" 201 created.Http.status;
  let query = {|control("A", X)|} in
  let post ?cursor () =
    let body =
      Json.Obj
        ([ "query", Json.str query; "limit", Json.int 1 ]
        @ match cursor with None -> [] | Some c -> [ "cursor", Json.str c ])
    in
    let r =
      Router.handle st
        (request ~body:(Json.to_string body) Http.POST
           [ "v1"; "sessions"; "s1"; "explain" ])
    in
    check int' "POST explain ok" 200 r.Http.status;
    json_of r
  in
  let items j =
    Option.value ~default:[] (Option.bind (Json.member "explanations" j) Json.get_arr)
  in
  let next j = Option.bind (Json.member "page" j) (Json.mem_str "next_cursor") in
  let first = post () in
  check int' "one explanation on the page" 1 (List.length (items first));
  check (Alcotest.option int') "total counts every match" (Some 4)
    (Json.mem_int "total" first);
  check (Alcotest.option string') "next cursor" (Some "1") (next first);
  let rec follow acc j =
    match next j with
    | None -> acc
    | Some cursor ->
      let page = post ~cursor () in
      follow (acc @ items page) page
  in
  let paged = follow (items first) first in
  let all = items (json_of (get_explain st "s1" query)) in
  check int' "GET explains all four" 4 (List.length all);
  check (Alcotest.list string') "the pages are GET's explanations, in order"
    (List.map Json.to_string all)
    (List.map Json.to_string paged)

(* An explain of a predicate the program does not define is refused
   before any chase, as the query lane refuses it: GET, POST and a batch
   item answer invalid_atom, and the session stays dormant *)
let test_explain_undefined_predicate () =
  let st = Router.make_state () in
  let created =
    Router.handle st
      (request ~body:{|{"app":"company-control"}|} Http.POST [ "v1"; "sessions" ])
  in
  check int' "created" 201 created.Http.status;
  let query = {|zzz("q")|} in
  let get = get_explain st "s1" query in
  let post =
    Router.handle st
      (request
         ~body:(Json.to_string (Json.Obj [ "query", Json.str query ]))
         Http.POST [ "v1"; "sessions"; "s1"; "explain" ])
  in
  List.iter
    (fun (verb, r) ->
      check int' (verb ^ " explain answers 400") 400 r.Http.status;
      check (Alcotest.option string') (verb ^ " explain code")
        (Some "invalid_atom") (envelope_code r))
    [ "GET", get; "POST", post ];
  let batch =
    json_of
      (Router.handle st
         (request ~body:{|["zzz(\"q\")"]|} Http.POST
            [ "v1"; "sessions"; "s1"; "explain:batch" ]))
  in
  check (Alcotest.option string') "batch item code" (Some "invalid_atom")
    (match Option.bind (Json.member "items" batch) Json.get_arr with
    | Some [ item ] -> Option.bind (Json.member "error" item) (Json.mem_str "code")
    | _ -> None);
  check int' "no chase ran" 0 (snd (session_cache_counts (Router.obs st)));
  let sessions = json_of (Router.handle st (request Http.GET [ "v1"; "sessions" ])) in
  check (Alcotest.option string') "the session is still dormant" (Some "dormant")
    (match Option.bind (Json.member "sessions" sessions) Json.get_arr with
    | Some [ session ] -> Json.mem_str "tier" session
    | _ -> None)

(* legacy (pre-/v1) trace path still answers with a redirect *)
let test_legacy_trace_redirect () =
  let st = Router.make_state () in
  let r =
    Router.handle st (request Http.GET [ "sessions"; "s1"; "trace" ])
  in
  check int' "301" 301 r.Http.status;
  check bool' "location" true
    (resp_header r "Location" = Some "/v1/sessions/s1/trace")

(* --- prometheus exposition validation ---------------------------------------- *)

let float_of_prom s =
  match s with
  | "+Inf" -> Some infinity
  | "-Inf" -> Some neg_infinity
  | "NaN" -> Some Float.nan
  | s -> float_of_string_opt s

let is_metric_name s =
  s <> ""
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s
  && not (match s.[0] with '0' .. '9' -> true | _ -> false)

(* parse one sample line into (name, labels, value) or fail *)
let parse_sample_line line =
  let name_end =
    match String.index_opt line '{' with
    | Some i -> i
    | None -> (
      match String.index_opt line ' ' with
      | Some i -> i
      | None -> Alcotest.failf "no value separator: %s" line)
  in
  let name = String.sub line 0 name_end in
  if not (is_metric_name name) then Alcotest.failf "bad metric name: %s" line;
  let labels, rest =
    if name_end < String.length line && line.[name_end] = '{' then begin
      let close =
        match String.index_from_opt line name_end '}' with
        | Some i -> i
        | None -> Alcotest.failf "unclosed label set: %s" line
      in
      let raw = String.sub line (name_end + 1) (close - name_end - 1) in
      let pairs =
        if raw = "" then []
        else
          List.map
            (fun kv ->
              match String.index_opt kv '=' with
              | Some i ->
                let k = String.sub kv 0 i in
                let v = String.sub kv (i + 1) (String.length kv - i - 1) in
                if String.length v < 2 || v.[0] <> '"'
                   || v.[String.length v - 1] <> '"'
                then Alcotest.failf "unquoted label value: %s" line;
                k, String.sub v 1 (String.length v - 2)
              | None -> Alcotest.failf "label without '=': %s" line)
            (String.split_on_char ',' raw)
      in
      pairs, String.sub line (close + 1) (String.length line - close - 1)
    end
    else
      [], String.sub line name_end (String.length line - name_end)
  in
  let value =
    match String.split_on_char ' ' (String.trim rest) with
    | [ v ] | [ v; _ ] -> (
      match float_of_prom v with
      | Some f -> f
      | None -> Alcotest.failf "unparseable value %S: %s" v line)
    | _ -> Alcotest.failf "malformed sample tail: %s" line
  in
  name, labels, value

let test_prometheus_exposition_valid () =
  let st = Router.make_state () in
  create_inline_session st;
  check int' "explain ok" 200 (explain_inline st "s1").Http.status;
  ignore (Router.handle st (request Http.GET [ "v1"; "nope" ]));
  let r =
    Router.handle st
      (request ~query:[ "format", "prometheus" ] Http.GET [ "v1"; "metrics" ])
  in
  check int' "200" 200 r.Http.status;
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' r.Http.resp_body)
  in
  check bool' "non-trivial exposition" true (List.length lines > 20);
  let samples =
    List.filter_map
      (fun line ->
        if String.length line >= 6 && String.sub line 0 6 = "# HELP" then None
        else if String.length line >= 6 && String.sub line 0 6 = "# TYPE" then
          None
        else if String.length line >= 1 && line.[0] = '#' then
          Alcotest.failf "unknown comment form: %s" line
        else Some (parse_sample_line line))
      lines
  in
  check bool' "samples parsed" true (samples <> []);
  (* each family has one TYPE and one non-empty HELP line, and every
     sample belongs to a typed family, a histogram's _bucket/_sum/_count
     series to their base name *)
  let headers kind =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | "#" :: k :: name :: text when k = kind -> Some (name, String.concat " " text)
        | _ -> None)
      lines
  in
  let types = headers "TYPE" and helps = headers "HELP" in
  let lines_of name l = List.length (List.filter (fun (n, _) -> n = name) l) in
  List.iter
    (fun (name, _) ->
      check int' (name ^ " has one TYPE line") 1 (lines_of name types);
      check int' (name ^ " has one HELP line") 1 (lines_of name helps);
      check bool' (name ^ " has a non-empty HELP") true
        (List.assoc name helps <> ""))
    types;
  List.iter
    (fun (name, _) ->
      check bool' (name ^ " HELP has a TYPE") true (List.mem_assoc name types))
    helps;
  let family name =
    let strip suffix =
      let n = String.length name and k = String.length suffix in
      if n > k && String.sub name (n - k) k = suffix then
        Some (String.sub name 0 (n - k))
      else None
    in
    match List.find_map strip [ "_bucket"; "_sum"; "_count" ] with
    | Some base when List.assoc_opt base types = Some "histogram" -> base
    | _ -> name
  in
  List.iter
    (fun (name, _, _) ->
      check bool' (name ^ " belongs to a typed family") true
        (List.mem_assoc (family name) types))
    samples;
  (* every histogram's cumulative buckets must be monotone in [le],
     ending at the +Inf bucket, which must equal the _count series *)
  let bucket_suffix = "_bucket" in
  let strip_le labels = List.remove_assoc "le" labels in
  let series = Hashtbl.create 16 in
  List.iter
    (fun (name, labels, value) ->
      let nl = String.length name and sl = String.length bucket_suffix in
      if nl > sl && String.sub name (nl - sl) sl = bucket_suffix then begin
        let base = String.sub name 0 (nl - sl) in
        let key = base, List.sort compare (strip_le labels) in
        let le =
          match List.assoc_opt "le" labels with
          | Some le -> (
            match float_of_prom le with
            | Some f -> f
            | None -> Alcotest.failf "bad le bound on %s" name)
          | None -> Alcotest.failf "_bucket without le on %s" name
        in
        let prev = Option.value (Hashtbl.find_opt series key) ~default:[] in
        Hashtbl.replace series key ((le, value) :: prev)
      end)
    samples;
  check bool' "histograms present" true (Hashtbl.length series > 0);
  Hashtbl.iter
    (fun (base, labels) buckets ->
      let sorted =
        List.sort (fun (a, _) (b, _) -> Float.compare a b) buckets
      in
      let rec monotone = function
        | (_, c1) :: ((_, c2) :: _ as rest) ->
          if c1 > c2 then
            Alcotest.failf "non-monotone buckets in %s" base;
          monotone rest
        | _ -> ()
      in
      monotone sorted;
      match List.rev sorted with
      | (inf_le, inf_count) :: _ ->
        check bool' (base ^ " ends at +Inf") true (inf_le = infinity);
        let count =
          List.find_map
            (fun (name, ls, v) ->
              if name = base ^ "_count"
                 && List.sort compare ls = labels
              then Some v
              else None)
            samples
        in
        check bool' (base ^ " +Inf equals _count") true
          (count = Some inf_count)
      | [] -> ())
    series;
  (* the startup declarations: mandatory series visible with zero traffic *)
  let fresh = Router.make_state () in
  let scrape =
    Router.handle fresh
      (request ~query:[ "format", "prometheus" ] Http.GET [ "v1"; "metrics" ])
  in
  List.iter
    (fun name ->
      check bool' (name ^ " declared at startup") true
        (contains scrape.Http.resp_body name))
    [
      "ekg_chase_runs_total";
      "ekg_chase_rounds_total";
      "ekg_chase_seconds_total";
      "ekg_chase_agg_superseded_total";
      "ekg_server_shed_total";
      "ekg_request_deadline_exceeded_total";
      "ekg_lock_wait_seconds";
      "ekg_lock_hold_seconds";
      "ekg_lock_acquisitions_total";
      "ekg_lock_contended_total";
    ];
  (* the registry lock histograms carry real observations after traffic *)
  check bool' "registry lock wait histogram live" true
    (contains r.Http.resp_body {|ekg_lock_wait_seconds_count{lock="registry"}|});
  check bool' "registry lock hold histogram live" true
    (contains r.Http.resp_body {|ekg_lock_hold_seconds_count{lock="registry"}|});
  (* with a store configured the snapshotter lock + gauges are declared *)
  with_store_dir (fun dir ->
      let st = Router.make_state ~store:(open_store_exn dir) () in
      let scrape =
        Router.handle st
          (request ~query:[ "format", "prometheus" ] Http.GET
             [ "v1"; "metrics" ])
      in
      List.iter
        (fun needle ->
          check bool' (needle ^ " with store") true
            (contains scrape.Http.resp_body needle))
        [
          {|ekg_lock_wait_seconds_count{lock="snapshotter"}|};
          {|ekg_lock_hold_seconds_count{lock="snapshotter"}|};
          "ekg_store_snapshot_queue_depth";
          "ekg_store_snapshot_stall_seconds";
        ];
      Registry.stop_persistence (Router.registry st))

let help_lines ~prefix exposition =
  List.filter
    (fun line -> String.starts_with ~prefix:("# HELP " ^ prefix) line)
    (String.split_on_char '\n' exposition)

let help_family line = List.nth (String.split_on_char ' ' line) 2

(* No domain samples the runtime: a Prometheus scrape samples first, so
   every scrape shows gauges as fresh as the scrape itself. *)
let test_scrape_samples_runtime () =
  let st = Router.make_state () in
  let scrape () =
    let r =
      Router.handle st
        (request ~query:[ "format", "prometheus" ] Http.GET [ "v1"; "metrics" ])
    in
    check int' "scrape 200" 200 r.Http.status;
    let value name =
      List.find_map
        (fun line ->
          if String.starts_with ~prefix:(name ^ " ") line then
            let _, _, v = parse_sample_line line in
            Some v
          else None)
        (String.split_on_char '\n' r.Http.resp_body)
    in
    ( Option.value ~default:0. (value "ekg_runtime_samples_total"),
      value "ekg_runtime_gc_heap_words" )
  in
  let before =
    Option.value ~default:0.
      (Ekg_obs.Metrics.value (Router.obs st) "ekg_runtime_samples_total")
  in
  let first, heap1 = scrape () in
  let second, heap2 = scrape () in
  check (Alcotest.float 0.) "the first scrape sampled once" (before +. 1.) first;
  check (Alcotest.float 0.) "the second scrape sampled once" (first +. 1.) second;
  List.iter
    (fun heap ->
      check bool' "heap gauge non-zero" true
        (match heap with Some h -> h > 0. | None -> false))
    [ heap1; heap2 ]

(* The chase's families are defined once: after a materialization, the
   server renders each ekg_chase_* HELP line that a bare registry renders
   after a chase of the same program, and adds only the registry's
   fact-update series *)
let test_chase_help_lines () =
  let st = Router.make_state () in
  create_inline_session st;
  check int' "explain ok" 200 (explain_inline st "s1").Http.status;
  let server =
    help_lines ~prefix:"ekg_chase_"
      (Router.handle st
         (request ~query:[ "format", "prometheus" ] Http.GET [ "v1"; "metrics" ]))
        .Http.resp_body
  in
  let { Ekg_datalog.Parser.program; facts } = parse_exn inline_program in
  let bare = Ekg_obs.Metrics.create () in
  (match Ekg_engine.Chase.run_checked ~stats:bare program facts with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "bare chase failed");
  let bare = help_lines ~prefix:"ekg_chase_" (Ekg_obs.Metrics.to_prometheus bare) in
  check bool' "the bare chase renders its families" true (List.length bare >= 10);
  List.iter
    (fun line ->
      check (Alcotest.option string') (help_family line) (Some line)
        (List.find_opt (fun l -> help_family l = help_family line) server))
    bare;
  check (Alcotest.list string') "server-only chase families"
    (List.sort compare
       (List.map Ekg_obs.Metrics.name
          [ Registry.incremental_rounds_metric; Registry.retracted_facts_metric ]))
    (List.sort compare
       (List.filter_map
          (fun line ->
            let f = help_family line in
            if List.exists (fun l -> help_family l = f) bare then None else Some f)
          server))

(* The server records its request latencies in seconds into
   [Ekg_obs.Hist]; the quantiles it reports must hold at the edges. *)
let test_hist_edges () =
  let module Hist = Ekg_obs.Hist in
  let h = Hist.create () in
  check (Alcotest.float 0.) "empty quantile" 0. (Hist.quantile h 0.99);
  Hist.observe h 60.;  (* over the last bound: overflow bucket *)
  check (Alcotest.float 1e-6) "overflow reports observed max" 60000.
    (Hist.quantile h 0.99);
  let h2 = Hist.create () in
  Hist.observe h2 0.00002;
  (* the bound of the first bucket is 0.05 ms, but a singleton histogram
     clamps the estimate to its observed maximum *)
  check (Alcotest.float 1e-6) "tiny latency clamps to observed max" 0.02
    (Hist.quantile h2 0.5);
  check (Alcotest.float 1e-6) "q <= 0 estimates the smallest observation" 0.02
    (Hist.quantile h2 0.)

(* The JSON form of /v1/metrics reads the registry that the Prometheus
   form renders: after 2xx and 4xx traffic, its totals are the series'
   values *)
let test_metrics_counters () =
  let st = Router.make_state () in
  create_inline_session st;
  check int' "explain" 200 (explain_inline st "s1").Http.status;
  check int' "explain again" 200 (explain_inline st "s1").Http.status;
  check int' "health" 200
    (Router.handle st (request Http.GET [ "v1"; "health" ])).Http.status;
  check int' "unknown route" 404
    (Router.handle st (request Http.GET [ "v1"; "nope" ])).Http.status;
  check int' "malformed atom" 400
    (Router.handle st
       (request ~query:[ "query", "broken(" ] Http.GET
          [ "v1"; "sessions"; "s1"; "explain" ]))
      .Http.status;
  let values =
    List.map
      (fun name ->
        Option.value ~default:nan (Ekg_obs.Metrics.value (Router.obs st) name))
      [
        "ekg_requests_total";
        "ekg_request_errors_total";
        "ekg_session_cache_hits_total";
        "ekg_session_cache_misses_total";
      ]
  in
  (* the scrape is counted once it has answered *)
  let doc = json_of (Router.handle st (request Http.GET [ "v1"; "metrics" ])) in
  let num = function Some (Json.Num n) -> n | _ -> nan in
  let cache k = num (Option.bind (Json.member "session_cache" doc) (Json.member k)) in
  check (Alcotest.list (Alcotest.float 0.)) "JSON totals = the series"
    [ 6.; 2.; 1.; 1. ] values;
  check (Alcotest.list (Alcotest.float 0.)) "JSON form reads the series" values
    [
      num (Json.member "requests_total" doc);
      num (Json.member "errors_total" doc);
      cache "hits";
      cache "misses";
    ];
  (* the per-label entries read the labelled series the Prometheus
     form renders *)
  let prom =
    (Router.handle st
       (request ~query:[ "format", "prometheus" ] Http.GET [ "v1"; "metrics" ]))
      .Http.resp_body
  in
  let samples =
    List.filter_map
      (fun line ->
        if line = "" || line.[0] = '#' then None else Some (parse_sample_line line))
      (String.split_on_char '\n' prom)
  in
  let sample name labels =
    List.find_map
      (fun (n, l, v) -> if n = name && l = labels then Some v else None)
      samples
  in
  let endpoint = "GET /v1/sessions/:id/explain" in
  let entry = Option.bind (Json.member "endpoints" doc) (Json.member endpoint) in
  let field k = Option.bind entry (Json.member k) in
  let labels = [ "endpoint", endpoint ] in
  check (Alcotest.option (Alcotest.float 0.)) "label requests" (Some 1.)
    (sample "ekg_endpoint_requests_total" labels);
  check (Alcotest.option (Alcotest.float 0.)) "label errors" (Some 1.)
    (sample "ekg_endpoint_errors_total" labels);
  check (Alcotest.list (Alcotest.float 0.)) "JSON label entry = the series"
    [ 1.; 1.; 1. ]
    [
      num (field "requests");
      num (field "errors");
      num (Option.bind (field "latency_ms") (Json.member "count"));
    ];
  check (Alcotest.option (Alcotest.float 0.)) "latency count" (Some 1.)
    (sample "ekg_request_duration_ms_count" labels)

(* Requests are counted while the JSON form is read: each document is
   one snapshot of the request series, so its totals are the sums of its
   per-label entries and every label's request count is its latency
   count *)
let test_metrics_json_snapshot () =
  let st = Router.make_state () in
  let writers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to 300 do
              let path =
                if i mod 3 = 0 then [ "v1"; "nope" ] else [ "v1"; "health" ]
              in
              ignore (Router.handle st (request Http.GET path))
            done))
  in
  let num = function Some (Json.Num n) -> n | _ -> nan in
  let torn doc =
    let entries =
      match Json.member "endpoints" doc with
      | Some (Json.Obj kvs) -> List.map snd kvs
      | _ -> []
    in
    let sum k = List.fold_left (fun acc e -> acc +. num (Json.member k e)) 0. entries in
    num (Json.member "requests_total" doc) <> sum "requests"
    || num (Json.member "errors_total" doc) <> sum "errors"
    || List.exists
         (fun e ->
           num (Json.member "requests" e)
           <> num (Option.bind (Json.member "latency_ms" e) (Json.member "count")))
         entries
  in
  let rec read n torn_docs =
    if n = 0 then torn_docs
    else
      let doc = json_of (Router.handle st (request Http.GET [ "v1"; "metrics" ])) in
      read (n - 1) (if torn doc then torn_docs + 1 else torn_docs)
  in
  let torn_docs = read 200 0 in
  List.iter Domain.join writers;
  check int' "documents that read a request half counted" 0 torn_docs;
  check bool' "the writers were counted" true
    (Ekg_obs.Metrics.value (Router.obs st) "ekg_requests_total" >= Some 600.)

(* --- loopback integration -------------------------------------------------- *)

let http_call ?(headers = []) ~port ~meth ~path ~body () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let extra =
        String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
      in
      let payload =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: localhost\r\n%sContent-Length: %d\r\n\r\n%s"
          meth path extra (String.length body) body
      in
      let _ = Unix.write_substring fd payload 0 (String.length payload) in
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      let raw = Buffer.contents buf in
      let status = int_of_string (String.sub raw 9 3) in
      let head, body =
        match Ekg_kernel.Textutil.split_on_string ~sep:"\r\n\r\n" raw with
        | head :: rest -> head, String.concat "\r\n\r\n" rest
        | [] -> "", ""
      in
      let resp_headers =
        List.filter_map
          (fun line ->
            match String.index_opt line ':' with
            | Some i ->
              Some
                ( String.lowercase_ascii (String.sub line 0 i),
                  String.trim
                    (String.sub line (i + 1) (String.length line - i - 1)) )
            | None -> None)
          (Ekg_kernel.Textutil.split_on_string ~sep:"\r\n" head)
      in
      status, resp_headers, body)

let wire_envelope_code body =
  match Json.parse body with
  | Ok j -> Option.bind (Json.member "error" j) (Json.mem_str "code")
  | Error _ -> None

let test_server_integration () =
  let st = Router.make_state ~root:".." () in
  let config = { Server.default_config with port = 0; domains = 2 } in
  let server = Server.start ~config st in
  let port = Server.port server in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let status, _, body = http_call ~port ~meth:"GET" ~path:"/v1/health" ~body:"" () in
  check int' "health status" 200 status;
  check bool' "health body" true (contains body {|"status":"ok"|});
  (* the legacy path answers a redirect over the wire *)
  let status, hs, body = http_call ~port ~meth:"GET" ~path:"/health" ~body:"" () in
  check int' "legacy health is 301" 301 status;
  check bool' "legacy Location" true
    (List.assoc_opt "location" hs = Some "/v1/health");
  check bool' "legacy Deprecation header" true
    (List.assoc_opt "deprecation" hs = Some "true");
  check bool' "redirect carries the envelope" true
    (wire_envelope_code body = Some "moved_permanently");
  (* session loaded from the repo's programs/ directory *)
  let status, _, body =
    http_call ~port ~meth:"POST" ~path:"/v1/sessions"
      ~body:
        {|{"name":"cc","program_path":"programs/company_control.vada","glossary_path":"programs/company_control.dict","facts_dir":"data/company_control"}|}
      ()
  in
  if status <> 201 then Alcotest.failf "session create returned %d: %s" status body;
  check bool' "session id" true (contains body {|"id":"s1"|});
  let explain () =
    http_call ~port ~meth:"POST" ~path:"/v1/sessions/s1/explain"
      ~body:{|{"query":"control(\"A\", \"D\")"}|} ()
  in
  let status, _, body = explain () in
  check int' "explain status" 200 status;
  check bool' "explanation text present" true
    (contains body "exercises control over");
  (* the second request reads the materialization the first one kept *)
  let status, _, body = explain () in
  check int' "second explain status" 200 status;
  check bool' "second explanation text present" true
    (contains body "exercises control over");
  let status, _, body =
    http_call ~port ~meth:"POST" ~path:"/v1/sessions/s1/explain"
      ~body:{|{"query":"control(\"A\" broken"}|} ()
  in
  check int' "malformed query is 400, worker survives" 400 status;
  check bool' "invalid_atom envelope over the wire" true
    (wire_envelope_code body = Some "invalid_atom");
  let status, _, body =
    http_call ~port ~meth:"GET" ~path:"/v1/sessions/s1/trace" ~body:"" ()
  in
  check int' "trace endpoint" 200 status;
  check bool' "trace names the request span" true
    (contains body {|"name":"explain-request"|});
  let status, _, body =
    http_call ~port ~meth:"POST" ~path:"/v1/sessions/s1/explain:batch"
      ~body:{|{"queries":["control(\"A\", \"D\")","control(\"A\", \"B\")"]}|} ()
  in
  check int' "batch over the wire" 200 status;
  check bool' "batch counts" true (contains body {|"ok":2|});
  let status, _, body = http_call ~port ~meth:"GET" ~path:"/v1/metrics" ~body:"" () in
  check int' "metrics status" 200 status;
  (* one miss (first explain), two hits (repeat explain, batch) *)
  check bool' "cache hits recorded" true (contains body {|"hits":2|});
  check bool' "one cache miss recorded" true
    (contains body {|"misses":1|});
  (* live fact update over the wire: company control's σ3 sum is
     maintained incrementally *)
  let status, _, body =
    http_call ~port ~meth:"POST" ~path:"/v1/sessions/s1/facts"
      ~body:{|{"facts":["own(\"D\", \"Z\", 0.9)"]}|} ()
  in
  check int' "facts add over the wire" 200 status;
  check bool' "update reports the op" true (contains body {|"op":"add"|});
  check bool' "update maintained incrementally" true
    (contains body {|"incremental":true|});
  let status, _, body =
    http_call ~port ~meth:"GET" ~path:"/v1/metrics?format=prometheus" ~body:"" ()
  in
  check int' "prometheus scrape status" 200 status;
  check bool' "prometheus exposition" true
    (contains body "# TYPE ekg_requests_total counter");
  check bool' "chase series after explain" true
    (contains body "ekg_chase_rounds_total");
  check bool' "stage series after explain" true
    (contains body "ekg_pipeline_stage_seconds_total");
  check bool' "incremental series after update" true
    (contains body "ekg_chase_incremental_rounds_total")

let test_server_shedding () =
  (* high_water = 0: every non-probe request is shed deterministically,
     while health/metrics stay responsive on the shed lane *)
  let st = Router.make_state () in
  let config =
    { Server.default_config with port = 0; domains = 1; queue_high_water = 0 }
  in
  let server = Server.start ~config st in
  let port = Server.port server in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let status, hs, body =
    http_call ~port ~meth:"POST" ~path:"/v1/sessions"
      ~body:(Json.to_string (Json.Obj [ "program", Json.str inline_program ]))
      ()
  in
  check int' "shed with 503" 503 status;
  check bool' "Retry-After present" true
    (List.assoc_opt "retry-after" hs = Some "1");
  check bool' "overloaded envelope" true
    (wire_envelope_code body = Some "overloaded");
  let status, _, body = http_call ~port ~meth:"GET" ~path:"/v1/health" ~body:"" () in
  check int' "health survives overload" 200 status;
  check bool' "health still says ok" true (contains body {|"status":"ok"|});
  let status, _, body =
    http_call ~port ~meth:"GET" ~path:"/v1/metrics?format=prometheus" ~body:"" ()
  in
  check int' "metrics survive overload" 200 status;
  check bool' "shed counter advanced" true
    (contains body "ekg_server_shed_total 1")

let test_server_shed_under_load () =
  (* a delay fault pins the single worker; concurrent clients overflow
     the depth-1 queue.  Health must stay fast throughout, some clients
     must be shed, and admitted ones must still succeed. *)
  let st = Router.make_state ~fault:(Fault.Delay 1.0) () in
  let config =
    { Server.default_config with port = 0; domains = 1; queue_high_water = 1 }
  in
  let server = Server.start ~config st in
  let port = Server.port server in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let body = Json.to_string (Json.Obj [ "program", Json.str inline_program ]) in
  let pending = Atomic.make 6 in
  let clients =
    List.init 6 (fun _ ->
        Domain.spawn (fun () ->
            let status, _, _ =
              http_call ~port ~meth:"POST" ~path:"/v1/sessions" ~body ()
            in
            Atomic.decr pending;
            status))
  in
  (* the worker is pinned by the delay fault for a full second per
     admitted request, so the load window lasts seconds: health must
     keep answering 200 for its whole duration (wall-clock bounds would
     be flaky when the whole suite runs in parallel, so we assert
     liveness-during-load instead) *)
  let probes_during_load = ref 0 in
  let rec probe n =
    if n > 0 && Atomic.get pending > 0 then begin
      let status, _, _ =
        http_call ~port ~meth:"GET" ~path:"/v1/health" ~body:"" ()
      in
      check int' "health under load" 200 status;
      if Atomic.get pending > 0 then incr probes_during_load;
      Unix.sleepf 0.05;
      probe (n - 1)
    end
  in
  probe 200;
  let statuses = List.map Domain.join clients in
  check bool' "health stayed responsive during the load window" true
    (!probes_during_load > 0);
  check bool' "some clients were shed" true (List.mem 503 statuses);
  check bool' "some clients were admitted" true (List.mem 201 statuses);
  check bool' "only 201/503 observed" true
    (List.for_all (fun s -> s = 201 || s = 503) statuses)

let test_server_drain_on_stop () =
  (* requests queued when stop is requested must still be answered *)
  let st = Router.make_state ~fault:(Fault.Delay 0.2) () in
  let config = { Server.default_config with port = 0; domains = 1 } in
  let server = Server.start ~config st in
  let port = Server.port server in
  let body = Json.to_string (Json.Obj [ "program", Json.str inline_program ]) in
  let clients =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let status, _, _ =
              http_call ~port ~meth:"POST" ~path:"/v1/sessions" ~body ()
            in
            status))
  in
  (* let the clients connect and enqueue behind the delayed worker *)
  Unix.sleepf 0.05;
  Server.stop server;
  let statuses = List.map Domain.join clients in
  check int' "every in-flight request was drained" 3
    (List.length (List.filter (fun s -> s = 201) statuses))


(* --- the reader: slow clients and probes --------------------------------- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* what the server sends before it closes the connection, or [None]
   when it stays silent for [timeout] seconds *)
let read_reply ?(timeout = 5.) fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Some (Buffer.contents buf)
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Some (Buffer.contents buf)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None
  in
  go ()

let test_server_probe_never_queues () =
  (* the delay fault pins the one worker on a request while a second
     waits in the queue, far below the high-water mark; a probe must
     not wait behind them *)
  let st = Router.make_state ~fault:(Fault.Delay 1.0) () in
  let config = { Server.default_config with port = 0; domains = 1 } in
  let server = Server.start ~config st in
  let port = Server.port server in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let body = Json.to_string (Json.Obj [ "program", Json.str inline_program ]) in
  let clients =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let status, _, _ =
              http_call ~port ~meth:"POST" ~path:"/v1/sessions" ~body ()
            in
            status))
  in
  let depth () = Ekg_obs.Metrics.value (Router.obs st) "ekg_server_queue_depth" in
  let give_up = Unix.gettimeofday () +. 5. in
  while depth () <> Some 1. && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.01
  done;
  check bool' "one request waits in the queue" true (depth () = Some 1.);
  let t0 = Unix.gettimeofday () in
  let status, _, _ = http_call ~port ~meth:"GET" ~path:"/v1/health" ~body:"" () in
  let took = Unix.gettimeofday () -. t0 in
  check int' "health answers" 200 status;
  if took > 0.1 then Alcotest.failf "health took %.2f s behind queued work" took;
  check Alcotest.(list int) "both admitted" [ 201; 201 ] (List.map Domain.join clients)

let test_server_half_request () =
  (* a client that sends half a request and goes silent holds no worker *)
  let st = Router.make_state () in
  let config = { Server.default_config with port = 0; domains = 1 } in
  let server = Server.start ~config st in
  let port = Server.port server in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let silent = connect port in
  Fun.protect ~finally:(fun () -> Unix.close silent) @@ fun () ->
  send silent
    "POST /v1/sessions HTTP/1.1\r\nHost: localhost\r\nContent-Length: 100\r\n\r\n{";
  let body = Json.to_string (Json.Obj [ "program", Json.str inline_program ]) in
  let t0 = Unix.gettimeofday () in
  let status, _, _ = http_call ~port ~meth:"POST" ~path:"/v1/sessions" ~body () in
  let took = Unix.gettimeofday () -. t0 in
  check int' "created beside the silent client" 201 status;
  if took > 1. then Alcotest.failf "the create took %.2f s behind half a request" took;
  (* its end of input answers the truncated body *)
  Unix.shutdown silent Unix.SHUTDOWN_SEND;
  match read_reply silent with
  | Some raw ->
    check bool' "400 for the truncated body" true
      (String.starts_with ~prefix:"HTTP/1.1 400" raw && contains raw "truncated body")
  | None -> Alcotest.fail "no answer after the client's end of input"

let test_server_refuse_accept () =
  (* connections wait in the listen backlog, unanswered, and stop stays prompt *)
  let st = Router.make_state ~fault:Fault.Refuse_accept () in
  let config = { Server.default_config with port = 0; domains = 1 } in
  let server = Server.start ~config st in
  let port = Server.port server in
  let fd = connect port in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  send fd "GET /v1/health HTTP/1.1\r\nHost: localhost\r\n\r\n";
  check bool' "no answer within 300 ms" true (read_reply ~timeout:0.3 fd = None);
  let t0 = Unix.gettimeofday () in
  Server.stop server;
  let took = Unix.gettimeofday () -. t0 in
  if took > 1. then Alcotest.failf "stop took %.2f s" took

let test_server_unselectable_descriptor () =
  (* a connection whose descriptor [Unix.select] cannot take is closed
     when its request is incomplete; the reader keeps serving *)
  let st = Router.make_state () in
  let config = { Server.default_config with port = 0; domains = 1 } in
  let server = Server.start ~config st in
  let port = Server.port server in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let selectable fd =
    match Unix.select [ fd ] [] [] 0. with
    | _ -> true
    | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  in
  (* hold descriptors until the next one is past FD_SETSIZE; a process
     whose descriptor limit stops short of it never meets the case *)
  let rec fill held =
    match Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 with
    | fd -> if selectable fd then fill (fd :: held) else Some (fd :: held)
    | exception Unix.Unix_error (Unix.EMFILE, _, _) ->
      List.iter Unix.close held;
      None
  in
  match fill [] with
  | None -> ()
  | Some held ->
    let reply =
      Fun.protect ~finally:(fun () -> List.iter Unix.close held) @@ fun () ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send fd "GET /v1/health HTTP/1.1\r\n";
      read_reply fd
    in
    check Alcotest.(option string) "closed unanswered" (Some "") reply;
    let status, _, _ = http_call ~port ~meth:"GET" ~path:"/v1/health" ~body:"" () in
    check int' "the reader still serves" 200 status

(* --- the route table and the one reply path ------------------------------ *)

(* the labels [ekg_endpoint_requests_total] records for one request per
   declared route, an unmatched path, a wrong verb, a legacy path and a
   shed, written out: dashboards and alerts key on them *)
let pinned_labels =
  [
    "(legacy-redirect)"; "(shed)"; "(unmatched)"; "DELETE (known path)";
    "DELETE /v1/sessions/:id"; "DELETE /v1/sessions/:id/facts";
    "GET /v1/debug/inflight"; "GET /v1/debug/runtime"; "GET /v1/debug/sessions";
    "GET /v1/debug/slowlog"; "GET /v1/health"; "GET /v1/metrics"; "GET /v1/sessions";
    "GET /v1/sessions/:id/explain"; "GET /v1/sessions/:id/fingerprint";
    "GET /v1/sessions/:id/query"; "GET /v1/sessions/:id/templates";
    "GET /v1/sessions/:id/trace"; "POST /v1/sessions"; "POST /v1/sessions/:id/explain";
    "POST /v1/sessions/:id/explain:batch"; "POST /v1/sessions/:id/facts";
    "POST /v1/sessions/:id/query";
  ]

let test_router_labels_pinned () =
  let st = Router.make_state () in
  let send ?body ?query meth path = ignore (Router.handle st (request ?body ?query meth path)) in
  let s1 = [ "v1"; "sessions"; "s1" ] in
  let query = [ "query", {|control("A", "C")|} ] in
  let body = {|{"query":"control(\"A\", \"C\")"}|} in
  let facts = {|{"facts":["own(\"C\", \"D\", 0.9)"]}|} in
  send ~body:(Json.to_string (Json.Obj [ "program", Json.str inline_program ])) Http.POST
    [ "v1"; "sessions" ];
  send Http.GET [ "v1"; "health" ];
  send Http.GET [ "v1"; "metrics" ];
  send Http.GET [ "v1"; "sessions" ];
  send ~query Http.GET (s1 @ [ "explain" ]);
  send ~body Http.POST (s1 @ [ "explain" ]);
  send ~body:{|{"queries":["control(\"A\", \"C\")"]}|} Http.POST (s1 @ [ "explain:batch" ]);
  send ~query Http.GET (s1 @ [ "query" ]);
  send ~body Http.POST (s1 @ [ "query" ]);
  send ~body:facts Http.POST (s1 @ [ "facts" ]);
  send ~body:facts Http.DELETE (s1 @ [ "facts" ]);
  List.iter (fun leaf -> send Http.GET (s1 @ [ leaf ])) [ "fingerprint"; "templates"; "trace" ];
  List.iter
    (fun leaf -> send Http.GET [ "v1"; "debug"; leaf ])
    [ "runtime"; "sessions"; "inflight"; "slowlog" ];
  send Http.DELETE s1;
  send Http.GET [ "v1"; "nope" ];
  send Http.DELETE [ "v1"; "health" ];
  send Http.GET [ "health" ];
  (* the shed: a server on the same state that sheds every non-probe *)
  let config = { Server.default_config with port = 0; domains = 1; queue_high_water = 0 } in
  let server = Server.start ~config st in
  (Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
   let status, _, _ =
     http_call ~port:(Server.port server) ~meth:"POST" ~path:"/v1/sessions" ~body:"{}" ()
   in
   check int' "shed" 503 status);
  let labels =
    match Json.member "endpoints" (json_of (Router.handle st (request Http.GET [ "v1"; "metrics" ]))) with
    | Some (Json.Obj endpoints) -> List.sort String.compare (List.map fst endpoints)
    | _ -> Alcotest.fail "no endpoints in the metrics document"
  in
  check Alcotest.(list string) "the label set" (List.sort String.compare pinned_labels) labels

let test_router_405_allow () =
  let st = Router.make_state () in
  let allow meth path =
    let r = Router.handle st (request meth path) in
    let target = String.concat "/" path in
    check int' (target ^ " is 405") 405 r.Http.status;
    check bool' (target ^ " method_not_allowed") true
      (envelope_code r = Some "method_not_allowed");
    resp_header r "Allow"
  in
  let allows expected meth path =
    check Alcotest.(option string) ("Allow on /" ^ String.concat "/" path) (Some expected)
      (allow meth path)
  in
  allows "DELETE" Http.GET [ "v1"; "sessions"; "s1" ];
  allows "GET" Http.DELETE [ "v1"; "health" ];
  allows "GET, POST" Http.PUT [ "v1"; "sessions" ];
  allows "GET, POST" Http.DELETE [ "v1"; "sessions"; "s1"; "explain" ];
  allows "POST, DELETE" Http.GET [ "v1"; "sessions"; "s1"; "facts" ];
  allows "POST" Http.GET [ "v1"; "sessions"; "s1"; "explain:batch" ];
  allows "GET" Http.POST [ "v1"; "debug"; "runtime" ]

let test_router_delay_scope () =
  let st = Router.make_state ~fault:(Fault.Delay 0.3) () in
  let took path =
    let t0 = Unix.gettimeofday () in
    let r = Router.handle st (request Http.GET path) in
    check int' (String.concat "/" path ^ " answers") 200 r.Http.status;
    Unix.gettimeofday () -. t0
  in
  List.iter
    (fun path ->
      let s = took path in
      if s >= 0.1 then Alcotest.failf "/%s took %.3f s under the delay fault" (String.concat "/" path) s)
    [ [ "v1"; "health" ]; [ "v1"; "debug"; "runtime" ] ];
  let s = took [ "v1"; "sessions" ] in
  if s < 0.3 then Alcotest.failf "GET /v1/sessions took %.3f s, under the 0.3 s delay" s

(* a wide-event sink safe to call from the server's reader and workers *)
let capture_events () =
  let lines = ref [] and lock = Mutex.create () in
  let log =
    Ekg_obs.Log.create ~level:Ekg_obs.Log.Debug
      ~sink:(fun l -> Mutex.protect lock (fun () -> lines := l :: !lines))
      ()
  in
  ( log,
    fun () ->
      Mutex.protect lock (fun () -> List.rev !lines)
      |> List.map (fun l ->
             match Json.parse l with
             | Ok j -> j
             | Error e -> Alcotest.failf "wide event is not JSON (%s): %s" e l) )

(* status, lowercased headers and body of a raw reply *)
let parse_reply raw =
  match Ekg_kernel.Textutil.split_on_string ~sep:"\r\n\r\n" raw with
  | head :: rest ->
    let headers =
      List.filter_map
        (fun line ->
          match String.index_opt line ':' with
          | Some i ->
            Some
              ( String.lowercase_ascii (String.sub line 0 i),
                String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
          | None -> None)
        (Ekg_kernel.Textutil.split_on_string ~sep:"\r\n" head)
    in
    int_of_string (String.sub raw 9 3), headers, String.concat "\r\n\r\n" rest
  | [] -> Alcotest.failf "no reply in %S" raw

let endpoint_count st label =
  Option.value ~default:0.
    (Ekg_obs.Metrics.value (Router.obs st) ~labels:[ "endpoint", label ]
       "ekg_endpoint_requests_total")

(* [reply]'s one wide event: its trace id is the reply's header, its
   endpoint the label the reply was counted under, its error code the
   envelope's *)
let check_accounted events ~label (status, headers, body) =
  let trace = List.assoc_opt "x-ekg-trace-id" headers in
  check bool' (label ^ ": X-Ekg-Trace-Id") true (trace <> None);
  match List.filter (fun j -> Json.mem_str "trace_id" j = trace) events with
  | [ j ] ->
    check Alcotest.(option string) (label ^ ": endpoint") (Some label) (Json.mem_str "endpoint" j);
    check Alcotest.(option int) (label ^ ": status") (Some status) (Json.mem_int "status" j);
    check Alcotest.(option string) (label ^ ": error_code")
      (Some (if status >= 400 then Option.value ~default:"?" (wire_envelope_code body) else ""))
      (Json.mem_str "error_code" j)
  | l -> Alcotest.failf "%s: %d wide events carry the reply's trace id" label (List.length l)

let test_server_every_reply_accounted () =
  let log, events = capture_events () in
  let st = Router.make_state ~log () in
  let serve queue_high_water =
    Server.start ~config:{ Server.default_config with port = 0; domains = 1; queue_high_water } st
  in
  let admitting = serve 64 and shedding = serve 0 in
  Fun.protect ~finally:(fun () -> Server.stop admitting; Server.stop shedding) @@ fun () ->
  let counted label call =
    let before = endpoint_count st label in
    let reply = call () in
    check (Alcotest.float 0.) (label ^ " counted once") (before +. 1.) (endpoint_count st label);
    label, reply
  in
  let call ?(server = admitting) meth path () =
    http_call ~port:(Server.port server) ~meth ~path ~body:"" ()
  in
  let unframed () =
    let fd = connect (Server.port admitting) in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    send fd "NOT A REQUEST\r\n\r\n";
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    match read_reply fd with
    | Some raw -> parse_reply raw
    | None -> Alcotest.fail "no reply to an unframed request"
  in
  let replies =
    List.map
      (fun (label, call) -> counted label call)
      [
        "GET /v1/health", call "GET" "/v1/health";
        "GET /v1/sessions", call "GET" "/v1/sessions";
        "(unmatched)", call "GET" "/v1/nope";
        "DELETE (known path)", call "DELETE" "/v1/health";
        "(legacy-redirect)", call "GET" "/health";
        "(shed)", call ~server:shedding "POST" "/v1/sessions";
        "(parse-error)", unframed;
      ]
  in
  check Alcotest.(list int) "statuses" [ 200; 200; 404; 405; 301; 503; 400 ]
    (List.map (fun (_, (status, _, _)) -> status) replies);
  let events = events () in
  check int' "one wide event per reply" (List.length replies) (List.length events);
  List.iter (fun (label, reply) -> check_accounted events ~label reply) replies;
  match List.find_opt (fun j -> Json.mem_str "endpoint" j = Some "(parse-error)") events with
  | Some unparsed ->
    check Alcotest.(option string) "a framing error has no method" (Some "")
      (Json.mem_str "method" unparsed);
    check Alcotest.(option string) "nor a target" (Some "") (Json.mem_str "target" unparsed)
  | None -> Alcotest.fail "no wide event for the framing error"

let test_server_inline_reply_never_stalls () =
  (* a scraper that stops reading gets a reset when it closes, not the test *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let st = Router.make_state () in
  (* about 9 MB of exposition: past a loopback socket's send buffer,
     which autotunes to a few MB, and the scraper's small receive buffer *)
  let filler = Ekg_obs.Metrics.counter ~help:"exposition filler" "ekg_test_filler_total" in
  let pad = String.make 200 'x' in
  for i = 1 to 40_000 do
    Ekg_obs.Metrics.incr (Router.obs st) ~labels:[ "k", Printf.sprintf "%s%06d" pad i ] filler
  done;
  let server = Server.start ~config:{ Server.default_config with port = 0; domains = 1 } st in
  let port = Server.port server in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let scraper = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close scraper) @@ fun () ->
  Unix.setsockopt_int scraper Unix.SO_RCVBUF 4096;
  Unix.connect scraper (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  send scraper "GET /v1/metrics?format=prometheus HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (* the reader renders the exposition and writes what the socket takes *)
  Unix.sleepf 0.5;
  let t0 = Unix.gettimeofday () in
  let status, _, _ = http_call ~port ~meth:"GET" ~path:"/v1/health" ~body:"" () in
  let took = Unix.gettimeofday () -. t0 in
  check int' "health answers" 200 status;
  if took > 1. then Alcotest.failf "health took %.2f s behind a scraper that stops reading" took

(* A scraper that drains a ~9 MB exposition at about 160 KB/s keeps the
   one worker writing to it; a worker-handled request queued behind must
   still answer within 13 s, because a reply's write ends 10 s after it
   began. *)
let slow_reader_frees_the_worker () =
  let st = Router.make_state () in
  let filler = Ekg_obs.Metrics.counter ~help:"exposition filler" "ekg_test_filler_total" in
  let pad = String.make 200 'x' in
  for i = 1 to 40_000 do
    Ekg_obs.Metrics.incr (Router.obs st) ~labels:[ "k", Printf.sprintf "%s%06d" pad i ] filler
  done;
  let server = Server.start ~config:{ Server.default_config with port = 0; domains = 1 } st in
  let port = Server.port server in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let scraper = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close scraper) @@ fun () ->
  Unix.setsockopt_int scraper Unix.SO_RCVBUF 4096;
  Unix.setsockopt_float scraper Unix.SO_RCVTIMEO 0.5;
  Unix.connect scraper (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  send scraper "GET /v1/metrics?format=prometheus HTTP/1.1\r\nHost: localhost\r\n\r\n";
  let stop = Atomic.make false in
  let drain =
    Domain.spawn (fun () ->
        let chunk = Bytes.create 4096 in
        let rec go () =
          if not (Atomic.get stop) then
            match Unix.read scraper chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | _ ->
              Unix.sleepf 0.025;
              go ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              go ()
            | exception Unix.Unix_error _ -> ()
        in
        go ())
  in
  Fun.protect ~finally:(fun () -> Atomic.set stop true; Domain.join drain) @@ fun () ->
  (* the reader renders the exposition and hands the rest to the worker *)
  Unix.sleepf 0.5;
  let t0 = Unix.gettimeofday () in
  let status, _, _ = http_call ~port ~meth:"GET" ~path:"/v1/sessions" ~body:"" () in
  let took = Unix.gettimeofday () -. t0 in
  check int' "the listing answers" 200 status;
  if took > 13. then Alcotest.failf "GET /v1/sessions took %.2f s behind a slow reader" took

let read_deadline_408 () =
  let log, events = capture_events () in
  let st = Router.make_state ~log () in
  let server = Server.start ~config:{ Server.default_config with port = 0; domains = 1 } st in
  let port = Server.port server in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let partial = connect port and silent = connect port in
  Fun.protect ~finally:(fun () -> Unix.close partial; Unix.close silent) @@ fun () ->
  send partial "POST /v1/sessions HTTP/1.1\r\nHost: localhost\r\n";
  let reply =
    match read_reply ~timeout:15. partial with
    | Some raw when raw <> "" -> parse_reply raw
    | _ -> Alcotest.fail "no answer to a request cut short"
  in
  let took = Unix.gettimeofday () -. t0 in
  if took < 9. || took > 13. then Alcotest.failf "answered after %.2f s, not at the 10 s deadline" took;
  let status, _, body = reply in
  check int' "408" 408 status;
  check Alcotest.(option string) "request_timeout" (Some "request_timeout") (wire_envelope_code body);
  check Alcotest.(option string) "silent connection closed unanswered" (Some "")
    (read_reply ~timeout:5. silent);
  check (Alcotest.float 0.) "counted under its own label" 1. (endpoint_count st "(request-timeout)");
  check_accounted (events ()) ~label:"(request-timeout)" reply;
  check int' "the silent connection emits nothing" 1 (List.length (events ()))

let test_server_read_deadline_408 () =
  (* the one test that waits out the 10 s read deadline; a slow reader
     on a second server shares the window *)
  let slow_reader = Domain.spawn slow_reader_frees_the_worker in
  read_deadline_408 ();
  Domain.join slow_reader

let test_query_update_clears_every_answer () =
  (* [g] does not depend on [e] or [path], yet a committed update of [e]
     clears its cached answer too: one invalidation, no predicate filter *)
  let program =
    {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
f(X) -> g(X).
@goal(path).
e("a", "b"). e("b", "c").
f("x").
|}
  in
  let st = Router.make_state () in
  check int' "created" 201
    (Router.handle st
       (request ~body:(Json.to_string (Json.Obj [ "program", Json.str program ])) Http.POST
          [ "v1"; "sessions" ]))
      .Http.status;
  let ask () = json_of (query_get st "s1" [ "query", {|g(X)|} ]) in
  ignore (ask ());
  check Alcotest.(option bool) "cached before the update" (Some true) (Json.mem_bool "cached" (ask ()));
  let added =
    Router.handle st
      (request ~body:{|{"facts":["e(\"c\", \"d\")"]}|} Http.POST [ "v1"; "sessions"; "s1"; "facts" ])
  in
  check int' "edge added" 200 added.Http.status;
  check bool' "g is not among the changed predicates" false
    (contains added.Http.resp_body {|"g"|});
  let after = ask () in
  check Alcotest.(option bool) "recomputed after the update" (Some false) (Json.mem_bool "cached" after);
  check Alcotest.(option int) "same answer" (Some 1) (Json.mem_int "total" after);
  check Alcotest.(option (float 0.)) "the cleared answer is counted" (Some 1.)
    (Ekg_obs.Metrics.value (Router.obs st) "ekg_query_cache_invalidations_total")

(* --- fact-update validation on both tiers ---------------------------------------

   A fact update's code and message depend on the request, the program
   and the EDB, never on whether the session is materialized. *)

let test_router_facts_validation_tiers () =
  let cases =
    [
      "retract derived", Http.DELETE, {|path("a", "c")|}, 404, "unknown_fact";
      "retract absent", Http.DELETE, {|e("z", "q")|}, 404, "unknown_fact";
      "add non-ground", Http.POST, {|e(X, "b")|}, 400, "invalid_atom";
      "retract non-ground", Http.DELETE, {|e(X, "b")|}, 400, "invalid_atom";
    ]
  in
  let message (r : Http.response) =
    Option.bind (Json.member "error" (json_of r)) (Json.mem_str "message")
  in
  let answers ~hot =
    let st = Router.make_state () in
    create_closure_session st;
    if hot then
      check int' "materialized" 200 (explain_path st "s1" {|path("a", "b")|}).Http.status;
    List.map
      (fun (_, meth, fact, _, _) ->
        Router.handle st
          (request
             ~body:(Json.to_string (Json.Obj [ "facts", Json.Arr [ Json.str fact ] ]))
             meth [ "v1"; "sessions"; "s1"; "facts" ]))
      cases
  in
  let dormant = answers ~hot:false and hot = answers ~hot:true in
  List.iteri
    (fun i (label, _, _, status, code) ->
      List.iter
        (fun (tier, (r : Http.response)) ->
          check int' (tier ^ " " ^ label ^ ": status") status r.Http.status;
          check Alcotest.(option string) (tier ^ " " ^ label ^ ": code") (Some code)
            (envelope_code r))
        [ "dormant", List.nth dormant i; "hot", List.nth hot i ];
      check Alcotest.(option string) (label ^ ": one message on both tiers")
        (message (List.nth dormant i)) (message (List.nth hot i)))
    cases;
  check bool' "a derived predicate's message says why" true
    (contains
       (Option.value ~default:"" (message (List.hd hot)))
       "only extensional facts can be retracted")

(* --- readers never wait on a writer -------------------------------------------- *)

(* [f ()] and its wall time in milliseconds *)
let timed_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  r, (Unix.gettimeofday () -. t0) *. 1000.

let within_ms label bound ms = if ms > bound then Alcotest.failf "%s took %.0f ms" label ms

let create_program_session st program =
  check int' "created" 201
    (Router.handle st
       (request ~body:(Json.to_string (Json.Obj [ "program", Json.str program ])) Http.POST
          [ "v1"; "sessions" ]))
      .Http.status

let test_reads_skip_cold_chase () =
  (* the fault stretches every chase to 1 s; reads while an explain's
     cold materialization runs keep the dormant version *)
  let st = Router.make_state ~fault:(Fault.Slow_chase 1.0) () in
  create_closure_session st;
  let ask () = query_get st "s1" [ "query", {|path("a", X)|} ] in
  check int' "the answer is cached" 200 (ask ()).Http.status;
  let misses () =
    Option.value ~default:0.
      (Ekg_obs.Metrics.value (Router.obs st) "ekg_session_cache_misses_total")
  in
  let explained = Atomic.make false in
  let explain =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set explained true)
          (fun () -> explain_path st "s1" {|path("a", "c")|}))
  in
  (* the miss is counted as the materialization starts *)
  let t0 = Unix.gettimeofday () in
  while misses () < 1. && Unix.gettimeofday () -. t0 < 5. do
    Unix.sleepf 0.002
  done;
  Unix.sleepf 0.2;
  let chasing = not (Atomic.get explained) in
  let cached, query_ms = timed_ms ask in
  let listed, list_ms =
    timed_ms (fun () -> Router.handle st (request Http.GET [ "v1"; "sessions" ]))
  in
  let debugged, debug_ms =
    timed_ms (fun () -> Router.handle st (request Http.GET [ "v1"; "debug"; "sessions" ]))
  in
  let explain = Domain.join explain in
  within_ms "the cached query behind the chase" 100. query_ms;
  within_ms "GET /v1/sessions behind the chase" 100. list_ms;
  within_ms "GET /v1/debug/sessions behind the chase" 100. debug_ms;
  check bool' "the reads began while the chase ran" true chasing;
  check int' "cached query 200" 200 cached.Http.status;
  check Alcotest.(option bool) "served from the answer cache" (Some true)
    (Json.mem_bool "cached" (json_of cached));
  check int' "listing 200" 200 listed.Http.status;
  check int' "debug listing 200" 200 debugged.Http.status;
  check int' "the explain then answers" 200 explain.Http.status

let test_reads_skip_update () =
  (* closing the cycle of a 400-node chain derives every missing path:
     a long update, while reads keep the generation before it *)
  let n = 400 in
  let node i = Printf.sprintf {|"n%d"|} i in
  let program =
    "e(X, Y) -> path(X, Y).\npath(X, Z), e(Z, Y) -> path(X, Y).\n@goal(path).\n"
    ^ String.concat "\n"
        (List.init (n - 1) (fun i -> Printf.sprintf "e(%s, %s)." (node i) (node (i + 1))))
  in
  let st = Router.make_state () in
  create_program_session st program;
  let explain () = explain_path st "s1" {|path("n398", X)|} in
  let ask () = query_get st "s1" [ "query", {|path("n398", X)|} ] in
  let before = explain () in
  check int' "hot explain" 200 before.Http.status;
  let answers = answer_facts (json_of (ask ())) in
  check int' "one answer before the cycle closes" 1 (List.length answers);
  let started = Atomic.make false and finished = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        Atomic.set started true;
        let r =
          timed_ms (fun () ->
              Router.handle st
                (request
                   ~body:{|{"facts":["e(\"n399\", \"n0\")"]}|}
                   Http.POST [ "v1"; "sessions"; "s1"; "facts" ]))
        in
        Atomic.set finished true;
        r)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.02;
  let during, explain_ms = timed_ms explain in
  let asked, query_ms = timed_ms ask in
  let overlapped = not (Atomic.get finished) in
  let updated, update_ms = Domain.join writer in
  within_ms "a hot explain behind the update" 50. explain_ms;
  within_ms "a hot query behind the update" 50. query_ms;
  check bool' (Printf.sprintf "the reads ran inside the %.0f ms update" update_ms) true overlapped;
  check int' "the update commits" 200 updated.Http.status;
  check (Alcotest.option string') "the explanations of the generation before" (explanations_of before)
    (explanations_of during);
  check Alcotest.(list string) "the answers of the generation before" answers
    (answer_facts (json_of asked));
  check Alcotest.(option int) "all of them after it" (Some n) (Json.mem_int "total" (json_of (ask ())))

(* --- readers see whole generations -----------------------------------------------

   One writer domain applies random fact updates, failing ones
   included, while two reader domains explain, query and fingerprint.
   The session starts dormant, so the first reads race the first
   materialization.  Every read must equal what some committed
   generation answers: its cold-chase fingerprint, its answers by
   reachability, and the explanations the writer read right after
   committing it (generation 0's from a local cold chase). *)

type version_op =
  | Add_edge of int * int  (* i < j: the graph stays acyclic *)
  | Retract_edge of int * int  (* absent edges answer 404 *)
  | Late_add of int * int  (* under a deadline already past: 504 once hot *)
  | Self_loop of int  (* path(x, x) -> false: 409, issued once hot *)

let version_nodes = [| "a"; "b"; "c"; "d" |]

let prop_readers_see_whole_generations =
  let forward =
    QCheck2.Gen.oneofl [ 0, 1; 0, 2; 0, 3; 1, 2; 1, 3; 2, 3 ]
  in
  let op =
    QCheck2.Gen.(
      frequency
        [
          4, map (fun (i, j) -> Add_edge (i, j)) forward;
          3, map2 (fun i j -> Retract_edge (i, j)) (int_bound 3) (int_bound 3);
          1, map (fun (i, j) -> Late_add (i, j)) forward;
          1, map (fun i -> Self_loop i) (int_bound 3);
        ])
  in
  let edge (i, j) = Printf.sprintf {|e("%s", "%s")|} version_nodes.(i) version_nodes.(j) in
  let print ops =
    String.concat " "
      (List.map
         (function
           | Add_edge (i, j) -> "+" ^ edge (i, j)
           | Retract_edge (i, j) -> "-" ^ edge (i, j)
           | Late_add (i, j) -> "+late " ^ edge (i, j)
           | Self_loop i -> "+" ^ edge (i, i))
         ops)
  in
  let program =
    let { Ekg_datalog.Parser.program; _ } =
      Result.get_ok (Ekg_datalog.Parser.parse acyclic_program)
    in
    program
  in
  let atom_of (i, j) =
    Ekg_datalog.Atom.make "e"
      [ Ekg_datalog.Term.str version_nodes.(i); Ekg_datalog.Term.str version_nodes.(j) ]
  in
  let fingerprint edges =
    match Ekg_engine.Chase.run program (List.map atom_of edges) with
    | Ok r ->
      Digest.to_hex (Digest.string (Ekg_engine.Database.fingerprint r.Ekg_engine.Chase.db))
    | Error e -> QCheck2.Test.fail_reportf "cold chase: %s" e
  in
  let reachable edges =
    let rec go seen = function
      | [] -> seen
      | x :: rest ->
        let next =
          List.filter_map
            (fun (i, j) -> if i = x && not (List.mem j seen) then Some j else None)
            edges
        in
        go (seen @ next) (rest @ next)
    in
    go [] [ 0 ]
    |> List.map (fun j -> Printf.sprintf {|path("a", "%s")|} version_nodes.(j))
    |> List.sort String.compare
  in
  let texts (r : Http.response) =
    ( r.Http.status,
      List.filter_map (Json.mem_str "text")
        (Option.value ~default:[]
           (Option.bind (Json.member "explanations" (json_of r)) Json.get_arr)) )
  in
  (* generation 0's explanations, from a local cold chase of the same
     program and facts *)
  let cold_texts =
    match Ekg_apps.Apps_util.load_program_text acyclic_program with
    | Error e -> failwith e
    | Ok { Ekg_apps.Apps_util.pipeline; edb } -> (
      let res = Result.get_ok (Ekg_core.Pipeline.reason pipeline edb) in
      match
        Ekg_core.Pipeline.explain_atom pipeline res
          (Result.get_ok (Ekg_datalog.Parser.parse_atom {|path("a", X)|}))
      with
      | Ok es -> 200, List.map (fun (e : Ekg_core.Pipeline.explanation) -> e.text) es
      | Error e -> failwith e)
  in
  QCheck2.Test.make ~name:"readers see whole generations" ~count:20 ~print
    QCheck2.Gen.(list_size (int_range 4 10) op)
    (fun ops ->
      let st = Router.make_state () in
      create_program_session st acyclic_program;
      let read_explain () = texts (get_explain st "s1" {|path("a", X)|}) in
      let read_query () =
        let r = query_get st "s1" [ "query", {|path("a", X)|} ] in
        r.Http.status, List.sort String.compare (answer_facts (json_of r))
      in
      let read_fingerprint () =
        let r = Router.handle st (request Http.GET [ "v1"; "sessions"; "s1"; "fingerprint" ]) in
        r.Http.status, Option.value ~default:"" (Json.mem_str "fingerprint" (json_of r))
      in
      let facts ?(headers = []) meth e =
        let status =
          (Router.handle st
             (request ~headers
                ~body:(Json.to_string (Json.Obj [ "facts", Json.Arr [ Json.str (edge e) ] ]))
                meth [ "v1"; "sessions"; "s1"; "facts" ]))
            .Http.status
        in
        (* leave the readers a window on each generation *)
        Unix.sleepf 0.001;
        status
      in
      let done_ = Atomic.make false in
      (* per committed generation: fingerprint, answers, explanations *)
      let writer =
        Domain.spawn (fun () ->
            Fun.protect ~finally:(fun () -> Atomic.set done_ true) @@ fun () ->
            let generation edges explained =
              ((200, fingerprint edges), (200, reachable edges), explained)
            in
            let commit edges = generation edges (read_explain ()) in
            let rec go edges gens = function
              | [] -> gens
              | op :: rest -> (
                match op with
                | Add_edge (i, j) | Late_add (i, j) as op ->
                  let headers =
                    match op with Late_add _ -> [ "x-ekg-deadline-ms", "0.001" ] | _ -> []
                  in
                  let status = facts ~headers Http.POST (i, j) in
                  if status = 200 then
                    let edges = if List.mem (i, j) edges then edges else edges @ [ i, j ] in
                    go edges (commit edges :: gens) rest
                  else if status = 504 then go edges gens rest
                  else QCheck2.Test.fail_reportf "add %s answered %d" (edge (i, j)) status
                | Retract_edge (i, j) ->
                  let status = facts Http.DELETE (i, j) in
                  if status = 200 then
                    let edges = List.filter (( <> ) (i, j)) edges in
                    go edges (commit edges :: gens) rest
                  else if status = 404 && not (List.mem (i, j) edges) then go edges gens rest
                  else QCheck2.Test.fail_reportf "retract %s answered %d" (edge (i, j)) status
                | Self_loop i ->
                  (* a read materializes, so the loop is refused, not stored *)
                  ignore (read_fingerprint ());
                  let status = facts Http.POST (i, i) in
                  if status = 409 then go edges gens rest
                  else QCheck2.Test.fail_reportf "self loop answered %d" status)
            in
            let initial = [ 0, 1; 1, 2 ] in
            go initial [ generation initial cold_texts ] ops)
      in
      let reader () =
        Domain.spawn (fun () ->
            let rec go acc k =
              if Atomic.get done_ then acc
              else
                let read =
                  match k mod 3 with
                  | 0 -> `Explain (read_explain ())
                  | 1 -> `Query (read_query ())
                  | _ -> `Fingerprint (read_fingerprint ())
                in
                go (read :: acc) (k + 1)
            in
            go [] 0)
      in
      let readers = [ reader (); reader () ] in
      let gens = Domain.join writer in
      let reads = List.concat_map Domain.join readers in
      List.iter
        (fun read ->
          let whole =
            List.exists
              (fun (fp, answers, explained) ->
                match read with
                | `Fingerprint r -> r = fp
                | `Query r -> r = answers
                | `Explain r -> r = explained)
              gens
          in
          if not whole then
            QCheck2.Test.fail_reportf "a read matches no committed generation: %s"
              (match read with
              | `Fingerprint (s, f) -> Printf.sprintf "fingerprint %d %s" s f
              | `Query (s, a) -> Printf.sprintf "query %d [%s]" s (String.concat "; " a)
              | `Explain (s, t) -> Printf.sprintf "explain %d [%s]" s (String.concat " | " t)))
        reads;
      reads <> [])

(* --------------------------------------------------------------------------- *)

let () =
  Alcotest.run "ekg_server"
    [
      ( "json",
        [
          Alcotest.test_case "printing" `Quick test_json_print;
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_json_parse_escapes;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "http",
        [
          Alcotest.test_case "happy path" `Quick test_http_happy_path;
          Alcotest.test_case "GET without length" `Quick test_http_get_without_length;
          Alcotest.test_case "missing content-length" `Quick test_http_missing_content_length;
          Alcotest.test_case "oversized body" `Quick test_http_oversized_body;
          Alcotest.test_case "bad requests" `Quick test_http_bad_requests;
          Alcotest.test_case "header limit" `Quick test_http_header_limit;
          Alcotest.test_case "prefixes" `Quick test_http_prefixes;
          Alcotest.test_case "response serialization" `Quick test_http_response_serialization;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram edges" `Quick test_hist_edges;
          Alcotest.test_case "counters + json" `Quick test_metrics_counters;
          Alcotest.test_case "json is one snapshot" `Quick test_metrics_json_snapshot;
        ] );
      ( "chase errors",
        [
          Alcotest.test_case "unstratifiable" `Quick test_chase_checked_unstratifiable;
          Alcotest.test_case "inconsistent" `Quick test_chase_checked_inconsistent;
          Alcotest.test_case "divergent classification" `Quick
            test_chase_checked_divergent_is_server_side;
        ] );
      ( "registry",
        [
          Alcotest.test_case "cache accounting" `Quick test_registry_cache_accounting;
          Alcotest.test_case "path containment" `Quick test_registry_path_containment;
          Alcotest.test_case "spec decoding" `Quick test_registry_spec_decoding;
        ] );
      ( "errors",
        [ Alcotest.test_case "envelope codes" `Quick test_error_envelope_codes ] );
      ( "router",
        [
          Alcotest.test_case "status mapping" `Quick test_router_statuses;
          Alcotest.test_case "legacy redirects" `Quick test_router_legacy_redirect;
          Alcotest.test_case "observability" `Quick test_router_observability;
          Alcotest.test_case "deadline 504" `Quick test_router_deadline_504;
          Alcotest.test_case "degraded explain" `Quick test_router_degraded_explain;
          Alcotest.test_case "batch explain" `Quick test_router_batch_explain;
          Alcotest.test_case "chase domains only 1" `Quick test_chase_domains_shim;
          Alcotest.test_case "one label per route" `Quick test_router_labels_pinned;
          Alcotest.test_case "405 lists Allow" `Quick test_router_405_allow;
          Alcotest.test_case "delay scope" `Quick test_router_delay_scope;
        ] );
      ( "facts-updates",
        [
          Alcotest.test_case "live add/retract" `Quick test_router_facts_live_updates;
          Alcotest.test_case "fingerprint endpoint" `Quick
            test_router_fingerprint_endpoint;
          Alcotest.test_case "validation" `Quick test_router_facts_validation;
          Alcotest.test_case "aggregate incremental" `Quick
            test_router_facts_aggregate_incremental;
          Alcotest.test_case "aggregate update past its deadline" `Quick
            test_router_aggregate_update_deadline_504;
          Alcotest.test_case "aggregate update violating a constraint" `Quick
            test_router_aggregate_update_inconsistent_409;
          Alcotest.test_case "dormant session updates" `Quick
            test_registry_update_before_materialize;
          Alcotest.test_case "inconsistent update preserves state" `Quick
            test_router_facts_inconsistent_preserves_state;
          Alcotest.test_case "failed update keeps snapshot" `Quick
            test_registry_failed_update_keeps_snapshot;
          Alcotest.test_case "duplicate add deduped" `Quick
            test_registry_duplicate_add_deduped;
          Alcotest.test_case "explanations race live updates" `Quick
            test_explain_races_updates;
          QCheck_alcotest.to_alcotest prop_dormant_mirror_edit;
          Alcotest.test_case "validation answers alike on both tiers" `Quick
            test_router_facts_validation_tiers;
          Alcotest.test_case "reads skip a cold chase" `Quick test_reads_skip_cold_chase;
          Alcotest.test_case "reads skip an update" `Quick test_reads_skip_update;
        ] );
      ( "session versions",
        [ QCheck_alcotest.to_alcotest prop_readers_see_whole_generations ] );
      ( "query lane",
        [
          Alcotest.test_case "answers + bindings" `Quick
            test_query_answers_and_bindings;
          Alcotest.test_case "pagination" `Quick test_query_pagination;
          Alcotest.test_case "invalid atoms" `Quick test_query_invalid_atoms;
          Alcotest.test_case "cache semantics" `Quick test_query_cache_semantics;
          Alcotest.test_case "an update clears every answer" `Quick
            test_query_update_clears_every_answer;
          Alcotest.test_case "dormant stays dormant" `Quick
            test_query_dormant_stays_dormant;
          Alcotest.test_case "explain modes" `Quick test_query_explain_modes;
          Alcotest.test_case "deadline 504" `Quick test_query_deadline_504;
          Alcotest.test_case "wide events" `Quick test_query_wide_events;
          Alcotest.test_case "GET explain parity" `Quick test_explain_get_parity;
          Alcotest.test_case "POST explain pages" `Quick test_explain_post_pages;
          Alcotest.test_case "explain of an undefined predicate" `Quick
            test_explain_undefined_predicate;
          Alcotest.test_case "materialized once hot" `Quick test_query_lane_switch;
          Alcotest.test_case "hot session runs no chase" `Quick
            test_query_hot_session_runs_no_chase;
          Alcotest.test_case "evicted session back to magic" `Quick
            test_query_evicted_session_back_to_magic;
          Alcotest.test_case "answer cache keeps no instance" `Quick
            test_query_cache_keeps_no_instance;
          Alcotest.test_case "hot lookups race live updates" `Quick
            test_query_hot_lookup_races_updates;
        ]
        @ dl_properties );
      ( "persistence",
        [
          Alcotest.test_case "warm restore after restart" `Quick
            test_persistence_warm_restore_after_restart;
          Alcotest.test_case "corrupt snapshot falls back" `Quick
            test_persistence_corrupt_snapshot_falls_back;
          Alcotest.test_case "earlier engine revision re-chases" `Quick
            test_persistence_earlier_engine_rechases;
          Alcotest.test_case "LRU eviction" `Quick test_persistence_lru_eviction;
          Alcotest.test_case "DELETE /v1/sessions/:id" `Quick
            test_router_delete_session;
          Alcotest.test_case "DELETE without a store" `Quick
            test_router_delete_without_store;
        ] );
      ( "debug endpoints",
        [
          Alcotest.test_case "runtime" `Quick test_debug_runtime_endpoint;
          Alcotest.test_case "sessions" `Quick test_debug_sessions_endpoint;
          Alcotest.test_case "inflight" `Quick test_debug_inflight_endpoint;
          Alcotest.test_case "slowlog" `Quick test_debug_slowlog_endpoint;
          Alcotest.test_case "unknown path 404" `Quick test_debug_unknown_404;
        ] );
      ( "wide events",
        [
          Alcotest.test_case "one per request, full schema" `Quick
            test_wide_event_per_request;
          Alcotest.test_case "chase + cache fields" `Quick
            test_wide_event_chase_fields;
          Alcotest.test_case "chase span stratum labels" `Quick
            test_chase_span_stratum_labels;
          Alcotest.test_case "update path, phases and passes" `Quick
            test_wide_event_update_fields;
          Alcotest.test_case "legacy trace redirect" `Quick
            test_legacy_trace_redirect;
        ] );
      ( "prometheus exposition",
        [
          Alcotest.test_case "every line valid + buckets monotone" `Quick
            test_prometheus_exposition_valid;
          Alcotest.test_case "chase help lines match a bare chase" `Quick
            test_chase_help_lines;
          Alcotest.test_case "scrape samples the runtime" `Quick
            test_scrape_samples_runtime;
        ] );
      ( "integration",
        [
          Alcotest.test_case "loopback server" `Quick test_server_integration;
          Alcotest.test_case "deterministic shedding" `Quick test_server_shedding;
          Alcotest.test_case "shed under load" `Quick test_server_shed_under_load;
          Alcotest.test_case "drain on stop" `Quick test_server_drain_on_stop;
          Alcotest.test_case "probes never queue" `Quick test_server_probe_never_queues;
          Alcotest.test_case "half a request pins nothing" `Quick
            test_server_half_request;
          Alcotest.test_case "refused accept" `Quick test_server_refuse_accept;
          Alcotest.test_case "descriptor past select's limit" `Quick
            test_server_unselectable_descriptor;
          Alcotest.test_case "every reply accounted once" `Quick
            test_server_every_reply_accounted;
          Alcotest.test_case "inline replies never stall" `Quick
            test_server_inline_reply_never_stalls;
          Alcotest.test_case "408 at the read deadline" `Quick
            test_server_read_deadline_408;
        ] );
    ]
