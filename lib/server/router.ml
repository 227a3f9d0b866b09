open Ekg_core
open Ekg_engine

(* one row of the live in-flight request table ([/v1/debug/inflight]) *)
type inflight = {
  if_trace : string;
  if_meth : string;
  if_target : string;
  if_started : float;
}

type state = {
  registry : Registry.t;
  obs : Ekg_obs.Metrics.t;
  tracer : Ekg_obs.Trace.t;
  log : Ekg_obs.Log.t;
  runtime : Ekg_obs.Runtime.t;
  inflight : (int, inflight) Hashtbl.t;
  inflight_lock : Ekg_obs.Lock.t;
  inflight_seq : int Atomic.t;
  fault : Fault.t;
  default_deadline_ms : float;
  max_deadline_ms : float;
  started_at : float;
}

(* what a route's handler gets besides the state *)
type call = {
  req : Http.request;
  trace_id : string;
  deadline : (float, string) result;
  id : string;  (* the path's [:id] segment; [""] on a route without one *)
}

let counter = Ekg_obs.Metrics.counter
let shed_metric =
  counter ~help:"Requests shed by admission control (503 overloaded)" "ekg_server_shed_total"
let deadline_metric =
  counter ~help:"Requests that exhausted their deadline (504)"
    "ekg_request_deadline_exceeded_total"
let queue_depth_metric =
  Ekg_obs.Metrics.gauge ~help:"Requests queued awaiting a worker" "ekg_server_queue_depth"
let uptime_metric =
  Ekg_obs.Metrics.gauge ~help:"Seconds since the server started" "ekg_uptime_seconds"

(* request accounting ([account]) *)
let requests_metric = counter ~help:"Requests served, all endpoints" "ekg_requests_total"
let errors_metric =
  counter ~help:"Responses with status >= 400, all endpoints" "ekg_request_errors_total"
let endpoint_requests_metric =
  counter ~help:"Requests per route label" "ekg_endpoint_requests_total"
let endpoint_errors_metric =
  counter ~help:"Error responses per route label" "ekg_endpoint_errors_total"
let duration_metric =
  Ekg_obs.Metrics.histogram ~help:"Request latency per route label, in milliseconds"
    "ekg_request_duration_ms"

(* every finished span, fed by the tracer's [on_finish] *)
let stage_seconds_metric =
  counter ~help:"Seconds spent per pipeline/request stage" "ekg_pipeline_stage_seconds_total"
let stage_calls_metric =
  counter ~help:"Spans finished per pipeline/request stage" "ekg_pipeline_stage_calls_total"

let make_state ?root ?(chase_domains = 1) ?(fault = Fault.Off)
    ?(default_deadline_ms = 30_000.) ?(max_deadline_ms = 300_000.) ?store
    ?snapshot_mode ?max_hot_sessions ?log () =
  if chase_domains <> 1 then
    invalid_arg
      (Printf.sprintf
         "Router.make_state: ~chase_domains:%d: the chase is sequential, only 1 is accepted"
         chase_domains);
  let obs = Ekg_obs.Metrics.create () in
  (* the router's own series render (at zero) from the first scrape;
     every other owner declares its series when it is handed [obs] *)
  Ekg_obs.Metrics.declare obs uptime_metric;
  Ekg_obs.Metrics.declare obs queue_depth_metric;
  List.iter (Ekg_obs.Metrics.declare obs)
    [ requests_metric; errors_metric; shed_metric; deadline_metric ];
  (* no sink by default: request handling still feeds the slow-request
     ring (so /v1/debug/slowlog works out of the box) but no line is
     rendered until a sink — the --log-file flag — asks for one *)
  let log = match log with Some l -> l | None -> Ekg_obs.Log.create () in
  Option.iter (fun s -> Ekg_store.Store.set_obs s obs) store;
  let tracer =
    (* every finished span — pipeline stages, chase, whole requests —
       feeds the per-stage counters, so /metrics shows stage timings
       without anyone walking the trace ring *)
    Ekg_obs.Trace.create ~lock_obs:obs
      ~on_finish:(fun (span : Ekg_obs.Trace.span) ->
        let labels = [ "stage", span.name ] in
        Ekg_obs.Metrics.record obs
          [
            Add (stage_seconds_metric, labels, span.dur_s);
            Add (stage_calls_metric, labels, 1.);
          ])
      ()
  in
  let registry =
    Registry.create ?root ~obs ~fault ?store ?snapshot_mode ?max_hot_sessions ()
  in
  let runtime = Ekg_obs.Runtime.create obs in
  (* snapshotter queue depth / stall gauges ride the sampler *)
  Option.iter
    (fun sn ->
      Ekg_obs.Runtime.register runtime "snapshotter"
        (Ekg_store.Snapshotter.runtime_samples sn))
    (Registry.snapshotter registry);
  {
    registry;
    obs;
    tracer;
    log;
    runtime;
    inflight = Hashtbl.create 32;
    inflight_lock = Ekg_obs.Lock.create ~obs "inflight";
    inflight_seq = Atomic.make 0;
    fault;
    default_deadline_ms;
    max_deadline_ms;
    started_at = Unix.gettimeofday ();
  }

let registry st = st.registry
let obs st = st.obs
let tracer st = st.tracer
let log st = st.log
let runtime st = st.runtime
let fault st = st.fault

let json_response status j = Http.response status (Json.to_string j)

(* --- deadlines -------------------------------------------------------------- *)

let deadline_header = "x-ekg-deadline-ms"

(* The absolute instant (Clock.now_s scale) this request must answer
   by: header value when present (clamped to the server cap), server
   default otherwise. *)
let request_deadline st (req : Http.request) =
  match Http.header req deadline_header with
  | None -> Ok (Ekg_obs.Clock.now_s () +. (st.default_deadline_ms /. 1000.))
  | Some v -> (
    match float_of_string_opt (String.trim v) with
    | Some ms when ms > 0. ->
      let ms = Float.min ms st.max_deadline_ms in
      Ok (Ekg_obs.Clock.now_s () +. (ms /. 1000.))
    | _ ->
      Error
        ("invalid X-Ekg-Deadline-Ms header: " ^ v
       ^ " (expected a positive millisecond count)"))

(* --- endpoint handlers ----------------------------------------------------- *)

let health st =
  json_response 200
    (Json.Obj
       [
         "status", Json.str "ok";
         "uptime_seconds", Json.num (Unix.gettimeofday () -. st.started_at);
         "sessions", Json.int (Registry.count st.registry);
       ])

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec at i =
    if i + nl > hl then false
    else String.sub haystack i nl = needle || at (i + 1)
  in
  nl = 0 || at 0

let wants_prometheus (req : Http.request) =
  match List.assoc_opt "format" req.query with
  | Some "prometheus" -> true
  | Some _ -> false
  | None -> (
    match Http.header req "accept" with
    | Some accept -> contains accept "text/plain"
    | None -> false)

(* --- the metrics document --------------------------------------------------------

   One registry holds every series; the JSON form reads the request
   series back as one snapshot, as [account] records them in one
   batch, so it never sees a request half counted. *)

let metrics_json ~uptime_s view =
  let count ?labels family =
    Json.int
      (int_of_float
         (Option.value ~default:0. (Ekg_obs.Metrics.get view ?labels family)))
  in
  let latency h =
    let open Ekg_obs in
    Json.Obj
      [
        "count", Json.int (Hist.count h);
        "sum", Json.num (Hist.sum_ms h);
        "max", Json.num (Hist.max_ms h);
        "p50", Json.num (Hist.quantile h 0.50);
        "p95", Json.num (Hist.quantile h 0.95);
        "p99", Json.num (Hist.quantile h 0.99);
      ]
  in
  let endpoints =
    Ekg_obs.Metrics.histograms view duration_metric
    |> List.map (fun (labels, h) -> List.assoc "endpoint" labels, (labels, h))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (endpoint, (labels, h)) ->
           ( endpoint,
             Json.Obj
               [
                 "requests", count ~labels endpoint_requests_metric;
                 "errors", count ~labels endpoint_errors_metric;
                 "latency_ms", latency h;
               ] ))
  in
  Json.Obj
    [
      "uptime_seconds", Json.num uptime_s;
      "requests_total", count requests_metric;
      "errors_total", count errors_metric;
      ( "session_cache",
        Json.Obj
          [
            "hits", count Registry.session_cache_hits_metric;
            "misses", count Registry.session_cache_misses_metric;
          ] );
      "endpoints", Json.Obj endpoints;
    ]

let metrics_doc st (req : Http.request) =
  let uptime_s = Unix.gettimeofday () -. st.started_at in
  if wants_prometheus req then begin
    (* the runtime gauges are sampled on scrape; no domain refreshes them *)
    ignore (Ekg_obs.Runtime.sample st.runtime);
    Ekg_obs.Metrics.set st.obs uptime_metric uptime_s;
    Http.response ~content_type:"text/plain; version=0.0.4" 200
      (Ekg_obs.Metrics.to_prometheus st.obs)
  end
  else
    json_response 200 (Ekg_obs.Metrics.snapshot st.obs (metrics_json ~uptime_s))

let delete_session st id =
  match Registry.remove st.registry id with
  | None -> Errors.response Errors.Session_not_found ("no such session: " ^ id)
  | Some session ->
    json_response 200
      (Json.Obj [ "id", Json.str session.id; "deleted", Json.bool true ])

let list_sessions st =
  json_response 200
    (Json.Obj
       [
         ( "sessions",
           Json.Arr (List.map Registry.session_json (Registry.list st.registry)) );
       ])

let create_session st (req : Http.request) =
  match Json.parse req.body with
  | Error e -> Errors.response Errors.Parse_error e
  | Ok body -> (
    match Registry.spec_of_json body with
    | Error e -> Errors.response Errors.Invalid_request e
    | Ok (spec, name) -> (
      match Registry.add st.registry ?name spec with
      | Error e -> Errors.response Errors.Invalid_program e
      | Ok session -> json_response 201 (Registry.session_json session)))

let templates (session : Registry.session) =
  let family tpls =
    Json.Obj
      (List.map
         (fun (name, tpl) -> name, Json.str (Template.skeleton tpl))
         tpls)
  in
  json_response 200
    (Json.Obj
       [
         "session", Json.str session.id;
         "deterministic", family session.pipeline.Pipeline.deterministic;
         "enhanced", family session.pipeline.Pipeline.enhanced;
       ])

let session_trace (session : Registry.session) =
  match Registry.last_trace session with
  | None ->
    Errors.response Errors.No_trace
      ("session " ^ session.id
     ^ " has no trace yet; POST /v1/sessions/" ^ session.id
     ^ "/explain records one")
  | Some span -> Http.response 200 (Ekg_obs.Trace.span_to_json span)

let explanation_json (e : Pipeline.explanation) =
  Json.Obj
    [
      "fact", Json.str (Fact.to_string e.fact);
      "text", Json.str e.text;
      "deterministic_text", Json.str e.deterministic_text;
      "paths_used", Json.Arr (List.map Json.str e.paths_used);
      "proof_steps", Json.int (Proof.length e.proof);
    ]

let chase_error_response st err =
  let code, message, detail = Errors.of_chase err in
  if code = Errors.Deadline_exceeded then
    Ekg_obs.Metrics.incr st.obs deadline_metric;
  Errors.response ~detail code message

let strategy_of_param = function
  | Some "shortest" -> Ok `Shortest
  | Some "primary" | None -> Ok `Primary
  | Some other -> Error ("unknown strategy: " ^ other ^ " (primary|shortest)")

let strategy_of body = strategy_of_param (Json.mem_str "strategy" body)

(* --- the shared read-surface pagination envelope -----------------------------

   [GET|POST /…/explain] and [GET|POST /…/query] page their result
   lists the same way: [limit] (default 50, capped at 500) and an opaque [cursor]
   from the previous page's [page.next_cursor].  The response carries
   [total] plus a [page] object; [next_cursor] is null on the last
   page.  Result lists are canonically ordered, so a cursor is stable
   under re-query as long as no fact update intervenes. *)

let page_default_limit = 50
let page_max_limit = 500

let paging ~limit ~cursor =
  let parsed_limit =
    match limit with
    | None -> Ok page_default_limit
    | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok (min n page_max_limit)
      | _ -> Error ("invalid limit: " ^ s ^ " (a positive integer)"))
  in
  match parsed_limit with
  | Error _ as e -> e
  | Ok lim -> (
    match cursor with
    | None -> Ok (lim, 0)
    | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok (lim, n)
      | _ -> Error ("invalid cursor: " ^ s)))

let page_slice ~limit ~offset items =
  List.filteri (fun i _ -> i >= offset && i < offset + limit) items

let page_json ~total ~limit ~offset ~served =
  let next = offset + served in
  Json.Obj
    [
      "limit", Json.int limit;
      "cursor", Json.str (string_of_int offset);
      ( "next_cursor",
        if served > 0 && next < total then Json.str (string_of_int next)
        else Json.Null );
    ]

(* The read endpoints' parameters: the URL's on GET, the JSON body's
   members on POST, where an integral number stands for its decimal
   text (["limit": 1]). *)
let read_params (req : Http.request) =
  match req.meth with
  | Http.GET -> Ok (fun k -> List.assoc_opt k req.query)
  | _ ->
    Result.map
      (fun body k ->
        match Json.member k body with
        | Some (Json.Num n) when Float.is_integer n ->
          Some (string_of_int (int_of_float n))
        | _ -> Json.mem_str k body)
      (Json.parse req.body)

let deadline_budget deadline_s =
  { Chase.unlimited with deadline_s = Some deadline_s }

(* A session read runs under one root span, labelled with the trace id
   and the session; once finished, the span is the session's last
   trace ([GET /v1/sessions/:id/trace]). *)
let traced st ~trace_id (session : Registry.session) name labels k =
  let root = ref None in
  let resp =
    Ekg_obs.Trace.with_span st.tracer
      ~labels:(("trace_id", trace_id) :: ("session", session.id) :: labels)
      name
      (fun span ->
        root := Some span;
        k span)
  in
  (* the span is finished (duration set) once with_span returns *)
  Option.iter (Registry.set_trace session) !root;
  resp

(* An explain request's one materialization, as its root span's
   "chase" child *)
let materialize_in st ~deadline_s ~span session =
  Ekg_obs.Trace.with_span st.tracer ~parent:span "chase" (fun chase_span ->
      Registry.materialize ~budget:(deadline_budget deadline_s)
        ~tracer:st.tracer ~parent:chase_span st.registry session)

(* An explain query's atom.  It must parse, and the session's program
   must define its predicate, as the query lane requires: either is the
   caller's error, answered before any chase. *)
let explain_atom (session : Registry.session) qtext =
  match Ekg_datalog.Parser.parse_atom qtext with
  | Error e -> Error ("query: " ^ e)
  | Ok atom -> (
    match Pipeline.unknown_pred session.pipeline atom.Ekg_datalog.Atom.pred with
    | Some e -> Error ("query: " ^ e)
    | None -> Ok atom)

(* One atom's explanations over the request's materialization: the step
   the explain lane and every explain:batch item share.  Past the
   deadline, verbalization degrades to template skeletons. *)
let explain_step st ~deadline_s ~span (session : Registry.session) result
    ~strategy atom =
  Pipeline.explain_atom_budgeted ~strategy
    ~degrade:(fun () -> Ekg_obs.Clock.now_s () >= deadline_s)
    ~obs:st.tracer ~parent:span session.pipeline result atom

(* --- the explain lane ---------------------------------------------------------

   [GET|POST /v1/sessions/:id/explain]: every fact matching the atom
   query (ground or not), each with its template explanation, in the
   paged envelope.  The session's materialization is built on first
   use and kept; the explanation itself is computed per request. *)

let explain_lane st ~trace_id ~deadline_s (session : Registry.session) param =
  match param "query" with
  | None ->
    Errors.response Errors.Invalid_request
      "missing \"query\" (an atom, e.g. control(\"A\", X))"
  | Some qtext -> (
    match explain_atom session qtext with
    | Error e -> Errors.response Errors.Invalid_atom e
    | Ok atom -> (
      match
        ( strategy_of_param (param "strategy"),
          paging ~limit:(param "limit") ~cursor:(param "cursor") )
      with
      | Error e, _ | _, Error e -> Errors.response Errors.Invalid_request e
      | Ok strategy, Ok (limit, offset) ->
        Registry.note_explain session;
        traced st ~trace_id session "explain-request" [ "query", qtext ]
        @@ fun span ->
        match materialize_in st ~deadline_s ~span session with
        | Error err -> chase_error_response st err
        | Ok result -> (
          match
            explain_step st ~deadline_s ~span session result ~strategy atom
          with
          | Error e -> Errors.response Errors.No_explanation e
          | Ok (explanations, degraded) ->
            Ekg_obs.Log.Ctx.put "degraded" (Ekg_obs.Log.Bool degraded);
            let total = List.length explanations in
            let served = page_slice ~limit ~offset explanations in
            json_response 200
              (Json.Obj
                 [
                   "session", Json.str session.id;
                   "query", Json.str qtext;
                   "trace_id", Json.str trace_id;
                   "degraded", Json.bool degraded;
                   "total", Json.int total;
                   ( "page",
                     page_json ~total ~limit ~offset ~served:(List.length served)
                   );
                   "explanations", Json.Arr (List.map explanation_json served);
                 ]))))

(* --- the query lane ----------------------------------------------------------

   [GET|POST /v1/sessions/:id/query]: point queries answered by one
   lookup on a hot session's served materialization, or — on a dormant
   session, which a query never materializes or waits on — by
   magic-sets specialization + a scoped chase over the session's EDB.
   The atom grammar is the explain lane's; variables are the free
   positions ("control(\"A\", X)" asks who A controls). *)

let explain_mode_of = function
  | None | Some "none" -> Ok `None
  | Some "skeleton" -> Ok `Skeleton
  | Some "full" -> Ok `Full
  | Some other -> Error ("unknown explain mode: " ^ other ^ " (none|skeleton|full)")

let query_lane st ~trace_id ~deadline_s (session : Registry.session) param =
  match param "query" with
  | None ->
    Errors.response Errors.Invalid_request
      "missing \"query\" (an atom, e.g. control(\"A\", X))"
  | Some qtext -> (
    match Ekg_datalog.Parser.parse_atom qtext with
    | Error e -> Errors.response Errors.Invalid_atom ("query: " ^ e)
    | Ok atom -> (
      match strategy_of_param (param "strategy") with
      | Error e -> Errors.response Errors.Invalid_request e
      | Ok strategy -> (
        match explain_mode_of (param "explain") with
        | Error e -> Errors.response Errors.Invalid_request e
        | Ok emode -> (
          match paging ~limit:(param "limit") ~cursor:(param "cursor") with
          | Error e -> Errors.response Errors.Invalid_request e
          | Ok (limit, offset) ->
            traced st ~trace_id session "query-request" [ "query", qtext ]
            @@ fun span ->
            match
              Registry.query ~budget:(deadline_budget deadline_s)
                ~explain:(emode <> `None) ~tracer:st.tracer ~parent:span
                st.registry session atom
            with
            | Error (`Unknown_pred e) ->
              Errors.response Errors.Invalid_atom ("query: " ^ e)
            | Error (`Chase err) -> chase_error_response st err
            | Ok outcome ->
              let result = outcome.Registry.qo_result in
              let answers = result.Pipeline.q_answers in
              let total = List.length answers in
              let served = page_slice ~limit ~offset answers in
              let answer_json (qa : Pipeline.query_answer) =
                let bindings =
                  Json.Obj
                    (List.map
                       (fun (v, value) ->
                         ( v,
                           Json.str
                             (Ekg_datalog.Term.to_string
                                (Ekg_datalog.Term.Cst value)) ))
                       (Ekg_datalog.Subst.to_list qa.Pipeline.qa_binding))
                in
                let base =
                  [
                    "fact", Json.str (Fact.to_string qa.Pipeline.qa_fact);
                    "bindings", bindings;
                  ]
                in
                match emode with
                | `None -> Json.Obj base
                | (`Skeleton | `Full) as m -> (
                  match
                    Pipeline.explain_answer ~strategy
                      ~degraded:(m = `Skeleton) ~obs:st.tracer ~parent:span
                      session.pipeline result qa
                  with
                  | Ok e ->
                    Json.Obj (base @ [ "explanation", explanation_json e ])
                  | Error msg ->
                    Json.Obj (base @ [ "explanation_error", Json.str msg ]))
              in
              json_response 200
                (Json.Obj
                   ([
                      "session", Json.str session.id;
                      "query", Json.str qtext;
                      "trace_id", Json.str trace_id;
                      ( "mode",
                        Json.str (Pipeline.mode_name result.Pipeline.q_mode) );
                    ]
                   @ (match result.Pipeline.q_fallback with
                     | None -> []
                     | Some reason -> [ "fallback", Json.str reason ])
                   @ [
                       ( "rewrite_cached",
                         Json.bool outcome.Registry.qo_rewrite_cached );
                       "cached", Json.bool outcome.Registry.qo_answer_cached;
                       "rounds", Json.int result.Pipeline.q_rounds;
                       "derived_facts", Json.int result.Pipeline.q_derived;
                       "total", Json.int total;
                       ( "page",
                         page_json ~total ~limit ~offset
                           ~served:(List.length served) );
                       "answers", Json.Arr (List.map answer_json served);
                     ]))))))

(* --- live fact updates ------------------------------------------------------ *)

(* Body: {"facts": ["own(\"A\", \"B\", 0.5)", ...]} — ground atoms in
   program syntax.  Every atom must parse, and name constants only,
   before anything is applied: a variable is the caller's error on
   either tier, answered before the registry. *)
let facts_of_body body =
  let invalid e = Error (Errors.Invalid_request, e) in
  match Json.member "facts" body with
  | None -> invalid "missing \"facts\" array"
  | Some (Json.Arr []) -> invalid "empty \"facts\" array"
  | Some (Json.Arr items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Json.Str text :: rest -> (
        match Ekg_datalog.Parser.parse_atom text with
        | Ok atom when Ekg_datalog.Atom.is_ground atom -> go (atom :: acc) rest
        | Ok _ -> Error (Errors.Invalid_atom, "fact " ^ text ^ ": not ground")
        | Error e -> invalid ("fact " ^ text ^ ": " ^ e))
      | _ -> invalid "every fact must be an atom string"
    in
    go [] items
  | Some _ -> invalid "\"facts\" must be an array of atom strings"

let update_facts op st { req; _ } deadline_s (session : Registry.session) =
  match Json.parse req.body with
  | Error e -> Errors.response Errors.Parse_error e
  | Ok body -> (
    match facts_of_body body with
    | Error (code, e) -> Errors.response code e
    | Ok atoms -> (
      match
        Registry.update_facts ~budget:(deadline_budget deadline_s) st.registry
          session op atoms
      with
      | Error err -> chase_error_response st err
      | Ok upd ->
        json_response 200
          (Json.Obj
             [
               "session", Json.str session.id;
               ( "op",
                 Json.str (match op with `Add -> "add" | `Retract -> "retract") );
               "incremental", Json.bool upd.Chase.upd_incremental;
               "rounds", Json.int upd.Chase.upd_rounds;
               "added", Json.int upd.Chase.upd_added;
               "retracted", Json.int upd.Chase.upd_retracted;
               "rederived", Json.int upd.Chase.upd_rederived;
               ( "changed_predicates",
                 Json.Arr (List.map Json.str upd.Chase.upd_changed_preds) );
             ])))

(* --- content identity -------------------------------------------------------

   [GET /v1/sessions/:id/fingerprint]: the canonical content identity
   of the session's materialization, as an MD5 hex digest of
   [Database.fingerprint] (which renders and sorts every active fact,
   so equal digests mean equal instances regardless of how the state
   was reached — cold chase, incremental maintenance, or snapshot
   restore).  The scale replay driver's identity gate compares this
   against a local cold chase on the final EDB; the full fact dump
   would be megabytes at registry scale, the digest is 32 bytes. *)
let session_fingerprint st _ deadline_s (session : Registry.session) =
  match
    Registry.materialize ~budget:(deadline_budget deadline_s) st.registry session
  with
  | Error err -> chase_error_response st err
  | Ok result ->
    let canonical = Database.fingerprint result.Chase.db in
    json_response 200
      (Json.Obj
         [
           "session", Json.str session.id;
           "algo", Json.str "md5";
           "fingerprint", Json.str (Digest.to_hex (Digest.string canonical));
           "facts", Json.int (Database.active_size result.Chase.db);
           "derived", Json.int result.Chase.derived_count;
           "rounds", Json.int result.Chase.rounds;
         ])

(* --- batch explain ---------------------------------------------------------- *)

let batch_item_error ?query code message =
  Json.Obj
    ((match query with None -> [] | Some q -> [ "query", Json.str q ])
    @ [
        "status", Json.str "error";
        ( "error",
          Json.Obj
            [
              "code", Json.str (Errors.id code);
              "message", Json.str message;
              "retryable", Json.bool (Errors.retryable code);
            ] );
      ])

(* One item is a bare query string or {"query", "strategy"?};
   [default_strategy] is the request-level strategy. *)
let batch_item_spec ~default_strategy = function
  | Json.Str q -> Ok (q, default_strategy)
  | Json.Obj _ as o -> (
    match Json.mem_str "query" o with
    | None -> Error "item is missing its \"query\" field"
    | Some q -> (
      match Json.mem_str "strategy" o with
      | None -> Ok (q, default_strategy)
      | Some _ -> Result.map (fun s -> q, s) (strategy_of o)))
  | _ -> Error "each item must be a query string or an object with \"query\""

let explain_batch st { req; trace_id; _ } deadline_s (session : Registry.session) =
  match Json.parse req.body with
  | Error e -> Errors.response Errors.Parse_error e
  | Ok body -> (
    let items =
      match body with
      | Json.Arr items -> Ok (items, `Primary)
      | Json.Obj _ -> (
        match Json.member "queries" body with
        | Some (Json.Arr items) ->
          Result.map (fun s -> items, s) (strategy_of body)
        | Some _ -> Error "\"queries\" must be an array"
        | None -> Error "missing \"queries\" array")
      | _ -> Error "body must be an array of queries or {\"queries\": [...]}"
    in
    match items with
    | Error e -> Errors.response Errors.Invalid_request e
    | Ok ([], _) -> Errors.response Errors.Invalid_request "empty batch"
    | Ok (items, default_strategy) -> (
      (* every item's query is checked before the chase *)
      let checked =
        List.map
          (fun item ->
            match batch_item_spec ~default_strategy item with
            | Error e -> Error (batch_item_error Errors.Invalid_request e)
            | Ok (query, strategy) -> (
              match explain_atom session query with
              | Error e -> Error (batch_item_error ~query Errors.Invalid_atom e)
              | Ok atom -> Ok (query, strategy, atom)))
          items
      in
      Registry.note_explain session;
      traced st ~trace_id session "explain-batch-request"
        [ "items", string_of_int (List.length items) ]
      @@ fun span ->
      (* one chase shared by every item — the whole point of batching —
         run by the first item that passed its check *)
      let chase = lazy (materialize_in st ~deadline_s ~span session) in
      let explain_item = function
        | Error refused -> Ok refused
        | Ok (query, strategy, atom) ->
          Result.map
            (fun result ->
              if Ekg_obs.Clock.now_s () >= deadline_s then
                (* past the deadline: later items are not even attempted *)
                batch_item_error ~query Errors.Deadline_exceeded
                  "request deadline exhausted before this item"
              else
                match
                  explain_step st ~deadline_s ~span session result ~strategy atom
                with
                | Error e -> batch_item_error ~query Errors.No_explanation e
                | Ok (explanations, degraded) ->
                  Json.Obj
                    [
                      "query", Json.str query;
                      "status", Json.str "ok";
                      "degraded", Json.bool degraded;
                      "count", Json.int (List.length explanations);
                      ( "explanations",
                        Json.Arr (List.map explanation_json explanations) );
                    ])
            (Lazy.force chase)
      in
      let results = List.map explain_item checked in
      match List.find_map (function Error e -> Some e | Ok _ -> None) results with
      | Some err -> chase_error_response st err
      | None ->
        let results = List.map Result.get_ok results in
        let ok, failed =
          List.partition
            (fun item -> Json.mem_str "status" item = Some "ok")
            results
        in
        json_response 200
          (Json.Obj
             [
               "session", Json.str session.id;
               "trace_id", Json.str trace_id;
               "count", Json.int (List.length results);
               "ok", Json.int (List.length ok);
               "failed", Json.int (List.length failed);
               "items", Json.Arr results;
             ])))

(* --- live debug introspection ------------------------------------------------

   [GET /v1/debug/*]: operational state rendered live, for humans and
   scripts mid-incident — no scrape pipeline required. *)

let log_value_json : Ekg_obs.Log.value -> Json.t = function
  | Ekg_obs.Log.Bool b -> Json.bool b
  | Ekg_obs.Log.Int i -> Json.int i
  | Ekg_obs.Log.Float f -> Json.num f
  | Ekg_obs.Log.Str s -> Json.str s

let debug_runtime st =
  let samples = Ekg_obs.Runtime.sample st.runtime in
  json_response 200
    (Json.Obj
       [
         "uptime_seconds", Json.num (Unix.gettimeofday () -. st.started_at);
         ( "gauges",
           Json.Arr
             (List.map
                (fun (s : Ekg_obs.Runtime.sample) ->
                  Json.Obj
                    ([ "name", Json.str (Ekg_obs.Metrics.name s.s_gauge) ]
                    @ (if s.s_labels = [] then []
                       else
                         [
                           ( "labels",
                             Json.Obj
                               (List.map
                                  (fun (k, v) -> k, Json.str v)
                                  s.s_labels) );
                         ])
                    @ [ "value", Json.num s.s_value ]))
                samples) );
         ( "log",
           Json.Obj
             [
               ( "level",
                 Json.str (Ekg_obs.Log.level_to_string (Ekg_obs.Log.level st.log))
               );
               ( "slowlog_threshold_ms",
                 Json.num (Ekg_obs.Log.slow_threshold_ms st.log) );
               "events_emitted", Json.int (Ekg_obs.Log.emitted st.log);
             ] );
       ])

let debug_sessions st =
  let sessions = Registry.list st.registry in
  json_response 200
    (Json.Obj
       [
         "count", Json.int (List.length sessions);
         "hot", Json.int (Registry.hot_count st.registry);
         "sessions", Json.Arr (List.map Registry.session_json sessions);
       ])

let debug_inflight st =
  let now = Unix.gettimeofday () in
  let entries =
    Ekg_obs.Lock.with_lock st.inflight_lock (fun () ->
        Hashtbl.fold (fun _ e acc -> e :: acc) st.inflight [])
    |> List.sort (fun a b -> Float.compare a.if_started b.if_started)
  in
  json_response 200
    (Json.Obj
       [
         "count", Json.int (List.length entries);
         ( "inflight",
           Json.Arr
             (List.map
                (fun e ->
                  Json.Obj
                    [
                      "trace_id", Json.str e.if_trace;
                      "method", Json.str e.if_meth;
                      "target", Json.str e.if_target;
                      ( "elapsed_ms",
                        Json.num (Float.max 0. ((now -. e.if_started) *. 1000.))
                      );
                    ])
                entries) );
       ])

let debug_slowlog st =
  let entries = Ekg_obs.Log.slow_entries st.log in
  json_response 200
    (Json.Obj
       [
         "threshold_ms", Json.num (Ekg_obs.Log.slow_threshold_ms st.log);
         "count", Json.int (List.length entries);
         ( "slow",
           Json.Arr
             (List.map
                (fun (e : Ekg_obs.Log.entry) ->
                  Json.Obj
                    ([
                       "ts", Json.num e.e_ts;
                       "event", Json.str e.e_event;
                       "duration_ms", Json.num e.e_duration_ms;
                     ]
                    @ List.map (fun (k, v) -> k, log_value_json v) e.e_fields))
                entries) );
       ])

(* --- the route table ------------------------------------------------------------

   Every v1 route is declared once in [routes]; dispatch, the 405 and
   its [Allow], the metric label, [classify], the legacy redirects and
   the [Delay] fault's scope are all read off it. *)

type cls = Probe | Session | Debug

type route = {
  meth : Http.meth;
  segs : string list;  (* the path literal below /v1; [":id"] takes any segment *)
  cls : cls;
  label : string;   (* "GET /v1/sessions/:id/query" *)
  handler : state -> call -> Http.response;
}

let route meth path cls handler =
  match String.split_on_char '/' path with
  | "" :: "v1" :: segs -> { meth; segs; cls; label = Http.meth_to_string meth ^ " " ^ path; handler }
  | _ -> invalid_arg ("Router.route: not a /v1 path: " ^ path)

let with_session st id k =
  match Registry.find st.registry id with
  | None -> Errors.response Errors.Session_not_found ("no such session: " ^ id)
  | Some session ->
    Ekg_obs.Log.Ctx.put "session" (Ekg_obs.Log.Str id);
    k session

(* a session route that runs under the request's deadline: its handler
   takes the state, the call, the deadline and the session *)
let timed k st c =
  match c.deadline with
  | Error e -> Errors.response Errors.Invalid_request e
  | Ok deadline_s -> with_session st c.id (k st c deadline_s)

(* the GET and POST forms of a read decode their parameters, then share
   one lane *)
let read lane =
  timed (fun st c deadline_s session ->
      match read_params c.req with
      | Error e -> Errors.response Errors.Parse_error e
      | Ok param -> lane st ~trace_id:c.trace_id ~deadline_s session param)

let routes =
  let open Http in
  [
    route GET "/v1/health" Probe (fun st _ -> health st);
    route GET "/v1/metrics" Probe (fun st c -> metrics_doc st c.req);
    route GET "/v1/sessions" Session (fun st _ -> list_sessions st);
    route POST "/v1/sessions" Session (fun st c -> create_session st c.req);
    route DELETE "/v1/sessions/:id" Session (fun st c -> delete_session st c.id);
    route GET "/v1/sessions/:id/explain" Session (read explain_lane);
    route POST "/v1/sessions/:id/explain" Session (read explain_lane);
    route POST "/v1/sessions/:id/explain:batch" Session (timed explain_batch);
    route GET "/v1/sessions/:id/query" Session (read query_lane);
    route POST "/v1/sessions/:id/query" Session (read query_lane);
    route POST "/v1/sessions/:id/facts" Session (timed (update_facts `Add));
    route DELETE "/v1/sessions/:id/facts" Session (timed (update_facts `Retract));
    route GET "/v1/sessions/:id/fingerprint" Session (timed session_fingerprint);
    route GET "/v1/sessions/:id/templates" Session
      (fun st c -> with_session st c.id templates);
    route GET "/v1/sessions/:id/trace" Session
      (fun st c -> with_session st c.id session_trace);
    route GET "/v1/debug/runtime" Debug (fun st _ -> debug_runtime st);
    route GET "/v1/debug/sessions" Debug (fun st _ -> debug_sessions st);
    route GET "/v1/debug/inflight" Debug (fun st _ -> debug_inflight st);
    route GET "/v1/debug/slowlog" Debug (fun st _ -> debug_slowlog st);
  ]

let rec fits segs path =
  match segs, path with
  | [], [] -> true
  | s :: segs, p :: path -> (String.equal s p || String.equal s ":id") && fits segs path
  | _ -> false

let rec id_of segs path =
  match segs, path with
  | ":id" :: _, p :: _ -> p
  | _ :: segs, _ :: path -> id_of segs path
  | _ -> ""

let find meth path = List.find_opt (fun r -> fits r.segs path && r.meth = meth) routes

(* A pre-/v1 path moved when it names the root segment of a probe or
   session route, or lies below a root that has deeper routes:
   [/health], [/metrics] and everything under [/sessions]. *)
let legacy = function
  | [] -> false
  | first :: rest ->
    List.exists
      (fun r -> r.cls <> Debug && List.hd r.segs = first && (rest = [] || List.length r.segs > 1))
      routes

let classify (req : Http.request) =
  let cls path = Option.map (fun r -> r.cls) (find req.meth path) in
  match req.path with
  | "v1" :: path -> cls path
  | path -> if legacy path then cls path else None

let unmatched (req : Http.request) =
  "(unmatched)", Errors.response Errors.Not_found ("no route for " ^ req.target)

let dispatch st ~trace_id ~deadline (req : Http.request) =
  match req.path with
  | "v1" :: path -> (
    match find req.meth path with
    | Some r -> r.label, r.handler st { req; trace_id; deadline; id = id_of r.segs path }
    | None -> (
      match List.filter (fun r -> fits r.segs path) routes with
      | [] -> unmatched req
      | known ->
        let meth = Http.meth_to_string req.meth in
        ( meth ^ " (known path)",
          Errors.response
            ~headers:
              [ "Allow", String.concat ", " (List.map (fun r -> Http.meth_to_string r.meth) known) ]
            Errors.Method_not_allowed
            ("method " ^ meth ^ " not allowed on " ^ req.target) )))
  | path when legacy path ->
    let location = "/v1" ^ req.target in
    ( "(legacy-redirect)",
      Errors.response
        ~detail:[ "location", Json.str location ]
        ~headers:[ "Location", location; "Deprecation", "true" ]
        Errors.Moved_permanently
        ("this endpoint moved to " ^ location) )
  | _ -> unmatched req

(* The delay fault slows every path under a session route's root, with
   or without /v1, matched or not: probes and the debug surface must
   stay responsive so they observe the overload instead of joining it. *)
let fault_delay st (req : Http.request) =
  match st.fault with
  | Fault.Delay d -> (
    match (match req.path with "v1" :: path -> path | path -> path) with
    | first :: _ when List.exists (fun r -> r.cls = Session && List.hd r.segs = first) routes ->
      Unix.sleepf d
    | _ -> ())
  | _ -> ()

(* --- the one reply path ----------------------------------------------------------

   Every reply — routed, shed, never parsed or timed out — counts once
   under its label, emits one wide event and carries [X-Ekg-Trace-Id].
   The event's scope opens with the admission wait and every other
   field's default, so each field is present in every event and a
   later put overrides it in place. *)

let wide_defaults =
  Ekg_obs.Log.
    [
      "session", Str "";
      "cache_hit", Bool false;
      "degraded", Bool false;
      "chase_source", Str "none";
      "chase_rounds", Int 0;
      "chase_facts", Int 0;
      "plan_reorders", Int 0;
      "snapshot_scheduled", Bool false;
      "shed", Bool false;
    ]

let account ?(queue_wait_s = 0.) st ~meth ~target answer =
  let t0 = Unix.gettimeofday () in
  let trace_id = Ekg_obs.Trace.next_trace_id st.tracer in
  let gc0 = Gc.quick_stat () in
  let (label, resp), fields =
    Ekg_obs.Log.(
      Ctx.collect
        ~init:
          (("error_code", Str "") :: ("queue_wait_ms", Float (queue_wait_s *. 1000.))
          :: wide_defaults)
        (fun () -> answer trace_id))
  in
  let gc1 = Gc.quick_stat () in
  let dur_s = Unix.gettimeofday () -. t0 in
  let status = resp.Http.status in
  (* one recording: both request series, both error series (adding 0
     gives a new label its error series at 0) and the latency *)
  let labels = [ "endpoint", label ] and error = if status >= 400 then 1. else 0. in
  Ekg_obs.Metrics.record st.obs
    [
      Add (requests_metric, [], 1.);
      Add (errors_metric, [], error);
      Add (endpoint_requests_metric, labels, 1.);
      Add (endpoint_errors_metric, labels, error);
      Observe (duration_metric, labels, dur_s);
    ];
  let open Ekg_obs.Log in
  let fields =
    ("trace_id", Str trace_id) :: ("method", Str meth) :: ("target", Str target)
    :: ("endpoint", Str label) :: ("status", Int status)
    :: (fields
       @ [
           "gc_minor_collections", Int (gc1.minor_collections - gc0.minor_collections);
           "gc_major_collections", Int (gc1.major_collections - gc0.major_collections);
           "gc_promoted_words", Float (gc1.promoted_words -. gc0.promoted_words);
           "gc_minor_words", Float (gc1.minor_words -. gc0.minor_words);
         ])
  in
  let level = if status >= 500 then Error else if status >= 400 then Warn else Info in
  event st.log ~duration_ms:(dur_s *. 1000.) level "request" fields;
  { resp with Http.resp_headers = ("X-Ekg-Trace-Id", trace_id) :: resp.Http.resp_headers }

let handle ?(queue_wait_s = 0.) st (req : Http.request) =
  let meth = Http.meth_to_string req.meth in
  account ~queue_wait_s st ~meth ~target:req.target @@ fun trace_id ->
  (* the deadline clock starts when handling does — before any injected
     delay — so a slow handler consumes the request's budget *)
  let deadline = request_deadline st req in
  let if_id = Atomic.fetch_and_add st.inflight_seq 1 in
  let entry =
    { if_trace = trace_id; if_meth = meth; if_target = req.target; if_started = Unix.gettimeofday () }
  in
  Ekg_obs.Lock.with_lock st.inflight_lock (fun () -> Hashtbl.replace st.inflight if_id entry);
  let answer =
    try
      fault_delay st req;
      dispatch st ~trace_id ~deadline req
    with exn ->
      ( "(handler-exception)",
        Errors.response Errors.Internal_error
          ("internal error: " ^ Printexc.to_string exn) )
  in
  Ekg_obs.Lock.with_lock st.inflight_lock (fun () -> Hashtbl.remove st.inflight if_id);
  answer

type refusal = Shed of Http.request | Unparsed of Http.error | Timed_out

let refuse st = function
  | Shed req ->
    account st ~meth:(Http.meth_to_string req.meth) ~target:req.target @@ fun _ ->
    Ekg_obs.Metrics.incr st.obs shed_metric;
    Ekg_obs.Log.Ctx.put "shed" (Ekg_obs.Log.Bool true);
    ( "(shed)",
      Errors.response
        ~headers:[ "Retry-After", "1" ]
        Errors.Overloaded
        ("admission queue past high-water mark; retry " ^ req.target ^ " later") )
  | Unparsed err ->
    account st ~meth:"" ~target:"" @@ fun _ ->
    let code =
      match err with
      | Http.Bad_request _ | Http.Closed -> Errors.Parse_error
      | Http.Length_required -> Errors.Length_required
      | Http.Payload_too_large _ -> Errors.Payload_too_large
      | Http.Headers_too_large _ -> Errors.Headers_too_large
    in
    "(parse-error)", Errors.response code (Http.error_message err)
  | Timed_out ->
    account st ~meth:"" ~target:"" @@ fun _ ->
    ( "(request-timeout)",
      Errors.response Errors.Request_timeout "the request was not complete by its read deadline" )

let set_queue_depth st depth =
  Ekg_obs.Metrics.set st.obs queue_depth_metric (float_of_int depth)
