(* Closed-loop traffic against the explanation service and the
   correctness gates on what it answers.

   One client sends every request, and sends the next only when the
   previous one has been answered: a CDC connector waits for
   acknowledgements, an analyst for the explanation on screen.  One
   client and not several: on a host of two cores, concurrent clients
   and the server's domains take turns on the cores, and how a read
   overlaps a write then depends on the scheduler more than on the
   program, so that the run-to-run spread measures the host.  The same
   client code drives a real server over loopback HTTP and, in the
   traced run, [Router.handle] in-process: only the [transport]
   differs. *)

open Ekg_datalog
module Json = Ekg_server.Json
module Cdc = Ekg_datagen.Cdc
module W = Workload

(* seconds on the monotonic clock, at nanosecond resolution *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [Write] is one update request, [Batch] one acknowledged CDC batch *)
type kind = Create | First_explain | Write | Batch | Query | Explain | Other

type sample = {
  kind : kind;
  t0 : float;
  t1 : float;
  bytes : int;  (** response body size *)
  cached : bool;  (** traced runs: the response's ["cached"] flag *)
  rewrite_cached : bool;  (** traced runs: the query's ["rewrite_cached"] flag *)
}

let ms s = (s.t1 -. s.t0) *. 1000.

(* the latencies, in ms, of the samples of one kind *)
let durations kind samples =
  List.filter_map (fun s -> if s.kind = kind then Some (ms s) else None) samples

type transport = {
  call : string -> string -> string -> int * string * float * float;
      (** [call meth target body] is [(status, body, t0, t1)], timed
          around the request alone; transport failures raise *)
  traced : bool;
}

let http port =
  {
    call =
      (fun meth target body ->
        let t0 = now () in
        let status, resp = Loopback.request ~port meth target body in
        status, resp, t0, now ());
    traced = false;
  }

(* what a gate compares a response against *)
type target = Answers of string  (** a /query page for this source *) | Texts of Atom.t

type client = {
  tr : transport;
  mutable samples : sample list;
  mutable setups : (float * float) list;  (** (end time, seconds) per cold set-up *)
  mutable acked : ([ `Add | `Retract ] * Atom.t list) list;  (** newest first *)
  mutable kept : (target * string) list;  (** responses to check after the window *)
  mutable facts : int;  (** served facts, from the last fingerprint *)
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : int;
  mutable errors : string list;
}

let client tr =
  { tr; samples = []; setups = []; acked = []; kept = []; facts = 0; attempted = 0; failed = 0;
    mismatches = 0; errors = [] }

let note_failure c msg =
  c.failed <- c.failed + 1;
  if List.length c.errors < 5 then c.errors <- msg :: c.errors

let mismatch c msg =
  c.mismatches <- c.mismatches + 1;
  note_failure c msg

let clip s = if String.length s > 200 then String.sub s 0 200 ^ "..." else s

(* One timed operation; [Some (sample, body)] when it answered 2xx.
   Failed requests count against the run and carry no latency sample. *)
let exec c kind meth target body =
  c.attempted <- c.attempted + 1;
  match c.tr.call meth target body with
  | exception e ->
    note_failure c (Printf.sprintf "%s %s: %s" meth target (Printexc.to_string e));
    None
  | status, resp, t0, t1 ->
    if status < 200 || status > 299 then begin
      note_failure c (Printf.sprintf "%s %s -> %d %s" meth target status (clip resp));
      None
    end
    else begin
      let flag =
        if c.tr.traced then
          match Json.parse resp with
          | Ok j -> fun key -> Json.mem_bool key j = Some true
          | Error _ -> fun _ -> false
        else fun _ -> false
      in
      let s =
        { kind; t0; t1; bytes = String.length resp; cached = flag "cached";
          rewrite_cached = flag "rewrite_cached" }
      in
      c.samples <- s :: c.samples;
      Some (s, resp)
    end

(* --- requests ------------------------------------------------------------------- *)

let urlencode s =
  let buf = Buffer.create (String.length s * 2) in
  String.iter
    (function
      | ('A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~') as ch ->
        Buffer.add_char buf ch
      | ch -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code ch)))
    s;
  Buffer.contents buf

let session sid = "/v1/sessions/" ^ sid

let create_body =
  {|{"name":"ekgbench","program_path":"program.vada","glossary_path":"glossary.dict","facts_dir":"."}|}

let explain_target sid goal =
  session sid ^ "/explain?query=" ^ urlencode (Atom.to_string goal)

let query_target inp sid src =
  Printf.sprintf "%s/query?limit=%d&query=%s" (session sid) W.query_limit
    (urlencode (W.query_atom inp src))

let facts_body atoms =
  Json.to_string
    (Json.Obj [ "facts", Json.Arr (List.map (fun a -> Json.str (Atom.to_string a)) atoms) ])

let create c =
  match exec c Create "POST" "/v1/sessions" create_body with
  | None -> None
  | Some (s, body) -> (
    match Result.to_option (Json.parse body) |> Fun.flip Option.bind (Json.mem_str "id") with
    | Some sid -> Some (sid, s)
    | None ->
      note_failure c "session creation answered without an id";
      None)

(* the second half of a cold set-up: the first explanation a freshly
   loaded session serves (it pays for the cold chase) *)
let first_explain c (inp : W.inputs) sid (created : sample) =
  match exec c First_explain "GET" (explain_target sid inp.goals.(0)) "" with
  | None -> None
  | Some (s, body) ->
    c.setups <- (s.t1, s.t1 -. s.t0 +. (created.t1 -. created.t0)) :: c.setups;
    Some body

let drop c sid = ignore (exec c Other "DELETE" (session sid) "")

let expect_fingerprint c sid ~expected what =
  match exec c Other "GET" (session sid ^ "/fingerprint") "" with
  | None -> ()
  | Some (_, body) -> (
    match Json.parse body with
    | Ok j when Json.mem_str "fingerprint" j = Some expected ->
      c.facts <- Option.value ~default:0 (Json.mem_int "facts" j)
    | _ -> mismatch c (what ^ ": served fingerprint differs from the in-process chase"))

let write c sid op atoms =
  let meth = match op with `Add -> "POST" | `Retract -> "DELETE" in
  match exec c Write meth (session sid ^ "/facts") (facts_body atoms) with
  | Some (s, _) ->
    c.acked <- (op, atoms) :: c.acked;
    Some s
  | None -> None

(* One CDC batch: DELETE its retractions, then POST its additions.  The
   connector's unit of work is the batch, so a fully acknowledged batch
   is also one [Batch] sample spanning both requests. *)
let batch c sid (b : Cdc.batch) =
  let parts =
    List.filter_map
      (fun (op, atoms) -> if atoms = [] then None else Some (write c sid op atoms))
      [ `Retract, b.retracts; `Add, b.adds ]
  in
  match List.filter_map Fun.id parts with
  | first :: _ as acked when List.length acked = List.length parts ->
    let t1 = (List.nth acked (List.length acked - 1)).t1 in
    c.samples <- { first with kind = Batch; t1; bytes = 0 } :: c.samples
  | _ -> ()

let read_query c inp sid src = exec c Query "GET" (query_target inp sid src) ""
let read_explain c sid goal = exec c Explain "GET" (explain_target sid goal) ""
let keep c t body = c.kept <- (t, body) :: c.kept

(* --- the cycle each workload repeats ---------------------------------------------- *)

(* cdc-*: epochs.  Each loads the KG afresh (a cold set-up), streams the
   CDC log's batches in order, each followed by a point query and an
   explanation — the first reads after the update, so each pays for
   what the batch invalidated — checks the result and drops the
   session.  A session that streams for long keeps what it retracted as
   inactive rows, and close link's copy-on-write updates slow down with
   them: fresh epochs keep a fast run and a slow one on the same
   states.  Returns the session the window ended in, checked after it. *)
let cdc_epochs c (inp : W.inputs) ~epoch_digest ~stop =
  let n = Array.length inp.log in
  let rec epoch k =
    if stop () then None
    else
      match create c with
      | None -> None
      | Some (sid, created) ->
        ignore (first_explain c inp sid created);
        c.acked <- [];
        let rec go i k =
          if i >= n || stop () then i, k
          else begin
            batch c sid inp.log.(i);
            ignore (read_query c inp sid (W.nth inp.sources k));
            ignore (read_explain c sid (W.nth inp.goals k));
            go (i + 1) (k + 1)
          end
        in
        let i, k = go 0 k in
        if i < n then Some sid
        else begin
          expect_fingerprint c sid ~expected:(Lazy.force epoch_digest) "after an epoch";
          drop c sid;
          epoch k
        end
  in
  epoch 0

(* cold-load: load, apply the pending CDC backlog (the whole log) to the
   still-dormant session, first explanation (the cold chase), four
   explanations and four queries on targets no earlier load read, check
   the load, drop it — again and again *)
let cold_loads c (inp : W.inputs) ~backlog_digest ~stop =
  let rec rep r =
    if not (stop ()) then
      match create c with
      | None -> () (* creation itself failing: stop rather than spin *)
      | Some (sid, created) ->
        Array.iter (batch c sid) inp.log;
        Option.iter (keep c (Texts inp.goals.(0))) (first_explain c inp sid created);
        for i = 0 to 3 do
          (* goal 0 is the set-up's explanation, already cached *)
          let goal = W.nth inp.goals ((4 * r) + i + 1) and src = W.nth inp.sources ((4 * r) + i) in
          Option.iter (fun (_, b) -> keep c (Texts goal) b) (read_explain c sid goal);
          Option.iter (fun (_, b) -> keep c (Answers src) b) (read_query c inp sid src)
        done;
        expect_fingerprint c sid ~expected:backlog_digest "cold load";
        drop c sid;
        rep (r + 1)
  in
  rep 0

(* --- gates ------------------------------------------------------------------------ *)

let log_of_acked acked =
  List.rev acked
  |> List.mapi (fun seq (op, atoms) ->
         match op with
         | `Add -> { Cdc.seq; adds = atoms; retracts = [] }
         | `Retract -> { Cdc.seq; adds = []; retracts = atoms })

(* the served materialization must equal a cold chase over the base
   plus exactly the acknowledged updates *)
let final_digest (inp : W.inputs) acked =
  W.digest (W.chase inp.pipeline (Cdc.final_edb ~base:inp.base (log_of_acked acked)))

let strs key j = Option.value ~default:[] (Option.bind (Json.member key j) Json.get_arr)

let check_kept c (inp : W.inputs) reference kept =
  let answers = Hashtbl.create 64 and texts = Hashtbl.create 64 in
  let memo tbl key f =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
      let v = f () in
      Hashtbl.add tbl key v;
      v
  in
  List.iter
    (fun (t, body) ->
      match Json.parse body, t with
      | Error e, _ -> mismatch c ("unparsable response: " ^ e)
      | Ok j, Answers src ->
        let total, page = memo answers src (fun () -> W.expected_answers inp reference src) in
        let served = List.filter_map (Json.mem_str "fact") (strs "answers" j) in
        if Json.mem_int "total" j <> Some total || served <> page then
          mismatch c ("query answers differ from the reference for " ^ src)
      | Ok j, Texts goal ->
        let expected = memo texts goal (fun () -> W.expected_texts inp reference goal) in
        if List.filter_map (Json.mem_str "text") (strs "explanations" j) <> expected then
          mismatch c ("explanation differs from the reference for " ^ Atom.to_string goal))
    kept

(* --- one measured phase -------------------------------------------------------------- *)

type outcome = {
  setups : float list;  (** seconds of each cold set-up inside the window *)
  window : sample list;  (** samples completed inside the window *)
  facts : int;  (** facts served at the end *)
  runtime : Json.t option;  (** traced: [GET /v1/debug/runtime] at window end *)
  pings : float list;  (** traced: ms of lone [GET /v1/health] requests *)
  attempted : int;
  failed : int;
  mismatches : int;
  errors : string list;
}

(* Warm up, then measure for [seconds].  Both workloads load the KG
   again and again, so cold set-ups are sampled across the whole window
   rather than in one burst before it. *)
let drive tr (inp : W.inputs) ~warmup ~seconds ~trace =
  let c = client tr in
  (* a dormant session's EDB after the backlog, in the order the
     registry keeps it — retractions filtered out, additions appended —
     since that order picks the proof an explanation verbalizes *)
  let backlog_reference =
    lazy
      (W.chase inp.pipeline
         (Array.fold_left
            (fun edb (b : Cdc.batch) ->
              List.filter (fun a -> not (List.exists (Atom.equal a) b.retracts)) edb @ b.adds)
            inp.base inp.log))
  in
  let w0 = now () +. warmup in
  let w1 = w0 +. seconds in
  let stop () = now () >= w1 in
  let live =
    match inp.workload.mix with
    | W.Cdc_stream ->
      cdc_epochs c inp ~stop
        ~epoch_digest:(lazy (W.digest (W.chase inp.pipeline (Cdc.final_edb ~base:inp.base (Array.to_list inp.log)))))
    | W.Cold_load ->
      cold_loads c inp ~backlog_digest:(W.digest (Lazy.force backlog_reference)) ~stop;
      None
  in
  let inside (s : sample) = s.t1 >= w0 && s.t1 <= w1 in
  let window = List.filter inside c.samples in
  let setups = List.filter_map (fun (t1, s) -> if t1 >= w0 && t1 <= w1 then Some s else None) c.setups in
  let runtime_doc =
    if trace then
      Option.bind (exec c Other "GET" "/v1/debug/runtime" "") (fun (_, b) ->
          Result.to_option (Json.parse b))
    else None
  in
  (* the trivial request, sent alone: what the transport itself costs *)
  let pings =
    if trace then
      List.init 50 (fun _ -> exec c Other "GET" "/v1/health" "")
      |> List.filter_map (Option.map (fun (s, _) -> ms s))
    else []
  in
  Option.iter
    (fun sid -> expect_fingerprint c sid ~expected:(final_digest inp c.acked) "after the CDC stream")
    live;
  if inp.workload.mix = W.Cold_load then check_kept c inp (Lazy.force backlog_reference) c.kept;
  {
    setups;
    window;
    facts = c.facts;
    runtime = runtime_doc;
    pings;
    attempted = c.attempted;
    failed = c.failed;
    mismatches = c.mismatches;
    errors = List.rev c.errors;
  }
