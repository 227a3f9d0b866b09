(* ekg-loadgen: the million-entity scenario harness.

   [generate] grows a seeded synthetic financial KG (Ekg_datagen.Kg)
   plus an ordered CDC batch log (Ekg_datagen.Cdc) into a directory
   that doubles as a server root: company.csv/own.csv in the facts_dir
   layout, program.vada, cdc.log and a manifest.json.

   [replay] streams the CDC log through POST|DELETE
   /v1/sessions/:id/facts over loopback HTTP — against an embedded
   server by default, or an external ekg-serve via --url — while
   reader domains hit /query and /explain under the write load.  It
   records sustained updates/sec, read/write latency percentiles,
   error/shed counts and the GC high-water mark (via
   /v1/debug/runtime) into BENCH_scale.json, then enforces the
   identity gate: the server's post-replay fingerprint must equal a
   local cold chase over the final EDB.  See SCALING.md. *)

open Cmdliner
open Ekg_server
module Kg = Ekg_datagen.Kg
module Cdc = Ekg_datagen.Cdc
module Prng = Ekg_kernel.Prng

(* --- loadgen's own metric registry ------------------------------------------

   Declared before any traffic flows (the PR-7 declaration-audit
   pattern): a --print-metrics scrape after a dry run renders every
   series at zero instead of omitting it. *)

let obs = Ekg_obs.Metrics.create ()
let counter = Ekg_obs.Metrics.counter
let batches_metric =
  counter ~help:"CDC batches replayed against the server" "ekg_loadgen_batches_total"
let updates_metric =
  counter ~help:"POST/DELETE /facts requests issued" "ekg_loadgen_update_requests_total"
let facts_metric =
  counter ~help:"Facts streamed through the update lane (adds + retracts)"
    "ekg_loadgen_facts_streamed_total"
let reads_metric =
  counter ~help:"Reader-worker /query and /explain requests issued"
    "ekg_loadgen_read_requests_total"
let errors_metric =
  counter ~help:"Non-2xx responses (503 sheds counted separately)" "ekg_loadgen_errors_total"
let sheds_metric = counter ~help:"503 shed responses observed" "ekg_loadgen_shed_responses_total"
let retries_metric =
  counter ~help:"Update requests retried after a shed" "ekg_loadgen_retries_total"

let () =
  List.iter (Ekg_obs.Metrics.declare obs)
    [ batches_metric; updates_metric; facts_metric; reads_metric; errors_metric;
      sheds_metric; retries_metric ]

(* --- a minimal loopback HTTP/1.1 client -------------------------------------

   The server answers one request per connection (Connection: close),
   so the client is connect → send → read-to-EOF → parse; no pooling
   to get wrong. *)

module Client = struct
  type response = { status : int; body : string }

  let send_all sock data =
    let len = String.length data in
    let rec go off =
      if off < len then go (off + Unix.write_substring sock data off (len - off))
    in
    go 0

  let read_all sock =
    let acc = Buffer.create 4096 in
    let chunk = Bytes.create 65536 in
    let rec go () =
      let n = Unix.read sock chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        Buffer.add_subbytes acc chunk 0 n;
        go ()
      end
    in
    go ();
    Buffer.contents acc

  let parse_response raw =
    match String.index_opt raw ' ' with
    | None -> Error "malformed status line"
    | Some sp -> (
      let status =
        match String.index_from_opt raw (sp + 1) ' ' with
        | Some sp2 -> int_of_string_opt (String.sub raw (sp + 1) (sp2 - sp - 1))
        | None -> None
      in
      match status with
      | None -> Error "malformed status code"
      | Some status -> (
        (* headers end at the first blank line; the rest is the body *)
        let rec find_body i =
          if i + 3 >= String.length raw then None
          else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
          else find_body (i + 1)
        in
        match find_body 0 with
        | None -> Error "missing header terminator"
        | Some body_at ->
          Ok { status; body = String.sub raw body_at (String.length raw - body_at) }))

  let request ~host ~port ?(headers = []) meth path body =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
        let buf = Buffer.create 512 in
        Buffer.add_string buf (Printf.sprintf "%s %s HTTP/1.1\r\n" meth path);
        Buffer.add_string buf (Printf.sprintf "Host: %s:%d\r\n" host port);
        Buffer.add_string buf "Connection: close\r\n";
        List.iter
          (fun (k, v) -> Buffer.add_string buf (k ^ ": " ^ v ^ "\r\n"))
          headers;
        if meth <> "GET" then
          Buffer.add_string buf
            (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
        Buffer.add_string buf "\r\n";
        Buffer.add_string buf body;
        send_all sock (Buffer.contents buf);
        parse_response (read_all sock))
end

(* --- shared helpers --------------------------------------------------------- *)

let read_file path =
  match Ekg_apps.Apps_util.read_file path with
  | Ok text -> text
  | Error e -> failwith e

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1))))

let latency_json samples =
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  Json.Obj
    [
      "count", Json.int n;
      "p50_ms", Json.num (percentile sorted 0.50);
      "p90_ms", Json.num (percentile sorted 0.90);
      "p99_ms", Json.num (percentile sorted 0.99);
      "max_ms", Json.num (if n = 0 then 0.0 else sorted.(n - 1));
    ]

let urlencode s =
  let buf = Buffer.create (String.length s * 2) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' ->
        Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents buf

(* --- generate --------------------------------------------------------------- *)

let generate_run seed entities avg_degree exponent max_degree chains chain_hops
    cycles cycle_len diamonds diamond_fanout close_links close_link_size
    batches batch_size retract_fraction new_entity_fraction out =
  let cfg =
    {
      (Kg.default ~entities) with
      Kg.seed;
      avg_out_degree = avg_degree;
      exponent;
      max_out_degree = max_degree;
      chains;
      chain_hops;
      cycles;
      cycle_len;
      diamonds;
      diamond_fanout;
      close_links;
      close_link_size;
    }
  in
  let t0 = Unix.gettimeofday () in
  let kg = Kg.to_csv_dir cfg ~dir:out in
  (* an independent stream for the CDC log: reseeding with an offset
     keeps it decoupled from the streams Kg splits off internally *)
  let rng = Prng.create (seed + 7919) in
  let cdc_cfg =
    { Cdc.batches; batch_size; retract_fraction; new_entity_fraction }
  in
  let log = Cdc.generate rng ~kg cdc_cfg in
  (match Cdc.validate log with
  | Ok () -> ()
  | Error e -> failwith ("generated CDC log violates its invariants: " ^ e));
  Bench_util.write_file_atomic
    (Filename.concat out "cdc.log")
    (Cdc.to_string log);
  let adds, retracts = Cdc.stats log in
  let manifest =
    Json.Obj
      [
        "seed", Json.int seed;
        "entities", Json.int entities;
        "total_entities", Json.int kg.Kg.total_entities;
        "companies", Json.int kg.Kg.companies;
        "own_edges", Json.int kg.Kg.own_edges;
        "base_facts", Json.int (kg.Kg.companies + kg.Kg.own_edges);
        ( "cdc",
          Json.Obj
            [
              "batches", Json.int batches;
              "adds", Json.int adds;
              "retracts", Json.int retracts;
            ] );
        "probe_query", Json.str kg.Kg.probe_query;
        "probe_goal", Json.str kg.Kg.probe_goal;
      ]
  in
  Bench_util.write_file_atomic
    (Filename.concat out "manifest.json")
    (Json.to_string manifest ^ "\n");
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf
    "ekg-loadgen: generated %d entities (%d companies, %d own edges) and %d \
     CDC batches (%d adds, %d retracts) into %s in %.1fs\n"
    kg.Kg.total_entities kg.Kg.companies kg.Kg.own_edges batches adds retracts
    out dt;
  0

(* --- replay ----------------------------------------------------------------- *)

type server_handle = {
  sh_host : string;
  sh_port : int;
  sh_shutdown : unit -> unit;
}

let parse_url url =
  let fail () =
    failwith ("--url must look like http://127.0.0.1:8080, got " ^ url)
  in
  let prefix = "http://" in
  if not (String.length url > String.length prefix) then fail ();
  if String.sub url 0 (String.length prefix) <> prefix then fail ();
  let rest =
    String.sub url (String.length prefix)
      (String.length url - String.length prefix)
  in
  let rest =
    match String.index_opt rest '/' with
    | Some i -> String.sub rest 0 i
    | None -> rest
  in
  match String.rindex_opt rest ':' with
  | None -> fail ()
  | Some i -> (
    let host = String.sub rest 0 i in
    match int_of_string_opt (String.sub rest (i + 1) (String.length rest - i - 1)) with
    | Some port -> host, port
    | None -> fail ())

let start_embedded ~data ~domains ~queue_high_water =
  let state = Router.make_state ~root:data () in
  let config = { Server.host = "127.0.0.1"; port = 0; domains; queue_high_water } in
  let server = Server.start ~config state in
  {
    sh_host = "127.0.0.1";
    sh_port = Server.port server;
    sh_shutdown = (fun () -> Server.stop server);
  }

(* one mutable bundle per traffic source, merged after the domains join *)
type tally = {
  mutable latencies : float list;
  mutable errors : int;
  mutable sheds : int;
}

let new_tally () = { latencies = []; errors = 0; sheds = 0 }

let record tally status latency_ms =
  tally.latencies <- latency_ms :: tally.latencies;
  if status = 503 then tally.sheds <- tally.sheds + 1
  else if status < 200 || status > 299 then tally.errors <- tally.errors + 1

let replay_run data url rate readers domains queue_high_water
    write_deadline_ms read_deadline_ms sample_ms session_name out print_metrics =
  let manifest =
    match Json.parse (read_file (Filename.concat data "manifest.json")) with
    | Ok j -> j
    | Error e -> failwith ("manifest.json: " ^ e)
  in
  let log =
    match Cdc.of_string (read_file (Filename.concat data "cdc.log")) with
    | Ok log -> log
    | Error e -> failwith ("cdc.log: " ^ e)
  in
  let probe_query =
    Option.value ~default:"control(\"c0\", X)"
      (Json.mem_str "probe_query" manifest)
  in
  let probe_goal =
    Option.value ~default:"control(\"c0\", \"c0\")"
      (Json.mem_str "probe_goal" manifest)
  in
  let embedded = url = None in
  let handle =
    match url with
    | Some u ->
      let host, port = parse_url u in
      { sh_host = host; sh_port = port; sh_shutdown = (fun () -> ()) }
    | None -> start_embedded ~data ~domains ~queue_high_water
  in
  let finally () = handle.sh_shutdown () in
  Fun.protect ~finally @@ fun () ->
  let req ?headers meth path body =
    match
      Client.request ~host:handle.sh_host ~port:handle.sh_port ?headers meth
        path body
    with
    | Ok r -> r
    | Error e -> failwith ("HTTP client: " ^ e)
  in
  let write_deadline = [ "X-Ekg-Deadline-Ms", string_of_int write_deadline_ms ] in
  let read_deadline = [ "X-Ekg-Deadline-Ms", string_of_int read_deadline_ms ] in
  (* session over the Files spec: the data dir is the server root *)
  let create_body =
    Json.to_string
      (Json.Obj
         [
           "name", Json.str session_name;
           "program_path", Json.str "program.vada";
           "facts_dir", Json.str ".";
         ])
  in
  let created = req "POST" "/v1/sessions" create_body ~headers:write_deadline in
  if created.Client.status <> 201 then
    failwith
      (Printf.sprintf "session creation failed (%d): %s" created.Client.status
         created.Client.body);
  let sid =
    match Result.bind (Json.parse created.Client.body) (fun j -> Option.to_result ~none:"no id" (Json.mem_str "id" j)) with
    | Ok id -> id
    | Error e -> failwith ("session creation response: " ^ e)
  in
  let base = "/v1/sessions/" ^ sid in
  (* cold chase + baseline fingerprint (also warms the materialization
     the incremental updates will maintain) *)
  let fingerprint () =
    let r = req "GET" (base ^ "/fingerprint") "" ~headers:write_deadline in
    if r.Client.status <> 200 then
      failwith
        (Printf.sprintf "fingerprint failed (%d): %s" r.Client.status
           r.Client.body);
    match Json.parse r.Client.body with
    | Error e -> failwith ("fingerprint response: " ^ e)
    | Ok j ->
      ( Option.value ~default:"?" (Json.mem_str "fingerprint" j),
        Option.value ~default:0 (Json.mem_int "facts" j),
        Option.value ~default:0 (Json.mem_int "rounds" j) )
  in
  let (_, cold_facts, cold_rounds), cold_ms =
    Bench_util.time_ms (fun () -> fingerprint ())
  in
  Printf.printf
    "ekg-loadgen: session %s materialized: %d facts in %d rounds (%.0f ms)\n%!"
    sid cold_facts cold_rounds cold_ms;
  (* readers: alternate point queries and explanations until stopped *)
  let stop = Atomic.make false in
  let query_path =
    Printf.sprintf "%s/query?query=%s&limit=5" base (urlencode probe_query)
  in
  let explain_path =
    Printf.sprintf "%s/explain?query=%s&limit=1" base (urlencode probe_goal)
  in
  let reader_domains =
    List.init readers (fun _ ->
        Domain.spawn (fun () ->
            let tally = new_tally () in
            let flip = ref false in
            while not (Atomic.get stop) do
              let path = if !flip then explain_path else query_path in
              flip := not !flip;
              let r, ms =
                Bench_util.time_ms (fun () ->
                    req "GET" path "" ~headers:read_deadline)
              in
              Ekg_obs.Metrics.incr obs reads_metric;
              record tally r.Client.status ms
            done;
            tally))
  in
  (* memory sampler: track the GC high-water gauge the runtime sampler
     publishes on /v1/debug/runtime *)
  let top_heap_words = Atomic.make 0.0 in
  let mem_samples = Atomic.make 0 in
  let sampler =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          (match
             Client.request ~host:handle.sh_host ~port:handle.sh_port "GET"
               "/v1/debug/runtime" ""
           with
          | Ok { Client.status = 200; body } -> (
            match Json.parse body with
            | Ok doc ->
              let gauges =
                Option.bind (Json.member "gauges" doc) Json.get_arr
                |> Option.value ~default:[]
              in
              List.iter
                (fun g ->
                  match Json.mem_str "name" g with
                  | Some name
                    when name
                         = Ekg_obs.Metrics.name
                             Ekg_obs.Runtime.top_heap_words_metric ->
                    let v =
                      Option.bind (Json.member "value" g) Json.get_num
                      |> Option.value ~default:0.0
                    in
                    if v > Atomic.get top_heap_words then
                      Atomic.set top_heap_words v;
                    Atomic.incr mem_samples
                  | _ -> ())
                gauges
            | Error _ -> ())
          | Ok _ | Error _ -> ());
          Unix.sleepf (float_of_int sample_ms /. 1000.0)
        done)
  in
  (* writer: stream the batches, pacing to --rate *)
  let writes = new_tally () in
  let retries = ref 0 in
  let facts_applied = ref 0 in
  let update meth atoms =
    let body =
      Json.to_string
        (Json.Obj
           [
             ( "facts",
               Json.Arr
                 (List.map
                    (fun a -> Json.str (Ekg_datalog.Atom.to_string a))
                    atoms) );
           ])
    in
    let rec attempt tries_left =
      let r, ms =
        Bench_util.time_ms (fun () ->
            req meth (base ^ "/facts") body ~headers:write_deadline)
      in
      Ekg_obs.Metrics.incr obs updates_metric;
      if r.Client.status = 503 && tries_left > 0 then begin
        incr retries;
        Ekg_obs.Metrics.incr obs retries_metric;
        Ekg_obs.Metrics.incr obs sheds_metric;
        Unix.sleepf 0.05;
        attempt (tries_left - 1)
      end
      else begin
        record writes r.Client.status ms;
        if r.Client.status >= 200 && r.Client.status <= 299 then
          facts_applied := !facts_applied + List.length atoms
        else
          Printf.eprintf "ekg-loadgen: %s /facts -> %d: %s\n%!" meth
            r.Client.status r.Client.body
      end
    in
    attempt 3
  in
  let t_write0 = Unix.gettimeofday () in
  List.iteri
    (fun i batch ->
      if rate > 0.0 then begin
        let due = t_write0 +. (float_of_int i /. rate) in
        let delay = due -. Unix.gettimeofday () in
        if delay > 0.0 then Unix.sleepf delay
      end;
      if batch.Cdc.retracts <> [] then update "DELETE" batch.Cdc.retracts;
      if batch.Cdc.adds <> [] then update "POST" batch.Cdc.adds;
      Ekg_obs.Metrics.incr obs batches_metric;
      Ekg_obs.Metrics.add obs facts_metric
        (float_of_int (List.length batch.Cdc.adds + List.length batch.Cdc.retracts)))
    log;
  let write_wall_s = Unix.gettimeofday () -. t_write0 in
  (* drain the concurrent load, then take the post-replay fingerprint *)
  Atomic.set stop true;
  let read_tallies = List.map Domain.join reader_domains in
  Domain.join sampler;
  let server_fp, final_facts, _ = fingerprint () in
  (* identity gate: cold chase over the final EDB, in this process *)
  let cold_fp, gate_ms =
    Bench_util.time_ms (fun () ->
        let loaded =
          match
            Result.bind
              (Ekg_apps.Apps_util.load_program_files
                 ~program_file:(Filename.concat data "program.vada")
                 ~glossary_file:None ())
              (fun l -> Ekg_apps.Apps_util.with_facts_dir l data)
          with
          | Ok l -> l
          | Error e -> failwith ("identity gate: " ^ e)
        in
        let final = Cdc.final_edb ~base:loaded.Ekg_apps.Apps_util.edb log in
        match
          Ekg_core.Pipeline.reason loaded.Ekg_apps.Apps_util.pipeline final
        with
        | Error e -> failwith ("identity gate chase: " ^ e)
        | Ok result ->
          Digest.to_hex
            (Digest.string (Ekg_engine.Database.fingerprint result.Ekg_engine.Chase.db)))
  in
  let identity_ok = String.equal server_fp cold_fp in
  let reads_all = List.concat_map (fun t -> t.latencies) read_tallies in
  let read_errors = List.fold_left (fun n t -> n + t.errors) 0 read_tallies in
  let read_sheds = List.fold_left (fun n t -> n + t.sheds) 0 read_tallies in
  List.iter
    (fun (t : tally) ->
      Ekg_obs.Metrics.add obs errors_metric (float_of_int t.errors);
      Ekg_obs.Metrics.add obs sheds_metric (float_of_int t.sheds))
    (writes :: read_tallies);
  let adds, retracts = Cdc.stats log in
  let updates_per_s =
    if write_wall_s > 0.0 then float_of_int !facts_applied /. write_wall_s
    else 0.0
  in
  let doc =
    Json.Obj
      [
        ( "scenario",
          Json.Obj
            [
              "data_dir", Json.str data;
              ( "entities",
                Json.int (Option.value ~default:0 (Json.mem_int "total_entities" manifest)) );
              ( "base_facts",
                Json.int (Option.value ~default:0 (Json.mem_int "base_facts" manifest)) );
              "cdc_batches", Json.int (List.length log);
              "cdc_adds", Json.int adds;
              "cdc_retracts", Json.int retracts;
              "rate_batches_per_s", Json.num rate;
              "readers", Json.int readers;
              "embedded_server", Json.bool embedded;
              "probe_query", Json.str probe_query;
              "probe_goal", Json.str probe_goal;
            ] );
        ( "cold_chase",
          Json.Obj
            [
              "ms", Json.num cold_ms;
              "facts", Json.int cold_facts;
              "rounds", Json.int cold_rounds;
            ] );
        ( "writes",
          Json.Obj
            [
              "batches", Json.int (List.length log);
              "facts_applied", Json.int !facts_applied;
              "wall_s", Json.num write_wall_s;
              "sustained_updates_per_s", Json.num updates_per_s;
              "latency", latency_json writes.latencies;
              "errors", Json.int writes.errors;
              "sheds", Json.int writes.sheds;
              "retries", Json.int !retries;
            ] );
        ( "reads",
          Json.Obj
            [
              "latency", latency_json reads_all;
              "errors", Json.int read_errors;
              "sheds", Json.int read_sheds;
            ] );
        ( "memory",
          Json.Obj
            [
              "top_heap_words", Json.num (Atomic.get top_heap_words);
              ( "top_heap_mib",
                Json.num (Atomic.get top_heap_words *. 8.0 /. 1048576.0) );
              "samples", Json.int (Atomic.get mem_samples);
            ] );
        ( "identity",
          Json.Obj
            [
              "server_fingerprint", Json.str server_fp;
              "cold_chase_fingerprint", Json.str cold_fp;
              "final_facts", Json.int final_facts;
              "gate_ms", Json.num gate_ms;
              "match", Json.bool identity_ok;
            ] );
      ]
  in
  Bench_util.write_file_atomic out (Json.to_string doc ^ "\n");
  if print_metrics then print_string (Ekg_obs.Metrics.to_prometheus obs);
  Printf.printf
    "ekg-loadgen: replayed %d batches (%d facts) in %.1fs — %.0f updates/s, \
     %d read samples, top heap %.1f MiB -> %s\n"
    (List.length log) !facts_applied write_wall_s updates_per_s
    (List.length reads_all)
    (Atomic.get top_heap_words *. 8.0 /. 1048576.0)
    out;
  if not identity_ok then begin
    Printf.eprintf
      "ekg-loadgen: IDENTITY GATE FAILED: server %s vs cold chase %s\n" server_fp
      cold_fp;
    1
  end
  else if writes.errors > 0 || read_errors > 0 then begin
    Printf.eprintf "ekg-loadgen: %d write / %d read errors during replay\n"
      writes.errors read_errors;
    1
  end
  else begin
    Printf.printf "ekg-loadgen: identity gate ok (%s)\n" server_fp;
    0
  end

(* --- CLI -------------------------------------------------------------------- *)

let seed_t =
  let doc = "Master PRNG seed; a (seed, size) pair names one graph forever." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let entities_t =
  let doc = "Core entities in the random ownership layer." in
  Arg.(value & opt int 10_000 & info [ "entities" ] ~docv:"N" ~doc)

let avg_degree_t =
  let doc = "Mean ownership out-degree of the random layer." in
  Arg.(value & opt float 2.5 & info [ "avg-degree" ] ~docv:"D" ~doc)

let exponent_t =
  let doc = "Power-law exponent of the out-degree tail." in
  Arg.(value & opt float 2.2 & info [ "exponent" ] ~docv:"A" ~doc)

let max_degree_t =
  let doc = "Cap on a single entity's out-degree." in
  Arg.(value & opt int 500 & info [ "max-degree" ] ~docv:"N" ~doc)

let chains_t =
  let doc = "Majority-ownership chain motifs to plant." in
  Arg.(value & opt (some int) None & info [ "chains" ] ~docv:"N" ~doc)

let chain_hops_t =
  let doc = "Edges per chain motif." in
  Arg.(value & opt int 6 & info [ "chain-hops" ] ~docv:"N" ~doc)

let cycles_t =
  let doc = "Circular-ownership shell motifs to plant." in
  Arg.(value & opt (some int) None & info [ "cycles" ] ~docv:"N" ~doc)

let cycle_len_t =
  let doc = "Entities per cycle motif." in
  Arg.(value & opt int 4 & info [ "cycle-len" ] ~docv:"N" ~doc)

let diamonds_t =
  let doc = "Joint-control diamond motifs (σ3 sum aggregation)." in
  Arg.(value & opt (some int) None & info [ "diamonds" ] ~docv:"N" ~doc)

let diamond_fanout_t =
  let doc = "Intermediaries per diamond motif." in
  Arg.(value & opt int 4 & info [ "diamond-fanout" ] ~docv:"N" ~doc)

let close_links_t =
  let doc = "Dense sub-threshold cross-ownership clusters." in
  Arg.(value & opt (some int) None & info [ "close-links" ] ~docv:"N" ~doc)

let close_link_size_t =
  let doc = "Entities per close-link cluster." in
  Arg.(value & opt int 5 & info [ "close-link-size" ] ~docv:"N" ~doc)

let batches_t =
  let doc = "CDC batches to generate." in
  Arg.(value & opt int 50 & info [ "batches" ] ~docv:"N" ~doc)

let batch_size_t =
  let doc = "Operations (adds + retracts) per CDC batch." in
  Arg.(value & opt int 200 & info [ "batch-size" ] ~docv:"N" ~doc)

let retract_fraction_t =
  let doc = "Target fraction of CDC operations that are retractions." in
  Arg.(value & opt float 0.3 & info [ "retract-fraction" ] ~docv:"F" ~doc)

let new_entity_fraction_t =
  let doc = "Chance a CDC addition incorporates a fresh shell company." in
  Arg.(value & opt float 0.05 & info [ "new-entity-fraction" ] ~docv:"F" ~doc)

let out_dir_t =
  let doc = "Output directory (becomes the server root for replay)." in
  Arg.(value & opt string "scale-data" & info [ "out"; "o" ] ~docv:"DIR" ~doc)

let generate_cmd =
  let run seed entities avg_degree exponent max_degree chains chain_hops cycles
      cycle_len diamonds diamond_fanout close_links close_link_size batches
      batch_size retract_fraction new_entity_fraction out =
    let per_motif = max 1 (entities / 100) in
    let d = Option.value ~default:per_motif in
    generate_run seed entities avg_degree exponent max_degree (d chains)
      chain_hops (d cycles) cycle_len (d diamonds) diamond_fanout
      (d close_links) close_link_size batches batch_size retract_fraction
      new_entity_fraction out
  in
  let doc = "generate a seeded synthetic financial KG plus a CDC batch log" in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(
      const run $ seed_t $ entities_t $ avg_degree_t $ exponent_t $ max_degree_t
      $ chains_t $ chain_hops_t $ cycles_t $ cycle_len_t $ diamonds_t
      $ diamond_fanout_t $ close_links_t $ close_link_size_t $ batches_t
      $ batch_size_t $ retract_fraction_t $ new_entity_fraction_t $ out_dir_t)

let data_t =
  let doc = "Data directory produced by $(b,generate)." in
  Arg.(value & opt dir "scale-data" & info [ "data" ] ~docv:"DIR" ~doc)

let url_t =
  let doc =
    "Replay against an external ekg-serve at this base URL (its --root \
     must be the data directory).  Default: an embedded server."
  in
  Arg.(value & opt (some string) None & info [ "url" ] ~docv:"URL" ~doc)

let rate_t =
  let doc = "CDC batches per second to stream (0 = as fast as possible)." in
  Arg.(value & opt float 0.0 & info [ "rate" ] ~docv:"R" ~doc)

let readers_t =
  let doc = "Concurrent reader workers issuing /query and /explain." in
  Arg.(value & opt int 2 & info [ "readers" ] ~docv:"N" ~doc)

let domains_t =
  let doc = "Worker domains of the embedded server." in
  Arg.(value & opt int 4 & info [ "domains"; "j" ] ~docv:"N" ~doc)

let queue_high_water_t =
  let doc = "Admission-queue shed threshold of the embedded server." in
  Arg.(
    value
    & opt int Server.default_config.Server.queue_high_water
    & info [ "queue-high-water" ] ~docv:"N" ~doc)

let write_deadline_ms_t =
  let doc = "Deadline for session creation, fingerprints and updates." in
  Arg.(value & opt int 300_000 & info [ "write-deadline-ms" ] ~docv:"MS" ~doc)

let read_deadline_ms_t =
  let doc = "Deadline for reader-worker requests." in
  Arg.(value & opt int 30_000 & info [ "read-deadline-ms" ] ~docv:"MS" ~doc)

let sample_ms_t =
  let doc = "Period of the /v1/debug/runtime memory sampler." in
  Arg.(value & opt int 250 & info [ "sample-ms" ] ~docv:"MS" ~doc)

let session_name_t =
  let doc = "Name of the session the replay creates." in
  Arg.(value & opt string "scale-replay" & info [ "session" ] ~docv:"NAME" ~doc)

let out_file_t =
  let doc = "Result artifact path." in
  Arg.(
    value & opt string "BENCH_scale.json" & info [ "out"; "o" ] ~docv:"PATH" ~doc)

let print_metrics_t =
  let doc = "Print the ekg_loadgen_* series in Prometheus text format." in
  Arg.(value & flag & info [ "print-metrics" ] ~doc)

let replay_cmd =
  let doc =
    "stream the CDC log against a server under concurrent reads and write \
     BENCH_scale.json (identity-gated)"
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const replay_run $ data_t $ url_t $ rate_t $ readers_t $ domains_t
      $ queue_high_water_t $ write_deadline_ms_t
      $ read_deadline_ms_t $ sample_ms_t $ session_name_t $ out_file_t
      $ print_metrics_t)

let cmd =
  let doc = "synthetic financial-KG generation and CDC replay benchmarking" in
  Cmd.group (Cmd.info "ekg-loadgen" ~version:"1.0.0" ~doc) [ generate_cmd; replay_cmd ]

let () = exit (Cmd.eval' cmd)
