(* Tests for the observability library (ekg_obs): histogram quantile
   edge cases, Prometheus escaping and registry rendering, counter
   thread-safety across domains, span nesting and ring eviction, the
   JSONL trace export, and the chase profiler wired through ?stats. *)

open Ekg_obs

let check = Alcotest.check
let bool' = Alcotest.bool
let int' = Alcotest.int
let string' = Alcotest.string
let float' = Alcotest.float 1e-6

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec at i =
    if i + nl > hl then false
    else String.sub haystack i nl = needle || at (i + 1)
  in
  nl = 0 || at 0

(* --- histogram ------------------------------------------------------------- *)

let test_hist_quantile_edges () =
  let h = Hist.create () in
  check float' "empty histogram" 0. (Hist.quantile h 0.5);
  Hist.observe_ms h 0.02;
  (* the first bucket's bound is 0.05 ms, but a singleton histogram
     must clamp the estimate to its one observation *)
  check float' "singleton clamps to observed max" 0.02 (Hist.quantile h 0.5);
  check float' "q <= 0 estimates the smallest" 0.02 (Hist.quantile h 0.);
  check float' "q >= 1 estimates the largest" 0.02 (Hist.quantile h 2.);
  Hist.observe_ms h 0.2;
  (* rank 2 is reached in the (0.1, 0.25] bucket; 0.25 clamps to 0.2 *)
  check float' "bucket bound clamps to max" 0.2 (Hist.quantile h 1.);
  Hist.observe_ms h 60000.;
  check float' "overflow bucket reports the max" 60000. (Hist.quantile h 0.999);
  check int' "count" 3 (Hist.count h);
  check float' "max" 60000. (Hist.max_ms h)

let test_hist_quantiles () =
  let h = Hist.create () in
  (* 1..100 ms, uniformly *)
  for i = 1 to 100 do
    Hist.observe h (float_of_int i /. 1000.)
  done;
  check int' "count" 100 (Hist.count h);
  check float' "p50 bucket" 50. (Hist.quantile h 0.50);
  check float' "p95 bucket" 100. (Hist.quantile h 0.95);
  check float' "p99 bucket" 100. (Hist.quantile h 0.99);
  check float' "max" 100. (Hist.max_ms h);
  check (Alcotest.float 1e-3) "sum" 5050. (Hist.sum_ms h)

let test_hist_cumulative () =
  let h = Hist.create () in
  Hist.observe_ms h 0.04;
  Hist.observe_ms h 0.07;
  Hist.observe_ms h 99999.;
  let cum = Hist.cumulative h in
  check int' "one entry per finite bucket" (Array.length Hist.bounds)
    (List.length cum);
  (match cum with
  | (b0, c0) :: (b1, c1) :: _ ->
    check float' "first bound" 0.05 b0;
    check int' "first cumulative" 1 c0;
    check float' "second bound" 0.1 b1;
    check int' "second cumulative" 2 c1
  | _ -> Alcotest.fail "no buckets");
  check int' "finite buckets exclude the overflow" 2
    (snd (List.nth cum (List.length cum - 1)));
  check int' "count includes the overflow" 3 (Hist.count h)

(* --- prometheus rendering --------------------------------------------------- *)

let test_prom_escaping () =
  check string' "label value escaping" "a\\\\b\\\"c\\nd"
    (Prom.escape_label "a\\b\"c\nd");
  check string' "integral sample" "42" (Prom.number 42.);
  check string' "+Inf" "+Inf" (Prom.number infinity);
  check string' "NaN" "NaN" (Prom.number Float.nan);
  let buf = Buffer.create 64 in
  Prom.header buf ~name:"m_total" ~typ:"counter" "line1\nline2";
  Prom.sample buf ~name:"m_total" ~labels:[ "k", "v\"w" ] 1.;
  let out = Buffer.contents buf in
  check bool' "help newline escaped" true (contains out "line1\\nline2");
  check bool' "type line" true (contains out "# TYPE m_total counter");
  check bool' "labeled sample" true (contains out "m_total{k=\"v\\\"w\"} 1")

let t_total = Metrics.counter ~help:"a test counter" "t_total"
let t_gauge = Metrics.gauge ~help:"a test gauge" "t_gauge"
let t_lat = Metrics.histogram ~help:"a test histogram" "t_lat"
let pre_total = Metrics.counter ~help:"pre-declared" "pre_total"

let test_metrics_registry () =
  let m = Metrics.create () in
  check bool' "enabled" true (Metrics.enabled m);
  check string' "family name" "t_total" (Metrics.name t_total);
  Metrics.incr m t_total;
  Metrics.add m t_total 2.;
  Metrics.set m ~labels:[ "k", "v" ] t_gauge 5.;
  Metrics.observe m t_lat 0.001;
  Metrics.declare m pre_total;
  check
    Alcotest.(option (float 1e-9))
    "counter accumulates" (Some 3.) (Metrics.value m "t_total");
  check
    Alcotest.(option (float 1e-9))
    "declared counter reads zero" (Some 0.)
    (Metrics.value m "pre_total");
  let out = Metrics.to_prometheus m in
  check bool' "help line" true (contains out "# HELP t_total a test counter");
  check bool' "counter sample" true (contains out "t_total 3");
  check bool' "labeled gauge" true (contains out "t_gauge{k=\"v\"} 5");
  check bool' "histogram bucket" true (contains out "t_lat_bucket{le=\"1\"} 1");
  check bool' "histogram +Inf bucket" true
    (contains out "t_lat_bucket{le=\"+Inf\"} 1");
  check bool' "histogram count" true (contains out "t_lat_count 1");
  check bool' "declared series present before traffic" true
    (contains out "pre_total 0");
  (* a snapshot reads what [record] wrote, by family *)
  Metrics.record m
    [ Add (t_total, [], 4.); Set (t_gauge, [ "k", "v" ], 6.) ];
  check
    Alcotest.(list (option (float 1e-9)))
    "snapshot reads" [ Some 7.; Some 6.; None ]
    (Metrics.snapshot m (fun v ->
         [
           Metrics.get v t_total;
           Metrics.get v ~labels:[ "k", "v" ] t_gauge;
           Metrics.get v t_gauge;
         ]));
  check int' "histogram series read" 1
    (Metrics.snapshot m (fun v ->
         match Metrics.histograms v t_lat with
         | [ ([], h) ] -> Hist.count h
         | _ -> -1))

let test_metrics_noop () =
  let m = Metrics.noop () in
  check bool' "disabled" false (Metrics.enabled m);
  Metrics.incr m t_total;
  Metrics.observe m t_lat 0.1;
  Metrics.declare m pre_total;
  Metrics.record m [ Add (t_total, [], 1.) ];
  check Alcotest.(option (float 0.)) "nothing recorded" None
    (Metrics.value m "t_total");
  check Alcotest.(option (float 0.)) "nothing declared" None
    (Metrics.value m "pre_total");
  check string' "renders nothing" "" (Metrics.to_prometheus m)

let race_total = Metrics.counter ~help:"concurrent increments" "race_total"

let test_counter_thread_safety () =
  let m = Metrics.create () in
  let per_domain = 10_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr m race_total
            done))
  in
  List.iter Domain.join domains;
  check
    Alcotest.(option (float 0.))
    "all increments survive concurrent domains"
    (Some (float_of_int (4 * per_domain)))
    (Metrics.value m "race_total")

(* Two domains record batches that each add 1 to two counters (at least
   10,000 each, and on until the reads are done) while the main domain
   reads both in one snapshot 1,000 times: no read may see a batch half
   applied *)
let pair_a = Metrics.counter ~help:"first of a pair" "pair_a_total"
let pair_b = Metrics.counter ~help:"second of a pair" "pair_b_total"

let test_batched_record () =
  let m = Metrics.create () in
  let started = Atomic.make 0 and reading = Atomic.make true in
  let writers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr started;
            let batches = ref 0 in
            while !batches < 10_000 || Atomic.get reading do
              Metrics.record m [ Add (pair_a, [], 1.); Add (pair_b, [], 1.) ];
              incr batches
            done;
            !batches))
  in
  let read () = Metrics.snapshot m (fun v -> Metrics.get v pair_a, Metrics.get v pair_b) in
  while Atomic.get started < 2 do
    Domain.cpu_relax ()
  done;
  let unequal = ref 0 in
  for _ = 1 to 1_000 do
    let a, b = read () in
    if a <> b then incr unequal;
    (* sleeping leaves both writers a core, so their batches interleave *)
    Unix.sleepf 1e-6
  done;
  Atomic.set reading false;
  let batches = List.fold_left (fun n w -> n + Domain.join w) 0 writers in
  check int' "snapshots that read a batch half applied" 0 !unequal;
  check
    Alcotest.(option (float 0.))
    "every batch applied" (Some (float_of_int batches))
    (Metrics.value m "pair_b_total")

(* --- spans ------------------------------------------------------------------ *)

let test_span_nesting () =
  let t = Trace.create () in
  let result =
    Trace.with_span t "root" (fun root ->
        Trace.with_span t ~parent:root "child-a" (fun _ -> ());
        Trace.with_span t ~parent:root "child-b" (fun sp ->
            Trace.label sp "k" "v");
        17)
  in
  check int' "body result returned" 17 result;
  match Trace.recent t with
  | [ root ] -> (
    check string' "root name" "root" root.Trace.name;
    let flat = Trace.flatten root in
    check int' "three spans" 3 (List.length flat);
    match flat with
    | [ (0, r); (1, a); (1, b) ] ->
      check string' "children in start order" "child-a" a.Trace.name;
      check string' "second child" "child-b" b.Trace.name;
      check bool' "label attached" true (List.mem_assoc "k" b.Trace.labels);
      check bool' "parent covers children" true
        (Trace.duration_ms r
        >= Trace.duration_ms a +. Trace.duration_ms b -. 0.001);
      check bool' "self time non-negative" true (Trace.self_ms r >= 0.)
    | _ -> Alcotest.fail "unexpected flatten shape")
  | l -> Alcotest.failf "expected one trace, got %d" (List.length l)

let test_ring_eviction () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.with_span t (Printf.sprintf "s%d" i) (fun _ -> ())
  done;
  check
    Alcotest.(list string)
    "newest first, oldest evicted" [ "s5"; "s4"; "s3" ]
    (List.map (fun (s : Trace.span) -> s.Trace.name) (Trace.recent t))

let test_span_exception_and_hook () =
  let finished = ref [] in
  let t =
    Trace.create
      ~on_finish:(fun sp -> finished := sp.Trace.name :: !finished)
      ()
  in
  (try Trace.with_span t "boom" (fun _ -> raise Exit) with Exit -> ());
  check Alcotest.(list string) "hook ran on raise" [ "boom" ] !finished;
  (match Trace.recent t with
  | [ sp ] -> check bool' "duration set on raise" true (sp.Trace.dur_s >= 0.)
  | _ -> Alcotest.fail "span not pushed on raise");
  check int' "with_span_opt None runs uninstrumented" 3
    (Trace.with_span_opt None "x" (fun sp ->
         check bool' "no span materialized" true (sp = None);
         3))

let test_trace_ids_unique () =
  let t = Trace.create () in
  let ids = List.init 100 (fun _ -> Trace.next_trace_id t) in
  check int' "100 unique ids" 100
    (List.length (List.sort_uniq compare ids))

let test_jsonl_export () =
  let t = Trace.create () in
  Trace.with_span t "a\"b" (fun root ->
      Trace.with_span t ~parent:root "inner" (fun _ -> ()));
  Trace.with_span t ~labels:[ "q", "control" ] "second" (fun _ -> ());
  let out = Trace.jsonl t in
  let lines = String.split_on_char '\n' (String.trim out) in
  check int' "one line per trace" 2 (List.length lines);
  let first = List.nth lines 0 and second = List.nth lines 1 in
  check bool' "oldest first, name escaped" true
    (contains first {|"name":"a\"b"|});
  check bool' "root carries absolute start" true
    (contains first {|"start_unix_s"|});
  check bool' "children carry relative offsets" true
    (contains first {|"offset_ms"|});
  check bool' "labels serialized" true
    (contains second {|"labels":{"q":"control"}|})

(* --- structured log --------------------------------------------------------- *)

let parse_json line =
  match Ekg_server.Json.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "log line is not JSON (%s): %s" e line

let capturing_log ?level ?slow_threshold_ms ?slow_capacity () =
  let lines = ref [] in
  let log =
    Log.create ?level ?slow_threshold_ms ?slow_capacity
      ~sink:(fun l -> lines := l :: !lines)
      ()
  in
  log, fun () -> List.rev !lines

let test_log_level_filtering () =
  let log, lines = capturing_log ~level:Log.Warn () in
  check bool' "would_log error" true (Log.would_log log Log.Error);
  check bool' "would not log info" false (Log.would_log log Log.Info);
  Log.debug log "d" [];
  Log.info log "i" [];
  Log.warn log "w" [];
  Log.error log "e" [];
  check int' "only warn+error forwarded" 2 (List.length (lines ()));
  check int' "emitted counts forwarded events" 2 (Log.emitted log);
  Log.set_level log Log.Debug;
  Log.debug log "d2" [];
  check int' "lowered level admits debug" 3 (List.length (lines ()))

let test_log_jsonl_shape () =
  let open Ekg_server in
  let log, lines = capturing_log ~level:Log.Debug () in
  Log.event log ~duration_ms:12.5 Log.Info "request"
    [
      "trace_id", Log.Str "t-1";
      "path", Log.Str "a\"b\\c";
      "status", Log.Int 200;
      "wait_ms", Log.Float 1.25;
      "cache_hit", Log.Bool true;
    ];
  match lines () with
  | [ line ] ->
    let j = parse_json line in
    check bool' "ts is a number" true
      (match Json.member "ts" j with Some (Json.Num _) -> true | _ -> false);
    check bool' "level" true (Json.mem_str "level" j = Some "info");
    check bool' "event name" true (Json.mem_str "event" j = Some "request");
    check bool' "duration" true
      (match Json.member "duration_ms" j with
      | Some (Json.Num d) -> Float.abs (d -. 12.5) < 1e-9
      | _ -> false);
    check bool' "string field escaped + round-trips" true
      (Json.mem_str "path" j = Some "a\"b\\c");
    check bool' "int field" true (Json.mem_int "status" j = Some 200);
    check bool' "float field" true
      (match Json.member "wait_ms" j with
      | Some (Json.Num f) -> Float.abs (f -. 1.25) < 1e-9
      | _ -> false);
    check bool' "bool field" true (Json.mem_bool "cache_hit" j = Some true)
  | l -> Alcotest.failf "expected one line, got %d" (List.length l)

let test_log_slow_ring () =
  (* level Error: the sink sees nothing, yet the ring must still fill —
     raising the log level cannot blind the slowlog *)
  let log, lines =
    capturing_log ~level:Log.Error ~slow_threshold_ms:10. ~slow_capacity:2 ()
  in
  Log.event log ~duration_ms:5. Log.Info "fast" [];
  Log.event log ~duration_ms:20. Log.Info "slow1" [];
  Log.event log ~duration_ms:30. Log.Info "slow2" [];
  Log.event log ~duration_ms:40. Log.Info "slow3" [];
  check int' "sink saw nothing" 0 (List.length (lines ()));
  (match Log.slow_entries log with
  | [ a; b ] ->
    check string' "newest first" "slow3" a.Log.e_event;
    check string' "capacity evicts oldest" "slow2" b.Log.e_event;
    check bool' "duration kept" true (a.Log.e_duration_ms = 40.)
  | l -> Alcotest.failf "expected 2 ring entries, got %d" (List.length l));
  let noop = Log.noop () in
  Log.event noop ~duration_ms:100. Log.Error "x" [];
  check int' "noop logger emits nothing" 0 (Log.emitted noop);
  check int' "noop logger captures nothing" 0
    (List.length (Log.slow_entries noop))

let test_log_ctx () =
  check bool' "inactive outside a scope" false (Log.Ctx.active ());
  Log.Ctx.put "orphan" (Log.Str "dropped");
  (* no scope open: the put above must be a silent no-op *)
  let (), fields =
    Log.Ctx.collect (fun () ->
        check bool' "active inside" true (Log.Ctx.active ());
        Log.Ctx.put "first" (Log.Int 1);
        Log.Ctx.put "second" (Log.Str "a");
        Log.Ctx.put "first" (Log.Int 2);
        (* overwrite: last value, original position *)
        Log.Ctx.add "acc" 1.5;
        Log.Ctx.add "acc" 2.5)
  in
  check bool' "orphan put did not leak in" true
    (not (List.mem_assoc "orphan" fields));
  (match fields with
  | [ ("first", Log.Int 2); ("second", Log.Str "a"); ("acc", Log.Float a) ] ->
    check float' "add accumulates" 4. a
  | _ -> Alcotest.fail "unexpected field list shape");
  (* nesting: the inner scope shadows the outer for its duration *)
  let (_, inner), outer =
    Log.Ctx.collect (fun () ->
        Log.Ctx.put "outer" (Log.Bool true);
        Log.Ctx.collect (fun () -> Log.Ctx.put "inner" (Log.Bool true)))
  in
  check bool' "inner field captured by inner scope" true
    (List.mem_assoc "inner" inner);
  check bool' "inner field absent from outer scope" true
    (not (List.mem_assoc "inner" outer));
  check bool' "outer field survived the nested scope" true
    (List.mem_assoc "outer" outer);
  (* exceptions close the scope and re-raise *)
  (try ignore (Log.Ctx.collect (fun () -> raise Exit)) with Exit -> ());
  check bool' "scope closed after raise" false (Log.Ctx.active ())

let test_log_open_file () =
  let path = Filename.temp_file "ekg_log" ".jsonl" in
  (match Log.open_file ~level:Log.Debug path with
  | Error e -> Alcotest.failf "open_file: %s" e
  | Ok log ->
    Log.info log "one" [ "k", Log.Str "v" ];
    Log.info log "two" [];
    Log.close log;
    Log.info log "after-close" [];
    (* silently dropped *)
    let ic = open_in path in
    let rec read acc =
      match input_line ic with
      | line -> read (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    let lines = read [] in
    close_in ic;
    Sys.remove path;
    check int' "two lines on disk" 2 (List.length lines);
    List.iter (fun l -> ignore (parse_json l)) lines);
  match Log.open_file "/nonexistent-dir-xyz/log.jsonl" with
  | Ok _ -> Alcotest.fail "opened a file in a nonexistent directory"
  | Error _ -> ()

(* --- runtime sampler --------------------------------------------------------- *)

let find_sample name samples =
  List.find_opt
    (fun (s : Runtime.sample) -> Metrics.name s.Runtime.s_gauge = name)
    samples

let test_runtime_gc_gauges () =
  let m = Metrics.create () in
  let rt = Runtime.create m in
  let samples = Runtime.sample rt in
  List.iter
    (fun name ->
      check bool' name true (find_sample name samples <> None);
      check bool' (name ^ " published") true (Metrics.value m name <> None))
    [
      "ekg_runtime_gc_heap_words";
      "ekg_runtime_gc_top_heap_words";
      "ekg_runtime_gc_minor_collections";
      "ekg_runtime_gc_major_collections";
      "ekg_runtime_gc_compactions";
      "ekg_runtime_gc_promoted_words";
      "ekg_runtime_alloc_rate_words_per_s";
    ];
  (match find_sample "ekg_runtime_gc_heap_words" samples with
  | Some s -> check bool' "heap is non-empty" true (s.Runtime.s_value > 0.)
  | None -> Alcotest.fail "heap gauge missing");
  ignore (Runtime.sample rt);
  check
    Alcotest.(option (float 0.))
    "passes counted" (Some 2.)
    (Metrics.value m (Metrics.name Runtime.samples_metric))

let pool_busy = Metrics.gauge ~help:"busy" "test_pool_busy"

let test_runtime_sources () =
  let m = Metrics.create () in
  let rt = Runtime.create m in
  Runtime.register rt "pool" (fun () ->
      [ { Runtime.s_gauge = pool_busy; s_labels = [ "worker", "0" ]; s_value = 7. } ]);
  Runtime.register rt "broken" (fun () -> failwith "source blew up");
  let samples = Runtime.sample rt in
  (match find_sample "test_pool_busy" samples with
  | Some s ->
    check bool' "labels kept" true (s.Runtime.s_labels = [ "worker", "0" ]);
    check float' "value kept" 7. s.Runtime.s_value
  | None -> Alcotest.fail "registered source not consulted");
  check
    Alcotest.(option (float 0.))
    "labeled gauge published" (Some 7.)
    (Metrics.value m ~labels:[ "worker", "0" ] "test_pool_busy");
  (* replace by name *)
  Runtime.register rt "pool" (fun () ->
      [ { Runtime.s_gauge = pool_busy; s_labels = [ "worker", "0" ]; s_value = 9. } ]);
  (match find_sample "test_pool_busy" (Runtime.sample rt) with
  | Some s -> check float' "replaced, not duplicated" 9. s.Runtime.s_value
  | None -> Alcotest.fail "replaced source not consulted")

(* --- instrumented locks ------------------------------------------------------ *)

let lock_series m name family =
  Metrics.value m ~labels:[ "lock", name ] (Metrics.name family)

let test_lock_instrumented () =
  let m = Metrics.create () in
  let l = Lock.create ~obs:m "reg" in
  check
    Alcotest.(option (float 0.))
    "declared at zero" (Some 0.)
    (lock_series m "reg" Lock.acquisitions_metric);
  check string' "name" "reg" (Lock.name l);
  let v = Lock.with_lock l (fun () -> 41 + 1) in
  check int' "with_lock returns the body result" 42 v;
  check
    Alcotest.(option (float 0.))
    "acquisition counted" (Some 1.)
    (lock_series m "reg" Lock.acquisitions_metric);
  check
    Alcotest.(option (float 0.))
    "uncontended" (Some 0.)
    (lock_series m "reg" Lock.contended_metric);
  let out = Metrics.to_prometheus m in
  check bool' "wait histogram rendered" true
    (contains out (Metrics.name Lock.wait_metric ^ "_count{lock=\"reg\"} 1"));
  check bool' "hold histogram rendered" true
    (contains out (Metrics.name Lock.hold_metric ^ "_count{lock=\"reg\"} 1"));
  (* exception safety: the lock is free again after a raising body *)
  (try Lock.with_lock l (fun () -> raise Exit) with Exit -> ());
  Lock.with_lock l ignore;
  check
    Alcotest.(option (float 0.))
    "released on raise, reacquirable" (Some 3.)
    (lock_series m "reg" Lock.acquisitions_metric)

let test_lock_contention () =
  let m = Metrics.create () in
  let l = Lock.create ~obs:m "hot" in
  Lock.lock l;
  let d = Domain.spawn (fun () -> Lock.with_lock l (fun () -> ())) in
  (* give the domain time to block on the contended mutex *)
  Unix.sleepf 0.05;
  Lock.unlock l;
  Domain.join d;
  (match lock_series m "hot" Lock.contended_metric with
  | Some n -> check bool' "contention observed" true (n >= 1.)
  | None -> Alcotest.fail "contended counter missing");
  let out = Metrics.to_prometheus m in
  (* the blocked acquirer waited ~50ms: some wait bucket below +Inf but
     above 25ms must be skipped by its observation *)
  check bool' "wait sum reflects the block" true
    (contains out (Metrics.name Lock.wait_metric ^ "_sum{lock=\"hot\"}"));
  check bool' "hold histogram has both sections" true
    (contains out (Metrics.name Lock.hold_metric ^ "_count{lock=\"hot\"} 2"))

let test_lock_noop () =
  let l = Lock.create "quiet" in
  (* default registry is a noop: operations must stay plain mutex ops *)
  Lock.with_lock l (fun () -> ());
  let m = Metrics.noop () in
  let l2 = Lock.create ~obs:m "quiet2" in
  Lock.lock l2;
  Lock.unlock l2;
  check string' "noop registry renders nothing" "" (Metrics.to_prometheus m)

(* --- chase profiling -------------------------------------------------------- *)

let parse_exn src =
  match Ekg_datalog.Parser.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse: %s" e

let control_program =
  {|
sigma1: own(X, Y, S), S > 0.5 -> control(X, Y).
sigma3: control(X, Z), own(Z, Y, S), TS = sum(S), TS > 0.5 -> control(X, Y).
@goal(control).
own("A", "B", 0.6).
own("B", "C", 0.7).
|}

let test_chase_stats () =
  let { Ekg_datalog.Parser.program; facts } = parse_exn control_program in
  let sink = Metrics.create () in
  match Ekg_engine.Chase.run_checked ~stats:sink program facts with
  | Error _ -> Alcotest.fail "chase failed"
  | Ok result ->
    (match result.stats with
    | None -> Alcotest.fail "stats not collected"
    | Some s ->
      check bool' "one stat per rule" true (List.length s.per_rule >= 2);
      check bool' "rule ids preserved" true
        (List.exists
           (fun (r : Ekg_engine.Chase.rule_stat) -> r.rule_id = "sigma1")
           s.per_rule);
      check bool' "per-round entries" true (s.per_round <> []);
      check int' "single stratum" 1 (List.length s.rounds_per_stratum);
      check int' "stratum rounds match total" result.rounds
        (List.fold_left ( + ) 0 s.rounds_per_stratum);
      let facts_by_rule =
        List.fold_left
          (fun acc (r : Ekg_engine.Chase.rule_stat) -> acc + r.facts)
          0 s.per_rule
      in
      check bool' "rules account for the derived facts" true
        (facts_by_rule >= result.derived_count);
      check bool' "wall clock recorded" true (s.wall_s >= 0.));
    check
      Alcotest.(option (float 0.))
      "rounds pushed to the sink"
      (Some (float_of_int result.rounds))
      (Metrics.value sink "ekg_chase_rounds_total");
    check
      Alcotest.(option (float 0.))
      "run counted" (Some 1.)
      (Metrics.value sink "ekg_chase_runs_total");
    check bool' "per-rule series labeled" true
      (contains
         (Metrics.to_prometheus sink)
         {|ekg_chase_rule_facts_total{rule="sigma1",stratum="0"}|})

let test_chase_noop_sink () =
  let { Ekg_datalog.Parser.program; facts } = parse_exn control_program in
  match Ekg_engine.Chase.run_checked ~stats:(Metrics.noop ()) program facts with
  | Error _ -> Alcotest.fail "chase failed"
  | Ok result ->
    check bool' "disabled sink disables collection" true (result.stats = None)

let test_divergent_diagnostic () =
  let { Ekg_datalog.Parser.program; facts } =
    parse_exn {|
step: n(X), Y = X + 1, Y < 1000000 -> n(Y).
@goal(n).
n(0).
|}
  in
  match Ekg_engine.Chase.run_checked ~max_rounds:5 program facts with
  | Error (Ekg_engine.Chase.Divergent d as e) ->
    check int' "bound echoed" 5 d.max_rounds;
    let msg = Ekg_engine.Chase.error_to_string e in
    check bool' "message names the bound" true (contains msg "5 rounds");
    check bool' "message breaks rounds down by stratum" true
      (contains msg "rounds per stratum");
    check bool' "per-stratum counts present" true (contains msg "#1=")
  | Error _ -> Alcotest.fail "wrong error constructor"
  | Ok _ -> Alcotest.fail "divergent program terminated"

(* --- pipeline instrumentation ----------------------------------------------- *)

let test_pipeline_spans () =
  let t = Trace.create () in
  match Ekg_apps.Bundled.load ~obs:t "company-control" with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok _ -> (
    match Trace.recent t with
    | [ root ] ->
      check string' "root span" "pipeline-build" root.Trace.name;
      let names =
        List.map (fun (_, s) -> s.Trace.name) (Trace.flatten root)
      in
      List.iter
        (fun stage -> check bool' stage true (List.mem stage names))
        [
          "structural-analysis";
          "depgraph";
          "critical-nodes";
          "path-extraction";
          "verbalization";
          "enhancement";
        ]
    | l -> Alcotest.failf "expected one build trace, got %d" (List.length l))

(* --------------------------------------------------------------------------- *)

let () =
  Alcotest.run "ekg_obs"
    [
      ( "hist",
        [
          Alcotest.test_case "quantile edges" `Quick test_hist_quantile_edges;
          Alcotest.test_case "quantiles" `Quick test_hist_quantiles;
          Alcotest.test_case "cumulative buckets" `Quick test_hist_cumulative;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "escaping" `Quick test_prom_escaping;
          Alcotest.test_case "registry rendering" `Quick test_metrics_registry;
          Alcotest.test_case "noop registry" `Quick test_metrics_noop;
          Alcotest.test_case "counter thread-safety" `Quick
            test_counter_thread_safety;
          Alcotest.test_case "batched record is one snapshot" `Quick
            test_batched_record;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "exception + hook" `Quick
            test_span_exception_and_hook;
          Alcotest.test_case "trace ids unique" `Quick test_trace_ids_unique;
          Alcotest.test_case "jsonl export" `Quick test_jsonl_export;
        ] );
      ( "log",
        [
          Alcotest.test_case "level filtering" `Quick test_log_level_filtering;
          Alcotest.test_case "jsonl shape" `Quick test_log_jsonl_shape;
          Alcotest.test_case "slow ring" `Quick test_log_slow_ring;
          Alcotest.test_case "ambient ctx" `Quick test_log_ctx;
          Alcotest.test_case "file sink" `Quick test_log_open_file;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "gc gauges" `Quick test_runtime_gc_gauges;
          Alcotest.test_case "sources" `Quick test_runtime_sources;
        ] );
      ( "lock",
        [
          Alcotest.test_case "instrumented series" `Quick
            test_lock_instrumented;
          Alcotest.test_case "contention" `Quick test_lock_contention;
          Alcotest.test_case "noop off-mode" `Quick test_lock_noop;
        ] );
      ( "chase profiling",
        [
          Alcotest.test_case "stats + series" `Quick test_chase_stats;
          Alcotest.test_case "noop sink" `Quick test_chase_noop_sink;
          Alcotest.test_case "divergent diagnostic" `Quick
            test_divergent_diagnostic;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "build spans" `Quick test_pipeline_spans ] );
    ]
