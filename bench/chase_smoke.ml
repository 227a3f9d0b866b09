(* [chase-smoke] — the engine-layer smoke benchmark: admission and
   observability overhead on a control chain, incremental maintenance
   and the hash-join core on the fanout workload (8 independent 4-atom
   cyclic joins whose match phase dwarfs the insert phase), the
   goal-directed query lane and snapshot persistence.  Writes
   BENCH_chase.json, and fails when any section's output diverges from
   its reference. *)

open Ekg_datalog
open Ekg_apps
open Ekg_datagen

let reps = 2

(* A synthetic workload of [preds] independent cyclic joins:
   ri: ei(X,Y), ei(Y,Z), ei(Z,W), ei(W,X) -> cyci(X).
   Each rule enumerates a large intermediate join for a small result
   set, and no rule feeds another. *)
let fanout_source ~preds ~nodes ~edges =
  let rng = Ekg_kernel.Prng.create 2025 in
  let buf = Buffer.create (preds * edges * 24) in
  for i = 1 to preds do
    Buffer.add_string buf
      (Printf.sprintf
         "r%d: e%d(X,Y), e%d(Y,Z), e%d(Z,W), e%d(W,X) -> cyc%d(X).\n" i i i i
         i i)
  done;
  Buffer.add_string buf "@goal(cyc1).\n";
  for i = 1 to preds do
    for _ = 1 to edges do
      Buffer.add_string buf
        (Printf.sprintf "e%d(\"n%03d\", \"n%03d\").\n" i
           (Ekg_kernel.Prng.int rng nodes)
           (Ekg_kernel.Prng.int rng nodes))
    done
  done;
  Buffer.contents buf

let fanout_workload ~preds ~nodes ~edges () =
  match Parser.parse (fanout_source ~preds ~nodes ~edges) with
  | Ok { Parser.program; facts } -> (program, facts)
  | Error e -> failwith ("chase-smoke: fanout workload: " ^ e)

type workload = {
  w_name : string;
  program : Program.t;
  edb : Atom.t list;
}

let fanout_joins () =
  let program, edb = fanout_workload ~preds:8 ~nodes:140 ~edges:1400 () in
  { w_name = "fanout-joins"; program; edb }

let control_chain () =
  let chain = Owners.chain (Ekg_kernel.Prng.create 190) ~hops:40 in
  { w_name = "control-chain-40"; program = Company_control.program; edb = chain.Owners.edb }

let run_once w =
  let t0 = Unix.gettimeofday () in
  let result = Ekg_engine.Chase.run_exn w.program w.edb in
  (result, Unix.gettimeofday () -. t0)

(* --- admission-control overhead --------------------------------------------

   The server runs every chase under a deadline budget; the engine then
   polls a clock (and the cancel hook) inside its match loops.  Measure
   what that interrupt machinery costs when the budget never trips:
   p50 latency of the same workload with no budget vs. with a roomy
   active deadline.  Only the median: a p99 needs ten samples beyond
   it, a thousand runs, where a tail of 40 is its maximum. *)

type overhead_out = {
  o_iters : int;
  p50_plain : float;
  p50_budget : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

let measure_latencies ~iters run =
  let samples =
    Array.init iters (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (run ());
        (Unix.gettimeofday () -. t0) *. 1000.)
  in
  Array.sort compare samples;
  samples

let admission_overhead w =
  let iters = 40 in
  (* warm-up, then interleave would bias caches the same way for both *)
  ignore (Ekg_engine.Chase.run_exn w.program w.edb);
  let plain =
    measure_latencies ~iters (fun () ->
        Ekg_engine.Chase.run_exn w.program w.edb)
  in
  let budgeted =
    measure_latencies ~iters (fun () ->
        Ekg_engine.Chase.run_exn
          ~budget:(Ekg_engine.Chase.within_ms 600_000.)
          w.program w.edb)
  in
  {
    o_iters = iters;
    p50_plain = percentile plain 0.50;
    p50_budget = percentile budgeted 0.50;
  }

(* --- observability overhead --------------------------------------------------

   The telemetry tier must be adoptable on hot paths: a noop logger or
   noop-registry lock has to cost one branch, and running the chase
   with its stats sink live (the server's default) has to stay within
   a few percent of the uninstrumented run.  Three micro/meso probes:
   ns per wide event (sink on vs. noop), ns per lock/unlock (plain
   Mutex vs. instrumented wrapper, noop and live), and p50 chase
   latency with the metrics sink on vs. off. *)

type obs_overhead_out = {
  ob_log_iters : int;
  ob_log_on_ns : float;
  ob_log_off_ns : float;
  ob_lock_iters : int;
  ob_lock_plain_ns : float;
  ob_lock_noop_ns : float;
  ob_lock_on_ns : float;
  ob_chase_iters : int;
  ob_p50_plain : float;
  ob_p50_stats : float;
}

(* a representative wide event: the field count of the server's *)
let wide_fields =
  Ekg_obs.Log.
    [
      "trace_id", Str "t-00000042";
      "method", Str "POST";
      "target", Str "/v1/sessions/s1/explain";
      "endpoint", Str "POST /v1/sessions/:id/explain";
      "status", Int 200;
      "error_code", Str "";
      "queue_wait_ms", Float 0.153;
      "session", Str "s1";
      "cache_hit", Bool false;
      "chase_source", Str "chased";
      "chase_rounds", Int 12;
      "chase_facts", Int 4096;
      "gc_minor_collections", Int 3;
      "gc_minor_words", Float 180224.;
    ]

let ns_per ~iters f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

let observability_overhead w =
  let log_iters = 50_000 in
  let sink_bytes = ref 0 in
  let live =
    Ekg_obs.Log.create ~sink:(fun l -> sink_bytes := !sink_bytes + String.length l) ()
  in
  let off = Ekg_obs.Log.noop () in
  let log_on_ns =
    ns_per ~iters:log_iters (fun () ->
        Ekg_obs.Log.info live "request" wide_fields)
  in
  let log_off_ns =
    ns_per ~iters:log_iters (fun () ->
        Ekg_obs.Log.info off "request" wide_fields)
  in
  let lock_iters = 1_000_000 in
  let plain = Mutex.create () in
  let lock_plain_ns =
    ns_per ~iters:lock_iters (fun () ->
        Mutex.lock plain;
        Mutex.unlock plain)
  in
  let noop_lock = Ekg_obs.Lock.create "bench-noop" in
  let lock_noop_ns =
    ns_per ~iters:lock_iters (fun () ->
        Ekg_obs.Lock.lock noop_lock;
        Ekg_obs.Lock.unlock noop_lock)
  in
  let live_lock = Ekg_obs.Lock.create ~obs:(Ekg_obs.Metrics.create ()) "bench-live" in
  let lock_on_ns =
    ns_per ~iters:lock_iters (fun () ->
        Ekg_obs.Lock.lock live_lock;
        Ekg_obs.Lock.unlock live_lock)
  in
  (* the meso gate: the chase with its stats sink live, as the server
     runs it, against the bare engine.  The two variants are
     interleaved pair-wise so thermal / GC drift over the measurement
     window cancels instead of landing on whichever ran second. *)
  let chase_iters = 40 in
  ignore (Ekg_engine.Chase.run_exn w.program w.edb);
  let stats_sink = Ekg_obs.Metrics.create () in
  let plain_lat = Array.make chase_iters 0.
  and stats_lat = Array.make chase_iters 0. in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  for i = 0 to chase_iters - 1 do
    plain_lat.(i) <- time (fun () -> Ekg_engine.Chase.run_exn w.program w.edb);
    stats_lat.(i) <-
      time (fun () -> Ekg_engine.Chase.run_exn ~stats:stats_sink w.program w.edb)
  done;
  Array.sort compare plain_lat;
  Array.sort compare stats_lat;
  {
    ob_log_iters = log_iters;
    ob_log_on_ns = log_on_ns;
    ob_log_off_ns = log_off_ns;
    ob_lock_iters = lock_iters;
    ob_lock_plain_ns = lock_plain_ns;
    ob_lock_noop_ns = lock_noop_ns;
    ob_lock_on_ns = lock_on_ns;
    ob_chase_iters = chase_iters;
    ob_p50_plain = percentile plain_lat 0.50;
    ob_p50_stats = percentile stats_lat 0.50;
  }

(* --- incremental maintenance ------------------------------------------------

   Live updates vs. recomputation: materialize the fanout workload once,
   then apply a small batch of fresh edges and retract it again, timing
   each maintenance pass against a cold chase of the same base.
   Correctness gate: after add the maintained database must carry the
   same content fingerprint as a cold chase of the grown base, and after
   retract it must return to the original base's fingerprint. *)

type incr_out = {
  i_workload : string;
  i_batch : int;
  i_add_ms : float;
  i_retract_ms : float;
  i_cold_ms : float;
  i_identical : bool;
}

let incremental_maintenance w =
  let adds =
    (* fresh edges between existing nodes, so the delta actually joins *)
    let rng = Ekg_kernel.Prng.create 77 in
    let rec grow acc n =
      if n = 0 then acc
      else
        let text =
          Printf.sprintf "e1(\"n%03d\", \"n%03d\")"
            (Ekg_kernel.Prng.int rng 140)
            (Ekg_kernel.Prng.int rng 140)
        in
        match Parser.parse_atom text with
        | Error e -> failwith ("chase-smoke: bad incremental atom: " ^ e)
        | Ok atom ->
          if
            List.exists (Atom.equal atom) w.edb
            || List.exists (Atom.equal atom) acc
          then grow acc n
          else grow (atom :: acc) (n - 1)
    in
    grow [] 32
  in
  let exn = function
    | Ok v -> v
    | Error e ->
      failwith ("chase-smoke: incremental: " ^ Ekg_engine.Chase.error_to_string e)
  in
  let res, cold_s = run_once w in
  let base_fp = Ekg_engine.Database.fingerprint res.Ekg_engine.Chase.db in
  let t0 = Unix.gettimeofday () in
  let res_add, _ = exn (Ekg_engine.Chase.add_facts w.program res adds) in
  let add_s = Unix.gettimeofday () -. t0 in
  let cold_grown = Ekg_engine.Chase.run_exn w.program (w.edb @ List.rev adds) in
  let grown_ok =
    Ekg_engine.Database.fingerprint res_add.Ekg_engine.Chase.db
    = Ekg_engine.Database.fingerprint cold_grown.Ekg_engine.Chase.db
  in
  let t0 = Unix.gettimeofday () in
  let res_back, _ = exn (Ekg_engine.Chase.retract_facts w.program res_add adds) in
  let retract_s = Unix.gettimeofday () -. t0 in
  let back_ok =
    Ekg_engine.Database.fingerprint res_back.Ekg_engine.Chase.db = base_fp
  in
  {
    i_workload = w.w_name;
    i_batch = List.length adds;
    i_add_ms = add_s *. 1000.;
    i_retract_ms = retract_s *. 1000.;
    i_cold_ms = cold_s *. 1000.;
    i_identical = grown_ok && back_ok;
  }

(* --- session persistence ----------------------------------------------------

   The whole point of the snapshot store is that restoring a persisted
   materialization is cheaper than recomputing it.  For every bundled
   app: time the cold chase, the snapshot write (encode + fsync +
   rename), and the warm restore (read + decode + fingerprint check),
   gated on the restored instance being fingerprint-identical. *)

type persist_out = {
  p_app : string;
  p_facts : int;
  p_bytes : int;
  p_cold_ms : float;
  p_snapshot_ms : float;
  p_restore_ms : float;
  p_identical : bool;
}

(* Session-scale EDBs per bundled app (the demo EDBs chase in tens of
   microseconds, below the syscall floor of a snapshot read, so they
   cannot rank warm restore against cold chase meaningfully).  The
   recursive apps reuse the proof-length-targeted datagen generators;
   golden-power is non-recursive, so it gets a wide portfolio of
   independent deals. *)
let persist_edb rng = function
  | "company-control" -> (Ekg_datagen.Owners.chain rng ~hops:60).Owners.edb
  | "stress-test" -> (Ekg_datagen.Debts.dual_cascade rng ~depth:60).Debts.edb
  | "close-link" ->
    (Ekg_datagen.Participations.with_noise rng ~hops:40 ~noise_edges:400)
      .Participations.edb
  | "golden-power" ->
    (* many acquisition tranches x many sub-threshold stakes per
       strategic target: the g1 join enumerates tranches*stakes
       candidate sums per target and derives exactly one goldenPower
       fact each, so the chase pays real match work that a restore
       replays in insert-linear time — the regulator's "mostly no"
       screening workload *)
    let targets = 24 and tranches = 36 and stakes = 36 in
    List.concat
      (List.init targets (fun ti ->
           let t = Printf.sprintf "Target%02d" ti
           and b = Printf.sprintf "Buyer%02d" ti in
           (Golden_power.strategic t :: Golden_power.eu_entity b
          :: Golden_power.acquisition b t 0.2 :: Company_control.own b t 0.4
          :: List.init tranches (fun j ->
                 Golden_power.acquisition b t (0.001 *. float_of_int j)))
           @ List.init stakes (fun j ->
                 Company_control.own b t (0.002 *. float_of_int j))))
  | app -> failwith ("chase-smoke: no persistence workload for " ^ app)

let persistence_bench dir =
  let store =
    match Ekg_store.Store.open_dir dir with
    | Ok s -> s
    | Error e -> failwith ("chase-smoke: store: " ^ e)
  in
  let rng = Ekg_kernel.Prng.create 77 in
  List.map
    (fun app ->
      let { Ekg_apps.Apps_util.pipeline; edb = _ } =
        match Ekg_apps.Bundled.load app with
        | Ok l -> l
        | Error e -> failwith ("chase-smoke: " ^ app ^ ": " ^ e)
      in
      let edb = persist_edb rng app in
      let program = pipeline.Ekg_core.Pipeline.program in
      let chase () = Ekg_engine.Chase.run_exn program edb in
      (* chase, snapshot and restore all take the best of the same
         number of samples so the comparison is symmetric *)
      let preps = 5 and batch = 3 in
      let cold = chase () (* warm-up + reference materialization *) in
      let snap =
        {
          Ekg_store.Codec.id = "bench-" ^ app;
          name = app;
          spec = Ekg_store.Codec.App app;
          program_hash = Ekg_core.Pipeline.identity pipeline;
          update_gen = 0;
          created_at = Unix.gettimeofday ();
          edb;
          mat = Some cold;
        }
      in
      let best_of n f =
        let sample () =
          let _, ms =
            Bench_util.time_ms (fun () ->
                for _ = 1 to batch do
                  f ()
                done)
          in
          ms /. float_of_int batch
        in
        let rec go n acc =
          if n = 0 then acc else go (n - 1) (Float.min acc (sample ()))
        in
        go (n - 1) (sample ())
      in
      let cold_ms = best_of preps (fun () -> ignore (chase ())) in
      let bytes =
        match Ekg_store.Store.save store snap with
        | Ok b -> b
        | Error e -> failwith ("chase-smoke: snapshot: " ^ e)
      in
      let snapshot_ms =
        best_of preps (fun () ->
            match Ekg_store.Store.save store snap with
            | Ok _ -> ()
            | Error e -> failwith ("chase-smoke: snapshot: " ^ e))
      in
      let restored = ref None in
      let restore_ms =
        best_of preps (fun () ->
            match Ekg_store.Store.load store snap.Ekg_store.Codec.id with
            | Ok s -> restored := s.Ekg_store.Codec.mat
            | Error e -> failwith ("chase-smoke: restore: " ^ e))
      in
      let identical =
        match !restored with
        | Some r ->
          Ekg_engine.Database.fingerprint r.Ekg_engine.Chase.db
          = Ekg_engine.Database.fingerprint cold.Ekg_engine.Chase.db
        | None -> false
      in
      Ekg_store.Store.delete store snap.Ekg_store.Codec.id;
      {
        p_app = app;
        p_facts = List.length edb;
        p_bytes = bytes;
        p_cold_ms = cold_ms;
        p_snapshot_ms = snapshot_ms;
        p_restore_ms = restore_ms;
        p_identical = identical;
      })
    Ekg_apps.Bundled.names

(* --- goal-directed query lane -----------------------------------------------

   The /query endpoint answers bound point queries by magic-sets
   specialization over the session EDB, never touching the served
   materialization.  The demo EDBs are too small to rank the two paths
   (one chain, so the scoped instance IS the full instance); the
   session-scale workload here is a forest of independent chains, and
   the query binds one chain's head — goal-direction should explore
   that chain and skip the rest, while full materialization derives
   every chain's closure.  Identity gate: the lane's answers must be
   exactly what [Query.ask] returns over the full materialization. *)

type qlane_out = {
  ql_app : string;
  ql_query : string;
  ql_mask : string;
  ql_mode : string;
  ql_edb_facts : int;
  ql_full_facts : int;
  ql_scoped_facts : int;
  ql_answers : int;
  ql_iters : int;
  ql_rewrite_ms : float;
  ql_p50_query_ms : float;
  ql_p50_full_ms : float;
  ql_speedup : float;
  ql_identity : bool;
}

let query_lane_bench () =
  let rng = Ekg_kernel.Prng.create 9090 in
  let control_insts = List.init 24 (fun _ -> Owners.chain rng ~hops:24) in
  let control_edb = List.concat_map (fun i -> i.Owners.edb) control_insts in
  let control_head = List.hd (List.hd control_insts).Owners.entities in
  let link_insts = List.init 24 (fun _ -> Participations.chain rng ~hops:30) in
  let link_edb = List.concat_map (fun i -> i.Participations.edb) link_insts in
  let link_head = List.hd (List.hd link_insts).Participations.entities in
  List.map
    (fun (app, edb, atom) ->
      let { Ekg_apps.Apps_util.pipeline; edb = _ } =
        match Ekg_apps.Bundled.load app with
        | Ok l -> l
        | Error e -> failwith ("chase-smoke: " ^ app ^ ": " ^ e)
      in
      let program = pipeline.Ekg_core.Pipeline.program in
      let pred = atom.Atom.pred in
      let mask = Ekg_engine.Magic.adornment atom in
      let t0 = Unix.gettimeofday () in
      let spec =
        match Ekg_core.Pipeline.specialize pipeline ~pred ~mask with
        | Ok s -> s
        | Error e -> failwith ("chase-smoke: query-lane specialize: " ^ e)
      in
      let rewrite_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      let run_query () =
        match Ekg_core.Pipeline.query pipeline spec edb atom with
        | Ok r -> r
        | Error e ->
          failwith
            ("chase-smoke: query-lane: " ^ Ekg_engine.Chase.error_to_string e)
      in
      let run_full () = Ekg_engine.Chase.run_exn program edb in
      let qr = run_query () in
      let full = run_full () in
      (* identity gate: lane answers == filtering the full materialization *)
      let lane_answers =
        List.map
          (fun a -> Ekg_engine.Fact.to_string a.Ekg_core.Pipeline.qa_fact)
          qr.Ekg_core.Pipeline.q_answers
      in
      let full_answers =
        List.sort String.compare
          (List.map
             (fun (f, _) -> Ekg_engine.Fact.to_string f)
             (Ekg_engine.Query.ask full.Ekg_engine.Chase.db atom))
      in
      let identity = lane_answers = full_answers && lane_answers <> [] in
      let iters_q = 40 and iters_f = 12 in
      let q_lat =
        measure_latencies ~iters:iters_q (fun () -> ignore (run_query ()))
      in
      let f_lat =
        measure_latencies ~iters:iters_f (fun () -> ignore (run_full ()))
      in
      let p50_q = percentile q_lat 0.50 in
      let p50_f = percentile f_lat 0.50 in
      {
        ql_app = app;
        ql_query = Atom.to_string atom;
        ql_mask = mask;
        ql_mode = Ekg_core.Pipeline.mode_name qr.Ekg_core.Pipeline.q_mode;
        ql_edb_facts = List.length edb;
        ql_full_facts = full.Ekg_engine.Chase.derived_count;
        ql_scoped_facts = qr.Ekg_core.Pipeline.q_derived;
        ql_answers = List.length qr.Ekg_core.Pipeline.q_answers;
        ql_iters = iters_q;
        ql_rewrite_ms = rewrite_ms;
        ql_p50_query_ms = p50_q;
        ql_p50_full_ms = p50_f;
        ql_speedup = (if p50_q > 0. then p50_f /. p50_q else 0.);
        ql_identity = identity;
      })
    [
      ( "company-control",
        control_edb,
        Atom.make "control" [ Term.str control_head; Term.var "X" ] );
      ( "close-link",
        link_edb,
        Atom.make "closeLink" [ Term.str link_head; Term.var "X" ] );
    ]

(* --- join core --------------------------------------------------------------

   The columnar hash-join engine on two fan-out workloads, its
   headline against the fixed wall the posting-list engine it replaced
   recorded, and a build/probe microbenchmark over the columnar storage
   itself.  The engine's output is checked against the reference
   evaluator by the test suite, not here. *)

type join_section = {
  jw_name : string;
  j_derived : int;
  j_hash_s : float;
}

(* "fanout-joins" wall recorded in BENCH_chase.json by the
   posting-list engine before this release (PR 7, commit 075b8f3) — the
   fixed reference the join-core acceptance gate compares against. *)
let pr7_baseline_wall_s = 1.337615

type join_micro = {
  jm_rows : int;
  jm_build_ms : float;   (* cold ensure_index over all rows *)
  jm_probes : int;
  jm_probe_ns : float;   (* per hash + probe + chain walk *)
}

let join_bench () =
  let open Ekg_engine in
  let xl_program, xl_edb =
    (* the larger instance: fewer rules, denser graph (fan-out 15), so
       the intermediate join is ~7x the headline workload's per rule *)
    fanout_workload ~preds:4 ~nodes:200 ~edges:3000 ()
  in
  let sections =
    List.map
      (fun (name, program, edb) ->
        (* best of [reps + 1] runs: the wall-clock wants the least
           load-noise *)
        let once () =
          let t0 = Unix.gettimeofday () in
          let r = Chase.run_exn program edb in
          (r, Unix.gettimeofday () -. t0)
        in
        let rec go n ((_, best_s) as acc) =
          if n = 0 then acc
          else
            let (_, wall) as run = once () in
            go (n - 1) (if wall < best_s then run else acc)
        in
        let r, hash_s = go reps (once ()) in
        { jw_name = name; j_derived = r.Chase.derived_count; j_hash_s = hash_s })
      [
        (let p, e = fanout_workload ~preds:8 ~nodes:140 ~edges:1400 () in
         ("fanout-joins", p, e));
        ("fanout-joins-xl", xl_program, xl_edb);
      ]
  in
  (* microbenchmark: a planner index build over two key columns of a
     3-column group, then point probes on the first column's index,
     which insertion maintains — the storage-layer costs every chase
     round pays *)
  let rows = 100_000 in
  let db = Database.create () in
  let rng = Ekg_kernel.Prng.create 4242 in
  let keys = Array.init rows (fun _ -> Ekg_kernel.Prng.int rng 5_000) in
  Array.iteri
    (fun i k ->
      ignore
        (Database.add db "edge"
           [|
             Ekg_kernel.Value.int k;
             Ekg_kernel.Value.int (Ekg_kernel.Prng.int rng 5_000);
             Ekg_kernel.Value.int (i mod 7);
           |]))
    keys;
  let sym = Option.get (Database.pred_sym db "edge") in
  let t0 = Unix.gettimeofday () in
  let built = Database.ensure_index db ~sym ~arity:3 ~mask:3 in
  let build_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  assert (built > 0);
  let g = Option.get (Database.Cols.find db ~sym ~arity:3) in
  let ix = Option.get (Database.index_handle g ~mask:1) in
  let probes = 500_000 in
  let hits = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to probes - 1 do
    let vid = Database.value_id db (Ekg_kernel.Value.int keys.(i mod rows)) in
    let row = ref (Database.probe_handle ix ~hash:(Database.key_hash_add 0 vid)) in
    while !row >= 0 do
      incr hits;
      row := Database.chain_next ix !row
    done
  done;
  let probe_ns =
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int probes
  in
  assert (!hits > 0);
  ( sections,
    { jm_rows = rows; jm_build_ms = build_ms; jm_probes = probes; jm_probe_ns = probe_ns } )

let json_out ~overhead ~obs ~incr ~persist ~join_core ~qlane =
  let join_sections, micro = join_core in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"admission_overhead\": {\"workload\": \"control-chain-40\", \
        \"iterations\": %d, \"p50_ms_no_budget\": %.3f, \
        \"p50_ms_with_budget\": %.3f, \"p50_overhead_pct\": %.1f},\n"
       overhead.o_iters overhead.p50_plain overhead.p50_budget
       (if overhead.p50_plain > 0. then
          100. *. (overhead.p50_budget -. overhead.p50_plain)
          /. overhead.p50_plain
        else 0.));
  let chase_overhead_pct =
    if obs.ob_p50_plain > 0. then
      100. *. (obs.ob_p50_stats -. obs.ob_p50_plain) /. obs.ob_p50_plain
    else 0.
  in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"observability_overhead\": {\"workload\": \"control-chain-40\", \
        \"log_iterations\": %d, \"wide_event_ns_sink_on\": %.0f, \
        \"wide_event_ns_noop\": %.0f, \"lock_iterations\": %d, \
        \"lock_pair_ns_plain_mutex\": %.1f, \"lock_pair_ns_noop_obs\": %.1f, \
        \"lock_pair_ns_live_obs\": %.1f, \"chase_iterations\": %d, \
        \"chase_p50_ms_stats_off\": %.3f, \"chase_p50_ms_stats_on\": %.3f, \
        \"chase_p50_overhead_pct\": %.1f, \"chase_overhead_within_3pct\": %b},\n"
       obs.ob_log_iters obs.ob_log_on_ns obs.ob_log_off_ns obs.ob_lock_iters
       obs.ob_lock_plain_ns obs.ob_lock_noop_ns obs.ob_lock_on_ns
       obs.ob_chase_iters obs.ob_p50_plain obs.ob_p50_stats chase_overhead_pct
       (chase_overhead_pct < 3.));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"incremental_maintenance\": {\"workload\": %S, \
        \"batch_facts\": %d, \"cold_chase_ms\": %.3f, \"add_ms\": %.3f, \
        \"retract_ms\": %.3f, \"add_speedup_vs_cold\": %.1f, \
        \"retract_speedup_vs_cold\": %.1f, \"identical_to_cold\": %b},\n"
       incr.i_workload incr.i_batch incr.i_cold_ms incr.i_add_ms
       incr.i_retract_ms
       (if incr.i_add_ms > 0. then incr.i_cold_ms /. incr.i_add_ms else 0.)
       (if incr.i_retract_ms > 0. then incr.i_cold_ms /. incr.i_retract_ms
        else 0.)
       incr.i_identical);
  let headline_join =
    try List.find (fun j -> j.jw_name = "fanout-joins") join_sections
    with Not_found -> List.hd join_sections
  in
  Buffer.add_string buf "  \"join_core\": {\n";
  (* fanout-joins wall as committed by the posting-list engine's
     BENCH_chase.json — the baseline the acceptance gate compares
     against *)
  Buffer.add_string buf
    (Printf.sprintf "    \"pr7_baseline_wall_s\": %.6f,\n" pr7_baseline_wall_s);
  Buffer.add_string buf
    (Printf.sprintf "    \"headline_speedup_vs_pr7_baseline\": %.2f,\n"
       (pr7_baseline_wall_s /. headline_join.j_hash_s));
  Buffer.add_string buf
    (Printf.sprintf "    \"speedup_at_least_5x\": %b,\n"
       (pr7_baseline_wall_s /. headline_join.j_hash_s >= 5.));
  Buffer.add_string buf "    \"workloads\": [\n";
  List.iteri
    (fun i j ->
      Buffer.add_string buf
        (Printf.sprintf
           "      {\"name\": %S, \"derived_facts\": %d, \"wall_s_hash\": %.6f, \
            \"facts_per_sec_hash\": %.0f}%s\n"
           j.jw_name j.j_derived j.j_hash_s
           (float_of_int j.j_derived /. j.j_hash_s)
           (if i = List.length join_sections - 1 then "" else ",")))
    join_sections;
  Buffer.add_string buf "    ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    \"micro\": {\"rows\": %d, \"index_build_ms\": %.3f, \
        \"probes\": %d, \"probe_ns\": %.1f}\n"
       micro.jm_rows micro.jm_build_ms micro.jm_probes micro.jm_probe_ns);
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"query_lane\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"identity\": %b,\n"
       (List.for_all (fun q -> q.ql_identity) qlane));
  Buffer.add_string buf
    (Printf.sprintf "    \"p50_speedup_at_least_5x_on_2_apps\": %b,\n"
       (List.length (List.filter (fun q -> q.ql_speedup >= 5.) qlane) >= 2));
  Buffer.add_string buf "    \"apps\": [\n";
  List.iteri
    (fun i q ->
      Buffer.add_string buf
        (Printf.sprintf
           "      {\"app\": %S, \"query\": %S, \"mask\": %S, \"mode\": %S, \
            \"edb_facts\": %d, \"full_derived_facts\": %d, \
            \"scoped_derived_facts\": %d, \"answers\": %d, \
            \"iterations\": %d, \"rewrite_ms\": %.3f, \
            \"p50_query_ms\": %.3f, \"p50_full_chase_ms\": %.3f, \
            \"p50_speedup\": %.1f, \"answers_identical_to_materialization\": %b}%s\n"
           q.ql_app q.ql_query q.ql_mask q.ql_mode q.ql_edb_facts
           q.ql_full_facts q.ql_scoped_facts q.ql_answers q.ql_iters
           q.ql_rewrite_ms q.ql_p50_query_ms q.ql_p50_full_ms q.ql_speedup
           q.ql_identity
           (if i = List.length qlane - 1 then "" else ",")))
    qlane;
  Buffer.add_string buf "    ]\n  },\n";
  Buffer.add_string buf "  \"persistence\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"warm_restore_beats_cold_chase\": %b,\n"
       (List.for_all (fun p -> p.p_restore_ms < p.p_cold_ms) persist));
  Buffer.add_string buf
    (Printf.sprintf "    \"fingerprint_identical\": %b,\n"
       (List.for_all (fun p -> p.p_identical) persist));
  Buffer.add_string buf "    \"apps\": [\n";
  List.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf
           "      {\"app\": %S, \"edb_facts\": %d, \"snapshot_bytes\": %d, \
            \"cold_chase_ms\": %.3f, \"snapshot_ms\": %.3f, \
            \"restore_ms\": %.3f, \"restore_speedup_vs_cold\": %.1f, \
            \"fingerprint_identical\": %b}%s\n"
           p.p_app p.p_facts p.p_bytes p.p_cold_ms p.p_snapshot_ms p.p_restore_ms
           (if p.p_restore_ms > 0. then p.p_cold_ms /. p.p_restore_ms else 0.)
           p.p_identical
           (if i = List.length persist - 1 then "" else ",")))
    persist;
  Buffer.add_string buf "    ]\n  }\n";
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let run () =
  Bench_util.section "chase-smoke"
    "Engine layers: budget and telemetry overhead, incremental, join core, query lane, persistence";
  let overhead =
    let o = admission_overhead (control_chain ()) in
    Printf.printf "  %-20s p50 %7.3f -> %7.3f ms (budget polling)\n"
      "admission-overhead" o.p50_plain o.p50_budget;
    o
  in
  let obs =
    let o = observability_overhead (control_chain ()) in
    Printf.printf
      "  %-20s wide event %6.0f ns (noop %3.0f ns)   lock pair %5.1f ns \
       (plain %5.1f, noop %5.1f)\n"
      "observability" o.ob_log_on_ns o.ob_log_off_ns o.ob_lock_on_ns
      o.ob_lock_plain_ns o.ob_lock_noop_ns;
    Printf.printf
      "  %-20s chase p50 %7.3f -> %7.3f ms with stats sink (%+.1f%%)\n" ""
      o.ob_p50_plain o.ob_p50_stats
      (if o.ob_p50_plain > 0. then
         100. *. (o.ob_p50_stats -. o.ob_p50_plain) /. o.ob_p50_plain
       else 0.);
    o
  in
  let incr =
    let i = incremental_maintenance (fanout_joins ()) in
    Printf.printf
      "  %-20s cold %8.3f ms   add[%d] %8.3f ms   retract[%d] %8.3f ms   %s\n"
      "incremental" i.i_cold_ms i.i_batch i.i_add_ms i.i_batch i.i_retract_ms
      (if i.i_identical then "matches cold chase" else "STATE DIVERGED");
    i
  in
  let join_core =
    let js, micro = join_bench () in
    List.iter
      (fun j ->
        Printf.printf "  %-20s hash %8.3f ms   %d facts\n" j.jw_name
          (j.j_hash_s *. 1000.) j.j_derived)
      js;
    Printf.printf
      "  %-20s build %8.3f ms / %d rows   probe %6.1f ns (%d probes)\n"
      "join-micro" micro.jm_build_ms micro.jm_rows micro.jm_probe_ns
      micro.jm_probes;
    (try
       let h = List.find (fun j -> j.jw_name = "fanout-joins") js in
       Printf.printf
         "  %-20s hash %8.3f ms vs PR-7 baseline %8.3f ms   speedup %5.2fx\n"
         "join-vs-baseline" (h.j_hash_s *. 1000.) (pr7_baseline_wall_s *. 1000.)
         (pr7_baseline_wall_s /. h.j_hash_s)
     with Not_found -> ());
    (js, micro)
  in
  let qlane =
    let qs = query_lane_bench () in
    List.iter
      (fun q ->
        Printf.printf
          "  %-20s %s   query %8.3f ms   full %8.3f ms   speedup %5.1fx   %s\n"
          ("query-" ^ q.ql_app) q.ql_mode q.ql_p50_query_ms q.ql_p50_full_ms
          q.ql_speedup
          (if q.ql_identity then "answers match materialization"
           else "ANSWERS DIVERGED"))
      qs;
    qs
  in
  let persist =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ekg_bench_store_%d" (Unix.getpid ()))
    in
    let ps = persistence_bench dir in
    List.iter
      (fun p ->
        Printf.printf
          "  %-20s %5d facts   cold %8.3f ms   snapshot %8.3f ms (%d B)   \
           restore %8.3f ms   %s\n"
          p.p_app p.p_facts p.p_cold_ms p.p_snapshot_ms p.p_bytes p.p_restore_ms
          (if p.p_identical then "fingerprint-identical" else "RESTORE DIVERGED"))
      ps;
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    ps
  in
  let path = "BENCH_chase.json" in
  Bench_util.write_file_atomic path
    (json_out ~overhead ~obs ~incr ~persist ~join_core ~qlane);
  Printf.printf "  wrote %s\n" path;
  if not incr.i_identical then
    failwith "chase-smoke: incremental maintenance diverged from cold chase";
  if not (List.for_all (fun p -> p.p_identical) persist) then
    failwith "chase-smoke: warm restore diverged from the persisted instance";
  if not (List.for_all (fun q -> q.ql_identity) qlane) then
    failwith "chase-smoke: query-lane answers diverged from materialization"
