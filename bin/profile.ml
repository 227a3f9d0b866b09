(* ekg-profile: run a bundled application under full instrumentation
   and print where the time goes — per pipeline stage (from the span
   tree) and per rule (from the chase profiler).

     dune exec bin/profile.exe -- company-control
     dune exec bin/profile.exe -- stress-test --rounds --prometheus *)

open Cmdliner
open Ekg_core
open Ekg_apps

let print_stages ~wall_ms roots =
  Printf.printf "\n== stage breakdown ==\n";
  Printf.printf "  %-40s %10s %10s %7s\n" "stage" "total ms" "self ms" "% wall";
  List.iter
    (fun root ->
      List.iter
        (fun (depth, (sp : Ekg_obs.Trace.span)) ->
          let total = Ekg_obs.Trace.duration_ms sp in
          Printf.printf "  %-40s %10.3f %10.3f %6.1f%%\n"
            (String.make (2 * depth) ' ' ^ sp.name)
            total
            (Ekg_obs.Trace.self_ms sp)
            (if wall_ms > 0. then 100. *. total /. wall_ms else 0.))
        (Ekg_obs.Trace.flatten root))
    roots

let print_rules (stats : Ekg_engine.Chase.stats) =
  Printf.printf "\n== per-rule chase profile ==\n";
  Printf.printf "  %-32s %7s %6s %7s %10s %7s\n" "rule" "stratum" "evals"
    "facts" "ms" "% chase";
  let by_time =
    List.sort
      (fun (a : Ekg_engine.Chase.rule_stat) b -> compare b.time_s a.time_s)
      stats.per_rule
  in
  List.iter
    (fun (r : Ekg_engine.Chase.rule_stat) ->
      Printf.printf "  %-32s %7d %6d %7d %10.3f %6.1f%%\n" r.rule_id r.stratum
        r.evals r.facts (r.time_s *. 1000.)
        (if stats.wall_s > 0. then 100. *. r.time_s /. stats.wall_s else 0.))
    by_time;
  Printf.printf "  rounds per stratum: %s;  aggregate facts superseded: %d\n"
    (String.concat ", "
       (List.mapi
          (fun i n -> Printf.sprintf "#%d=%d" (i + 1) n)
          stats.rounds_per_stratum))
    stats.agg_superseded;
  Printf.printf "  join plans reordered: %d\n" stats.plan_reorders

let print_join_stats (stats : Ekg_engine.Chase.stats) =
  Printf.printf "\n== join engine ==\n";
  Printf.printf "  index builds: %d;  probe hits: %d\n" stats.join_builds
    stats.join_probe_hits;
  Printf.printf "  %-32s %10s %10s %10s %10s\n" "rule" "build ms" "probe ms"
    "insert ms" "total ms";
  let by_time =
    List.sort
      (fun (a : Ekg_engine.Chase.rule_stat) b -> compare b.time_s a.time_s)
      stats.per_rule
  in
  List.iter
    (fun (r : Ekg_engine.Chase.rule_stat) ->
      Printf.printf "  %-32s %10.3f %10.3f %10.3f %10.3f\n" r.rule_id
        (r.build_s *. 1000.) (r.probe_s *. 1000.) (r.insert_s *. 1000.)
        (r.time_s *. 1000.))
    by_time

let print_rounds (stats : Ekg_engine.Chase.stats) =
  Printf.printf "\n== per-round deltas ==\n";
  Printf.printf "  %-8s %-6s %10s %10s %10s\n" "stratum" "round" "delta"
    "new facts" "ms";
  List.iter
    (fun (r : Ekg_engine.Chase.round_stat) ->
      Printf.printf "  %-8d %-6d %10d %10d %10.3f\n" r.stratum r.round
        r.delta_size r.new_facts (r.time_s *. 1000.))
    stats.per_round

(* --magic: the goal-directed query lane's breakdown — where a point
   query's time goes (magic-sets rewrite, scoped chase, answer
   explanation) and what the pruning bought vs. the full chase *)
let run_magic ~budget pipeline edb qtext =
  match Ekg_datalog.Parser.parse_atom qtext with
  | Error e ->
    Fmt.epr "query: %s@." e;
    1
  | Ok atom -> (
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, (Unix.gettimeofday () -. t0) *. 1000.)
    in
    let pred = atom.Ekg_datalog.Atom.pred in
    let mask = Ekg_engine.Magic.adornment atom in
    let spec, rewrite_ms =
      time (fun () -> Pipeline.specialize pipeline ~pred ~mask)
    in
    match spec with
    | Error e ->
      Fmt.epr "query: %s@." e;
      1
    | Ok spec -> (
      let outcome, chase_ms =
        time (fun () -> Pipeline.query ~budget pipeline spec edb atom)
      in
      match outcome with
      | Error err ->
        Fmt.epr "query error: %s@." (Ekg_engine.Chase.error_to_string err);
        1
      | Ok qr ->
        let answers = qr.Pipeline.q_answers in
        let explained, answer_ms =
          time (fun () ->
              match answers with
              | [] -> None
              | qa :: _ -> (
                match Pipeline.explain_answer pipeline qr qa with
                | Ok e -> Some e
                | Error _ -> None))
        in
        Printf.printf "query: %s  (shape %s/%s, mode %s%s)\n" qtext pred mask
          (Pipeline.mode_name qr.Pipeline.q_mode)
          (match qr.Pipeline.q_fallback with
          | None -> ""
          | Some r -> ", fallback: " ^ r);
        Printf.printf "%d answer%s; %d facts derived in %d rounds\n"
          (List.length answers)
          (if List.length answers = 1 then "" else "s")
          qr.Pipeline.q_derived qr.Pipeline.q_rounds;
        Printf.printf "\n== query-lane breakdown ==\n";
        Printf.printf "  %-24s %10.3f ms\n" "magic-sets rewrite" rewrite_ms;
        Printf.printf "  %-24s %10.3f ms\n" "scoped chase + answers" chase_ms;
        Printf.printf "  %-24s %10.3f ms%s\n" "first-answer explanation"
          answer_ms
          (match explained with
          | Some _ -> ""
          | None -> "  (no intensional answer to explain)");
        let full, full_ms =
          time (fun () -> Ekg_engine.Chase.run pipeline.Pipeline.program edb)
        in
        (match full with
        | Ok full ->
          Printf.printf "\n== vs. full materialization ==\n";
          Printf.printf "  full chase: %d facts in %d rounds, %.3f ms\n"
            full.Ekg_engine.Chase.derived_count full.Ekg_engine.Chase.rounds
            full_ms;
          Printf.printf "  scoped instance: %.1f%% of the facts, %.1fx faster\n"
            (if full.Ekg_engine.Chase.derived_count > 0 then
               100.
               *. float_of_int qr.Pipeline.q_derived
               /. float_of_int full.Ekg_engine.Chase.derived_count
             else 0.)
            (if chase_ms > 0. then full_ms /. chase_ms else 0.)
        | Error e -> Fmt.epr "full chase failed: %s@." e);
        List.iteri
          (fun i (qa : Pipeline.query_answer) ->
            if i < 10 then
              Printf.printf "%s%s\n"
                (if i = 0 then "\n== answers (first 10) ==\n" else "")
                (Ekg_engine.Fact.to_string qa.Pipeline.qa_fact))
          answers;
        0))

let run app query deadline_ms rounds dump_trace prometheus join_stats
    fingerprint magic =
  let tracer = Ekg_obs.Trace.create () in
  let sink = Ekg_obs.Metrics.create () in
  let wall0 = Unix.gettimeofday () in
  let budget =
    match deadline_ms with
    | None -> Ekg_engine.Chase.unlimited
    | Some ms -> Ekg_engine.Chase.within_ms (float_of_int ms)
  in
  match Bundled.load ~obs:tracer app with
  | Error e ->
    Fmt.epr "error: %s@." e;
    1
  | Ok _ when magic && query = None ->
    Fmt.epr "error: --magic needs --query ATOM@.";
    1
  | Ok { Apps_util.pipeline; edb } when magic ->
    run_magic ~budget pipeline edb (Option.get query)
  | Ok { Apps_util.pipeline; edb } -> (
    match
      Ekg_obs.Trace.with_span tracer "chase" (fun span ->
          Ekg_engine.Chase.run_checked ~stats:sink ~budget ~obs:tracer
            ~parent:span pipeline.Pipeline.program edb)
    with
    | Error err ->
      Fmt.epr "reasoning error: %s@." (Ekg_engine.Chase.error_to_string err);
      1
    | Ok result -> (
      let goal = pipeline.Pipeline.program.goal in
      let explained =
        match query with
        | Some q ->
          Result.map List.length
            (Pipeline.explain_query ~obs:tracer pipeline result q)
        | None -> (
          (* no query: explain the first derived goal fact *)
          match Ekg_engine.Database.active result.db goal with
          | [] -> Error ("no derived facts for goal " ^ goal)
          | fact :: _ ->
            Result.map
              (fun (_ : Pipeline.explanation) -> 1)
              (Pipeline.explain ~obs:tracer pipeline result fact))
      in
      let wall_ms = (Unix.gettimeofday () -. wall0) *. 1000. in
      match explained with
      | Error e ->
        Fmt.epr "explanation error: %s@." e;
        1
      | Ok explained ->
        Printf.printf
          "app: %s  goal: %s\nderived %d facts in %d rounds; %d explanation%s\n"
          app goal result.derived_count result.rounds explained
          (if explained = 1 then "" else "s");
        let roots = List.rev (Ekg_obs.Trace.recent tracer) in
        print_stages ~wall_ms roots;
        let accounted =
          List.fold_left
            (fun acc r -> acc +. Ekg_obs.Trace.duration_ms r)
            0. roots
        in
        Printf.printf "\n  accounted %.3f ms of %.3f ms wall-clock (%.1f%%)\n"
          accounted wall_ms
          (if wall_ms > 0. then 100. *. accounted /. wall_ms else 0.);
        Option.iter
          (fun stats ->
            print_rules stats;
            if join_stats then print_join_stats stats;
            if rounds then print_rounds stats)
          result.stats;
        if fingerprint then
          Printf.printf "\nfingerprint: %s\n"
            (Digest.to_hex
               (Digest.string
                  (Ekg_engine.Io.result_to_json result
                  ^ Ekg_engine.Export.chase_graph_dot result)));
        if dump_trace then begin
          Printf.printf "\n== trace (JSONL) ==\n";
          print_string (Ekg_obs.Trace.jsonl tracer)
        end;
        if prometheus then begin
          Printf.printf "\n== metrics (Prometheus) ==\n";
          print_string (Ekg_obs.Metrics.to_prometheus sink)
        end;
        0))

let app_t =
  let doc =
    "Bundled application to profile (company-control, stress-test, \
     close-link, golden-power)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let query_t =
  let doc = "Explanation query to profile instead of the first goal fact." in
  Arg.(value & opt (some string) None & info [ "query"; "q" ] ~docv:"ATOM" ~doc)

let deadline_ms_t =
  let doc =
    "Abort the chase after this many milliseconds (exercises the \
     cooperative-cancellation path; partial progress is reported)."
  in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let rounds_t =
  Arg.(value & flag & info [ "rounds" ] ~doc:"Also print the per-round deltas.")

let trace_t =
  Arg.(value & flag & info [ "trace" ] ~doc:"Also dump the span trees as JSONL.")

let prometheus_t =
  Arg.(
    value & flag
    & info [ "prometheus" ]
        ~doc:"Also dump the chase metrics in Prometheus text format.")

let join_stats_t =
  Arg.(
    value & flag
    & info [ "join-stats" ]
        ~doc:
          "Also print the per-rule join breakdown: index build, probe and \
           insert time.")

let fingerprint_t =
  Arg.(
    value & flag
    & info [ "fingerprint" ]
        ~doc:
          "Also print a digest of the full chase output (result JSON + \
           provenance dot) — the test suite pins it per bundled app.")

let magic_t =
  Arg.(
    value & flag
    & info [ "magic" ]
        ~doc:
          "Answer $(b,--query) through the goal-directed lane instead of \
           explaining it over the full chase: print the magic-sets \
           rewrite / scoped chase / answer-explanation time breakdown \
           and the pruning vs. a full materialization.")

let cmd =
  let doc = "profile a bundled application: per-stage and per-rule breakdown" in
  let info = Cmd.info "ekg-profile" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const run $ app_t $ query_t $ deadline_ms_t $ rounds_t
      $ trace_t $ prometheus_t $ join_stats_t $ fingerprint_t
      $ magic_t)

let () = exit (Cmd.eval' cmd)
