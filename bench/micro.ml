(* [bechamel] — micro-benchmarks: one Bechamel test per reproduced
   table/figure, timing the computational kernel behind it, plus the
   semi-naive/naive chase ablation. *)

open Bechamel
open Toolkit
open Ekg_kernel
open Ekg_core
open Ekg_apps
open Ekg_datagen

let fixtures () =
  let rng = Prng.create 190 in
  let cc_pipeline = Company_control.pipeline () in
  let st_pipeline = Stress_test.pipeline () in
  let chain21 = Owners.chain rng ~hops:21 in
  let cc_result =
    match Pipeline.reason cc_pipeline chain21.edb with
    | Ok r -> r
    | Error e -> failwith e
  in
  let cc_fact =
    match Ekg_engine.Query.ask cc_result.db chain21.goal with
    | (f, _) :: _ -> f
    | [] -> failwith "no goal"
  in
  let cascade7 = Debts.dual_cascade rng ~depth:7 in
  let st_result =
    match Pipeline.reason st_pipeline cascade7.edb with
    | Ok r -> r
    | Error e -> failwith e
  in
  let st_fact =
    match Ekg_engine.Query.ask st_result.db cascade7.goal with
    | (f, _) :: _ -> f
    | [] -> failwith "no goal"
  in
  let sample_explanation =
    match Pipeline.explain cc_pipeline cc_result cc_fact with
    | Ok e -> e
    | Error e -> failwith e
  in
  let deterministic =
    Verbalizer.verbalize_proof Company_control.glossary Company_control.program
      sample_explanation.proof
  in
  let constants =
    Verbalizer.constant_strings Company_control.glossary sample_explanation.proof
  in
  let chain20 = Owners.chain rng ~hops:20 in
  ( cc_pipeline,
    st_pipeline,
    cc_result,
    cc_fact,
    st_result,
    st_fact,
    sample_explanation,
    deterministic,
    constants,
    chain20 )

let tests () =
  let ( cc_pipeline,
        st_pipeline,
        cc_result,
        cc_fact,
        st_result,
        st_fact,
        sample_explanation,
        deterministic,
        constants,
        chain20 ) =
    fixtures ()
  in
  [
    (* Figures 3/9/10: the structural analysis itself *)
    Test.make ~name:"fig10.structural-analysis.company-control"
      (Staged.stage (fun () -> Reasoning_path.analyze Company_control.program));
    Test.make ~name:"fig10.structural-analysis.stress-test"
      (Staged.stage (fun () -> Reasoning_path.analyze Stress_test.program));
    (* Figure 6: template generation + enhancement *)
    Test.make ~name:"fig6.templates.build-and-enhance"
      (Staged.stage (fun () -> Stress_test.simple_pipeline ()));
    (* Figure 14: visualization scoring behind the comprehension study *)
    Test.make ~name:"fig14.readability-and-matching"
      (Staged.stage (fun () ->
           Ekg_stats.Readability.analyze sample_explanation.Pipeline.text));
    (* Figure 16: one simulated expert grade *)
    Test.make ~name:"fig16.fluency-grade"
      (Staged.stage (fun () ->
           Ekg_stats.Readability.fluency_score sample_explanation.Pipeline.text));
    (* Figure 17: one simulated-LLM rewrite + omission measurement *)
    Test.make ~name:"fig17.llm-summary-and-omission"
      (Staged.stage (fun () ->
           let out =
             Ekg_llm.Mock_llm.rewrite Ekg_llm.Mock_llm.Summarize ~proof_length:21
               ~constants deterministic
           in
           Ekg_llm.Omission.omitted_ratio ~constants out));
    (* Figure 18: the explanation step on long proofs, both apps *)
    Test.make ~name:"fig18.explain.company-control-21-steps"
      (Staged.stage (fun () -> Pipeline.explain cc_pipeline cc_result cc_fact));
    Test.make ~name:"fig18.explain.stress-test-22-steps"
      (Staged.stage (fun () -> Pipeline.explain st_pipeline st_result st_fact));
    (* ablation: chase evaluation strategies *)
    Test.make ~name:"ablation.chase.semi-naive-20-hops"
      (Staged.stage (fun () ->
           Ekg_engine.Chase.run_exn Company_control.program chain20.Owners.edb));
    Test.make ~name:"ablation.chase.naive-20-hops"
      (Staged.stage (fun () ->
           Ekg_engine.Chase.run_exn ~naive:true Company_control.program
             chain20.Owners.edb));
    (* ablation: profiling overhead — same chase with stats collection
       into a disabled sink; compare against semi-naive-20-hops to see
       what instrumentation costs when nobody is scraping *)
    Test.make ~name:"ablation.obs.chase-20-hops-noop-sink"
      (Staged.stage
         (let sink = Ekg_obs.Metrics.noop () in
          fun () ->
            Ekg_engine.Chase.run_exn ~stats:sink Company_control.program
              chain20.Owners.edb));
    (* ablation: full observability — stats into a live registry *)
    Test.make ~name:"ablation.obs.chase-20-hops-live-sink"
      (Staged.stage
         (let sink = Ekg_obs.Metrics.create () in
          fun () ->
            Ekg_engine.Chase.run_exn ~stats:sink Company_control.program
              chain20.Owners.edb));
  ]

let run () =
  Bench_util.section "bechamel" "Micro-benchmarks (one per reproduced table/figure)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let grouped = Test.make_grouped ~name:"repro" ~fmt:"%s %s" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        match Analyze.OLS.estimates ols_result with
        | Some [ ns ] -> (name, ns) :: acc
        | Some _ | None -> (name, Float.nan) :: acc)
      clock []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Printf.printf "\n  %-50s %s\n" "benchmark" "time per run";
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns >= 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
        else Printf.sprintf "%8.1f ns" ns
      in
      Printf.printf "  %-50s %s\n" name human)
    rows
