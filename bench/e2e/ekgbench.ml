(* ekgbench: the repository's end-to-end benchmark (README.md beside
   this file; BENCHMARK.json at the repository root lists its
   workloads and metrics).

   [run] measures one workload on one seed: it generates the inputs,
   starts bin/serve.exe as a child process, drives it over loopback
   HTTP with one closed-loop client for a fixed window, checks what the
   server answered, prints one "name value unit" line per metric and,
   last, one JSON object.  With [--trace 1] it prints the per-layer
   metrics instead.  [repeat] runs workloads several times on
   successive seeds and reports each metric's spread against its
   bound; [smoke] is the toy-size self-check the test suite runs. *)

open Cmdliner
module Json = Ekg_server.Json
module W = Workload
module T = Traffic

(* --- files ------------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let command_output cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let out = In_channel.input_all ic in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when String.trim out <> "" -> Some (String.trim out)
    | _ -> None)

(* --- metrics ------------------------------------------------------------------------ *)

let latency q kind (o : T.outcome) = Stats.percentile q (T.durations kind o.window)

(* the end-to-end metrics every workload reports; BENCHMARK.json gives
   each its direction and regression bound *)
let e2e (o : T.outcome) ~rss_kib =
  [
    "setup_s", Stats.percentile 0.5 o.setups, "s";
    "write_p50_ms", latency 0.5 T.Batch o, "ms";
    "query_p50_ms", latency 0.5 T.Query o, "ms";
    "explain_p50_ms", latency 0.5 T.Explain o, "ms";
    "peak_rss_mib", float_of_int rss_kib /. 1024., "MiB";
  ]

(* Tails go to the result file only: the explanation p90 of a cdc-*
   run moves between runs of the same code by about half its value, so
   no bound could hold it. *)
let tails (o : T.outcome) =
  List.map
    (fun (name, kind) -> name, Json.num (latency 0.9 kind o))
    [ "write_p90_ms", T.Batch; "query_p90_ms", T.Query; "explain_p90_ms", T.Explain ]

(* full precision, and always a valid JSON number *)
let json_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf {|%s: {"value": %s, "unit": %s}|} (Json.escape_string name)
              (json_number v) (Json.escape_string unit))
          metrics))

(* --- run ----------------------------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let git_revision () =
  if Sys.file_exists ".git" then command_output "git rev-parse HEAD" else None

(* One measured run of [w] at [entities] core entities: generate the
   inputs, drive a child server, check it, write the result file into
   [out_dir].  Diagnostics go to stderr. *)
let measure (w : W.t) ~entities ~seed ~seconds ~trace ~server ~out_dir =
  mkdir_p out_dir;
  (* unmeasured traffic before the window *)
  let warmup = Float.min 1. (seconds /. 25.) in
  let root = Filename.concat out_dir (Printf.sprintf "root-%d" (Unix.getpid ())) in
  rm_rf root;
  mkdir_p root;
  (* [exit] from a signal handler or the alarm skips [Fun.protect]:
     stop the server, then remove its root *)
  at_exit (fun () ->
      List.iter Loopback.stop !Loopback.live;
      rm_rf root);
  let inp, metrics, (outcomes : T.outcome list), rss_kib =
    Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
    let inp = W.prepare w ~seed ~entities ~dir:root in
    (* tracing splits the window: half untraced over HTTP (the
       transport baseline), half traced in-process *)
    let http_seconds = if trace then seconds /. 2. else seconds in
    let srv = Loopback.start ~exe:server ~root in
    let http, rss_kib =
      Fun.protect ~finally:(fun () -> Loopback.stop srv) @@ fun () ->
      let o = T.drive (T.http srv.Loopback.port) inp ~warmup ~seconds:http_seconds ~trace in
      o, Loopback.peak_rss_kib srv
    in
    if not trace then inp, e2e http ~rss_kib, [ http ], rss_kib
    else
      let state = Ekg_server.Router.make_state ~root ~chase_domains:1 () in
      let inproc = T.drive (Shadow.in_process state) inp ~warmup ~seconds:(seconds /. 2.) ~trace in
      let sh = Shadow.shadow_pass state inp in
      inp, Shadow.metrics ~http ~inproc ~rss_kib sh, [ http; inproc ], rss_kib
  in
  let sum f = List.fold_left (fun n o -> n + f o) 0 outcomes in
  let missing =
    List.filter_map (fun (name, v, _) -> if Float.is_finite v then None else Some name) metrics
  in
  let metrics = List.map (fun (n, v, u) -> n, (if Float.is_finite v then v else 0.), u) metrics in
  let attempted = sum (fun o -> o.T.attempted) in
  let failed = sum (fun o -> o.T.failed) in
  let mismatches = sum (fun o -> o.T.mismatches) in
  let correct = mismatches = 0 && failed = 0 && missing = [] in
  List.iter (fun e -> Printf.eprintf "ekgbench: %s\n" e) (List.concat_map (fun o -> o.T.errors) outcomes);
  if missing <> [] then Printf.eprintf "ekgbench: no samples for %s\n" (String.concat ", " missing);
  let kg = inp.W.kg in
  let doc =
    Json.Obj
      [
        "workload", Json.str w.W.name;
        "seed", Json.int seed;
        "trace", Json.bool trace;
        "window_s", Json.num seconds;
        "warmup_s", Json.num warmup;
        "nproc", Json.int (Domain.recommended_domain_count ());
        "ocaml", Json.str Sys.ocaml_version;
        "git_revision", Json.str (Option.value ~default:"unknown" (git_revision ()));
        ( "sizes",
          Json.Obj
            [
              "core_entities", Json.int entities;
              "entities", Json.int kg.Ekg_datagen.Kg.total_entities;
              "base_facts", Json.int (List.length inp.W.base);
              "materialized_facts", Json.int (Ekg_engine.Database.active_size inp.W.reference.Ekg_engine.Chase.db);
              "goals", Json.int (Array.length inp.W.goals);
              "sources", Json.int (Array.length inp.W.sources);
              "cdc_batches", Json.int (Array.length inp.W.log);
              "cdc_batch_size", Json.int (W.batch_size w.W.mix);
            ] );
        ( "samples",
          let all f = List.concat_map f outcomes in
          let count kind = Json.int (List.length (T.durations kind (all (fun o -> o.T.window)))) in
          Json.Obj
            [
              "setups", Json.int (List.length (all (fun o -> o.T.setups)));
              "query", count T.Query;
              "explain", count T.Explain;
              "batch", count T.Batch;
            ] );
        "tails", Json.Obj (tails (List.hd outcomes));
        "peak_rss_kib", Json.int rss_kib;
        "correct", Json.bool correct;
        "attempted", Json.int attempted;
        "failed", Json.int failed;
        "mismatches", Json.int mismatches;
        ( "metrics",
          Json.Obj (List.map (fun (n, v, u) -> n, Json.Obj [ "value", Json.num v; "unit", Json.str u ]) metrics) );
      ]
  in
  Bench_util.write_file_atomic
    (Filename.concat out_dir (w.W.name ^ if trace then ".trace.json" else ".json"))
    (Json.to_string doc ^ "\n");
  { correct; attempted; failed; metrics }

let run_cmd workload seed seconds trace server out_dir =
  match W.find workload with
  | None ->
    Printf.eprintf "ekgbench: unknown workload %s (one of: %s)\n" workload
      (String.concat ", " (List.map (fun w -> w.W.name) W.all));
    2
  | Some _ when not (Sys.file_exists server) ->
    Printf.eprintf "ekgbench: no server binary at %s (build bin/serve.exe first)\n" server;
    2
  | Some w ->
    (* a hung run still reaps its child (at_exit) and ends inside the
       caller's 180 s limit *)
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> prerr_endline "ekgbench: run timed out"; exit 124));
    ignore (Unix.alarm 170);
    let r = measure w ~entities:w.W.entities ~seed ~seconds ~trace:(trace <> 0) ~server ~out_dir in
    List.iter (fun (name, v, unit) -> Printf.printf "%s %.6g %s\n" name v unit) r.metrics;
    print_endline (result_line ~correct:r.correct ~attempted:r.attempted ~failed:r.failed r.metrics);
    if r.correct then 0 else 1

(* --- repeat and smoke: ekgbench driving itself ------------------------------------------- *)

(* one [run] as a child process: exit code, stdout lines *)
let run_child args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: "run" :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 255 in
  code, List.filter (( <> ) "") (String.split_on_char '\n' out)

let last = function [] -> None | lines -> Some (List.nth lines (List.length lines - 1))

let result_metrics line =
  match Json.parse line with
  | Error _ -> None
  | Ok j ->
    Option.map
      (fun m ->
        ( Json.mem_bool "correct" j = Some true,
          match m with
          | Json.Obj fields ->
            List.filter_map
              (fun (name, v) -> Option.map (fun x -> name, x) (Option.bind (Json.member "value" v) Json.get_num))
              fields
          | _ -> [] ))
      (Json.member "metrics" j)

(* BENCHMARK.json's metric declarations: (name, unit, bound) *)
let declared benchmark section =
  match Json.parse (read_file benchmark) with
  | Error e -> failwith (benchmark ^ ": " ^ e)
  | Ok doc ->
    Option.value ~default:[] (Option.bind (Json.member section doc) Json.get_arr)
    |> List.filter_map (fun m ->
           Option.map
             (fun name ->
               ( name,
                 Option.value ~default:"" (Json.mem_str "unit" m),
                 Option.value ~default:Float.nan (Option.bind (Json.member "bound" m) Json.get_num) ))
             (Json.mem_str "name" m))

let repeat_cmd runs seed seconds server out_dir benchmark =
  let workloads = List.map (fun w -> w.W.name) W.all in
  let bounds = declared benchmark "end_to_end" in
  let values = Hashtbl.create 64 in
  let failures = ref 0 in
  for i = 0 to runs - 1 do
    (* alternate the order so no workload always runs on a fresh box *)
    let order = if i mod 2 = 0 then workloads else List.rev workloads in
    List.iter
      (fun w ->
        let t0 = Unix.gettimeofday () in
        let code, lines =
          run_child
            [ "--workload"; w; "--seed"; string_of_int (seed + i); "--seconds"; string_of_float seconds;
              "--server"; server; "--out-dir"; out_dir ]
        in
        let wall = Unix.gettimeofday () -. t0 in
        match Option.bind (last lines) result_metrics with
        | Some (true, ms) when code = 0 ->
          List.iter
            (fun (name, v) ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt values (w, name)) in
              Hashtbl.replace values (w, name) ((i, v) :: prev))
            ms;
          Printf.printf "run %d %s seed %d (%.0f s): ok %s\n%!" i w (seed + i) wall
            (String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%.4g" n v) ms))
        | _ ->
          incr failures;
          Printf.printf "run %d %s seed %d (%.0f s): FAILED (exit %d)\n%!" i w (seed + i) wall code)
      order
  done;
  (* two interleaved sets (even and odd runs) stand in for two sessions
     of the same code: their medians must agree within the bound *)
  Printf.printf "\n%-14s %-15s %10s %10s %10s %7s %6s %8s\n" "workload" "metric" "median" "q1" "q3"
    "spread" "bound" "sets";
  List.iter
    (fun w ->
      List.iter
        (fun (name, _, bound) ->
          match Hashtbl.find_opt values (w, name) with
          | None -> ()
          | Some vs ->
            let all = List.map snd vs in
            let q1, med, q3 = Stats.quartiles all in
            let spread = (q3 -. q1) /. med in
            let set k = List.filter_map (fun (i, v) -> if i mod 2 = k then Some v else None) vs in
            let _, m0, _ = Stats.quartiles (set 0) and _, m1, _ = Stats.quartiles (set 1) in
            Printf.printf "%-14s %-15s %10.4g %10.4g %10.4g %6.1f%% %5.0f%% %7.1f%%%s\n" w name med q1 q3
              (100. *. spread) (100. *. bound)
              (100. *. (m1 -. m0) /. m0)
              (if spread > bound /. 3. then "  spread > bound/3" else ""))
        bounds)
    workloads;
  if !failures > 0 then 1 else 0

(* toy-size walk through every workload and one traced run: every
   declared metric must be reported with its unit, every gate must pass,
   and the trace file must carry every layer metric *)
let toy_entities = 300
let toy_seconds = 2.

let smoke_cmd server out_dir benchmark =
  let e2e_names = declared benchmark "end_to_end" in
  let layer_names = declared benchmark "per_layer" in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let check (w : W.t) ~trace names =
    let label = w.W.name ^ if trace then " (traced)" else "" in
    match measure w ~entities:toy_entities ~seed:1 ~seconds:toy_seconds ~trace ~server ~out_dir with
    | exception e -> problem "%s: %s" label (Printexc.to_string e)
    | r ->
      if not r.correct then problem "%s: the run is not correct" label;
      List.iter
        (fun (name, unit, _) ->
          if not (List.exists (fun (n, _, u) -> n = name && u = unit) r.metrics) then
            problem "%s: %s (%s) not reported" label name unit)
        names
  in
  List.iter (fun w -> check w ~trace:false e2e_names) W.all;
  let traced = List.hd W.all in
  check traced ~trace:true layer_names;
  (match Json.parse (read_file (Filename.concat out_dir (traced.W.name ^ ".trace.json"))) with
  | Ok doc ->
    List.iter
      (fun (name, _, _) ->
        if Option.bind (Json.member "metrics" doc) (Json.member name) = None then
          problem "trace file lacks %s" name)
      layer_names
  | Error e -> problem "trace file: %s" e);
  match List.rev !problems with
  | [] ->
    print_endline "ekgbench smoke: ok";
    0
  | ps ->
    List.iter (Printf.eprintf "ekgbench smoke: %s\n") ps;
    1

(* --- CLI --------------------------------------------------------------------------------- *)

let server_t =
  let doc = "The ekg-serve binary to start as the child server." in
  Arg.(value & opt string "_build/default/bin/serve.exe" & info [ "server" ] ~docv:"EXE" ~doc)

let out_dir_t =
  let doc = "Directory for result files and the per-run server root." in
  Arg.(value & opt string "_build/ekgbench" & info [ "out-dir" ] ~docv:"DIR" ~doc)

let benchmark_t =
  let doc = "The BENCHMARK.json declaring the metrics and their bounds." in
  Arg.(value & opt string "BENCHMARK.json" & info [ "benchmark" ] ~docv:"FILE" ~doc)

let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Input seed.")

let seconds_t =
  let doc = "Length of the measured window (BENCHMARK.json's run_seconds)." in
  Arg.(value & opt float 35. & info [ "seconds" ] ~docv:"S" ~doc)

let run_term =
  let workload_t =
    Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.")
  in
  let trace_t =
    let doc = "1: report per-layer metrics from a traced run instead of the end-to-end ones." in
    Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1" ~doc)
  in
  Term.(const run_cmd $ workload_t $ seed_t $ seconds_t $ trace_t $ server_t $ out_dir_t)

let repeat_term =
  let runs_t = Arg.(value & opt int 10 & info [ "runs" ] ~docv:"K" ~doc:"Runs per workload.") in
  Term.(const repeat_cmd $ runs_t $ seed_t $ seconds_t $ server_t $ out_dir_t $ benchmark_t)

let smoke_term = Term.(const smoke_cmd $ server_t $ out_dir_t $ benchmark_t)

let () =
  (* a dropped connection is an error to count, not a reason to die;
     SIGINT/SIGTERM exit through at_exit, which reaps the child server *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let quit code = Sys.Signal_handle (fun _ -> exit code) in
  Sys.set_signal Sys.sigint (quit 130);
  Sys.set_signal Sys.sigterm (quit 143);
  let cmds =
    [
      Cmd.v (Cmd.info "run" ~doc:"measure one workload on one seed") run_term;
      Cmd.v (Cmd.info "repeat" ~doc:"run workloads on successive seeds and report spreads") repeat_term;
      Cmd.v (Cmd.info "smoke" ~doc:"toy-size self-check of every workload and the traced run") smoke_term;
    ]
  in
  exit (Cmd.eval' (Cmd.group (Cmd.info "ekgbench" ~doc:"end-to-end benchmark of the explanation service") cmds))
