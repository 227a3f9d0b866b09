(* ekg-serve: the long-lived explanation service.

   Loads (program, glossary, EDB) triples into sessions once, caches
   the compiled pipeline and chase materialization, and answers
   repeated explanation queries over HTTP — the reasoning-as-a-service
   shape of the Vadalog system, applied to the paper's template
   pipeline.  See README "Running the explanation server". *)

open Cmdliner
open Ekg_server

let run host port domains chase_domains root preload fault queue_high_water
    default_deadline_ms max_deadline_ms store_dir snapshot_mode
    max_hot_sessions log_level log_file slowlog_threshold_ms =
  if chase_domains <> 1 then begin
    Fmt.epr "error: --chase-domains %d: the chase is sequential, only 1 is accepted@."
      chase_domains;
    1
  end
  else
  (* the --fault flag wins over the EKG_FAULT environment variable *)
  let fault =
    match fault with Some spec -> Fault.parse spec | None -> Fault.of_env ()
  in
  let store =
    match store_dir with
    | None -> Ok None
    | Some dir -> Result.map Option.some (Ekg_store.Store.open_dir dir)
  in
  let snapshot_mode = Ekg_store.Snapshotter.mode_of_string snapshot_mode in
  let log_level = Ekg_obs.Log.level_of_string log_level in
  match fault, store, snapshot_mode, log_level with
  | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e ->
    Fmt.epr "error: %s@." e;
    1
  | Ok fault, Ok store, Ok snapshot_mode, Ok log_level ->
  let slow_threshold_ms = float_of_int slowlog_threshold_ms in
  let log =
    match log_file with
    | None -> Ok (Ekg_obs.Log.create ~level:log_level ~slow_threshold_ms ())
    | Some path -> Ekg_obs.Log.open_file ~level:log_level ~slow_threshold_ms path
  in
  match log with
  | Error e ->
    Fmt.epr "error: cannot open log file: %s@." e;
    1
  | Ok log ->
  let state =
    Router.make_state ~root ~fault
      ~default_deadline_ms:(float_of_int default_deadline_ms)
      ~max_deadline_ms:(float_of_int max_deadline_ms) ?store ~snapshot_mode
      ~max_hot_sessions ~log ()
  in
  (* crash recovery: re-register every snapshotted session dormant, so
     the restarted daemon serves explanations without recomputing
     fixpoints — the first request per session warm-restores from disk *)
  (match store with
  | None -> ()
  | Some s ->
    let recovered, failed = Registry.recover (Router.registry state) in
    List.iter
      (fun (sess : Registry.session) ->
        Fmt.pr "recovered session %s (%s) from %s@." sess.Registry.id
          sess.Registry.name
          (Ekg_store.Store.path s sess.Registry.id))
      recovered;
    List.iter
      (fun (id, reason) ->
        Fmt.epr "warning: could not recover session %s: %s@." id reason)
      failed;
    if recovered <> [] then
      Fmt.pr "ekg-serve: recovered %d session(s) from %s@."
        (List.length recovered) (Ekg_store.Store.dir s));
  (* optionally pre-register bundled applications so the daemon is
     immediately queryable, e.g. --preload company-control *)
  let preload_errors =
    List.filter_map
      (fun app ->
        match Registry.add (Router.registry state) ~name:app (Registry.App app) with
        | Ok session ->
          Fmt.pr "preloaded %s as session %s@." app session.Registry.id;
          None
        | Error e -> Some e)
      preload
  in
  match preload_errors with
  | e :: _ ->
    Fmt.epr "error: %s@." e;
    1
  | [] ->
    let config = { Server.host; port; domains; queue_high_water } in
    (match Server.start ~config state with
    | exception Unix.Unix_error (err, _, _) ->
      Fmt.epr "error: cannot bind %s:%d: %s@." host port (Unix.error_message err);
      1
    | server ->
      let stop _ = Server.request_stop server in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Fmt.pr "ekg-serve: listening on http://%s:%d (%d worker domains, root %s)@."
        host (Server.port server) domains root;
      (match log_file with
      | Some path ->
        Fmt.pr "ekg-serve: wide-event log -> %s (level %s, slowlog > %dms)@."
          path
          (Ekg_obs.Log.level_to_string log_level)
          slowlog_threshold_ms
      | None -> ());
      if fault <> Fault.Off then
        Fmt.pr "ekg-serve: fault injection active: %s@." (Fault.to_string fault);
      (match store with
      | None -> ()
      | Some s ->
        Fmt.pr "ekg-serve: persisting sessions under %s (snapshot mode %s%s)@."
          (Ekg_store.Store.dir s)
          (Ekg_store.Snapshotter.mode_to_string snapshot_mode)
          (if max_hot_sessions > 0 then
             Printf.sprintf ", max %d hot" max_hot_sessions
           else ""));
      Server.wait server;
      (* drain pending write-behind snapshots before exiting, so the
         store holds every committed update *)
      Registry.stop_persistence (Router.registry state);
      Ekg_obs.Log.close log;
      Fmt.pr "ekg-serve: drained, bye@.";
      0)

let host_t =
  let doc = "Address to bind." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let port_t =
  let doc = "Port to listen on (0 picks an ephemeral port)." in
  Arg.(value & opt int 8080 & info [ "port"; "p" ] ~docv:"PORT" ~doc)

let domains_t =
  let doc = "Worker domains serving requests concurrently." in
  let default = min 4 (max 1 (Domain.recommended_domain_count () - 1)) in
  Arg.(value & opt int default & info [ "domains"; "j" ] ~docv:"N" ~doc)

let chase_domains_t =
  let doc =
    "Accepted only as 1, for existing command lines: the chase is \
     sequential, and any other value exits with an error."
  in
  Arg.(value & opt int 1 & info [ "chase-domains" ] ~docv:"N" ~doc)

let root_t =
  let doc = "Root directory for program_path/facts_dir session specs." in
  Arg.(value & opt dir "." & info [ "root" ] ~docv:"DIR" ~doc)

let preload_t =
  let doc = "Bundled application to preload as a session (repeatable)." in
  Arg.(value & opt_all string [] & info [ "preload" ] ~docv:"APP" ~doc)

let fault_t =
  let doc =
    "Inject a fault for robustness drills: off, delay[:ms], \
     refuse-accept, or slow-chase[:ms].  Overrides the EKG_FAULT \
     environment variable."
  in
  Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"SPEC" ~doc)

let queue_high_water_t =
  let doc =
    "Admission-queue depth at which new requests are shed with 503 \
     (0 sheds every non-probe request)."
  in
  Arg.(
    value
    & opt int Server.default_config.Server.queue_high_water
    & info [ "queue-high-water" ] ~docv:"N" ~doc)

let default_deadline_ms_t =
  let doc =
    "Deadline applied to requests that carry no X-Ekg-Deadline-Ms header."
  in
  Arg.(value & opt int 30_000 & info [ "default-deadline-ms" ] ~docv:"MS" ~doc)

let max_deadline_ms_t =
  let doc = "Cap on the deadline a client may request." in
  Arg.(value & opt int 300_000 & info [ "max-deadline-ms" ] ~docv:"MS" ~doc)

let store_dir_t =
  let doc =
    "Directory for persistent session snapshots.  Sessions found there \
     at startup are recovered dormant (explanations warm-restore from \
     disk instead of re-chasing); omitting the flag disables \
     persistence entirely."
  in
  Arg.(value & opt (some string) None & info [ "store-dir" ] ~docv:"DIR" ~doc)

let snapshot_mode_t =
  let doc =
    "When snapshots are written: 'behind' (default; off the request \
     path on a dedicated domain, bursts coalesced), 'sync' (inline at \
     commit), or 'off' (only at eviction).  Ignored without --store-dir."
  in
  Arg.(value & opt string "behind" & info [ "snapshot" ] ~docv:"MODE" ~doc)

let max_hot_sessions_t =
  let doc =
    "Most sessions allowed to hold an in-memory materialization; \
     beyond it the least-recently-used are demoted to their snapshot \
     (0 = unbounded).  Requires --store-dir."
  in
  Arg.(value & opt int 0 & info [ "max-hot-sessions" ] ~docv:"N" ~doc)

let log_level_t =
  let doc =
    "Severity floor of the wide-event log: debug, info, warn, or \
     error.  The slow-request ring captures over-threshold requests \
     regardless of the level."
  in
  Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let log_file_t =
  let doc =
    "Append one JSON object per request (the wide event: trace id, \
     endpoint, status, queue wait, chase cost, GC deltas) to this \
     file.  Without the flag nothing is written, but the in-memory \
     slow-request ring behind /v1/debug/slowlog still fills."
  in
  Arg.(value & opt (some string) None & info [ "log-file" ] ~docv:"PATH" ~doc)

let slowlog_threshold_ms_t =
  let doc =
    "Requests slower than this are captured in the slow-request ring \
     served by GET /v1/debug/slowlog."
  in
  Arg.(
    value & opt int 500 & info [ "slowlog-threshold-ms" ] ~docv:"MS" ~doc)

let cmd =
  let doc = "explanation service over the template pipeline" in
  let info = Cmd.info "ekg-serve" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const run $ host_t $ port_t $ domains_t $ chase_domains_t $ root_t
      $ preload_t $ fault_t $ queue_high_water_t $ default_deadline_ms_t
      $ max_deadline_ms_t $ store_dir_t $ snapshot_mode_t
      $ max_hot_sessions_t $ log_level_t $ log_file_t
      $ slowlog_threshold_ms_t)

let () = exit (Cmd.eval' cmd)
