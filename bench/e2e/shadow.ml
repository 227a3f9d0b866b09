(* The traced run's per-layer measurements, taken from outside the
   program by timing calls to each layer's public functions — no
   instrumentation is added to the program itself.

   - In-process phase: the workload's client calls [Router.handle]
     directly (no sockets), one timed call per operation.
   - Sequential shadow pass, after that window, on a fresh session of
     the same state: set-up layers, a profiled cold chase, CDC updates
     replayed layer by layer, and reads split into specialization,
     scoped chase, proof extraction, mapping, verbalization and
     encoding.  Each operation also goes through [Router.handle], just
     before or just after the direct calls, alternately; the share of
     its routed time the direct calls do not account for is its
     residual. *)

open Ekg_datalog
open Ekg_engine
open Ekg_core
open Ekg_server
module W = Workload
module T = Traffic

let now = T.now

let timed f =
  let t0 = now () in
  let r = f () in
  r, (now () -. t0) *. 1000.

let raw_request meth target body =
  let head = Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n" meth target in
  let len = if meth = "GET" then "" else Printf.sprintf "Content-Length: %d\r\n" (String.length body) in
  match Http.parse_request_string (head ^ len ^ "\r\n" ^ body) with
  | Ok req -> req
  | Error e -> failwith (Http.error_message e)

let in_process state =
  {
    T.call =
      (fun meth target body ->
        let req = raw_request meth target body in
        let t0 = now () in
        let resp = Router.handle state req in
        resp.Http.status, resp.Http.resp_body, t0, now ());
    traced = true;
  }

(* --- order statistics over a phase's samples ------------------------------------- *)

let ratio pred kind samples =
  let of_kind = List.filter (fun (s : T.sample) -> s.kind = kind) samples in
  float_of_int (List.length (List.filter pred of_kind))
  /. float_of_int (max 1 (List.length of_kind))

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Json.to_string of a response document, in microseconds; repeated so
   the clock's resolution does not dominate small documents *)
let encode_us body =
  match Json.parse body with
  | Error _ -> 0.
  | Ok doc ->
    let reps = 20 in
    let (), total =
      timed (fun () ->
          for _ = 1 to reps do
            ignore (Sys.opaque_identity (Json.to_string doc))
          done)
    in
    total *. 1000. /. float_of_int reps

(* --- the sequential shadow pass ---------------------------------------------------- *)

type shadow = {
  add_ms : float;
  build_ms : float;
  materialize_ms : float;
  cold_ms : float;
  stats : Chase.stats;
  derived : int;
  copy_ms : float list;
  apply_add_ms : float list;
  apply_retract_ms : float list;
  edb_atoms_ms : float list;
  updates : Chase.update list;
  specialize_ms : float list;
  query_ms : float list;
  scoped_facts : float list;
  edb_per_answer : float list;
  explain_answer_ms : float list;
  explain_ms : float list;
  spans : (string, float list) Hashtbl.t;  (** self ms per explain stage *)
  covered : int;  (** explanations served by precomputed templates only *)
  explained : int;
  encode_query_us : float list;
  encode_explain_us : float list;
  residual_read : (float * float) list;  (** per read: (Router.handle ms, direct calls ms) *)
  residual_write : (float * float) list;
}

let explained_goals = 64

(* Run one operation directly ([direct], layer by layer) and through
   [Router.handle] ([routed]); [i] picks which goes first, so that
   neither side always finds the caches the other warmed. *)
let paired i ~direct ~routed =
  if i mod 2 = 0 then
    let d = direct () in
    d, routed ()
  else
    let r = routed () in
    direct (), r


let shadow_pass state (inp : W.inputs) =
  let reg = Router.registry state in
  let p = inp.pipeline in
  let spec =
    Registry.Files
      { program = "program.vada"; glossary = Some "glossary.dict"; facts_dir = Some "." }
  in
  let sess, add_ms = timed (fun () -> W.ok_or "shadow session" (Registry.add reg ~name:"shadow" spec)) in
  let _, build_ms = timed (fun () -> Pipeline.build p.Pipeline.program p.Pipeline.glossary) in
  let materialized () =
    match Registry.materialize reg sess with
    | Ok r -> r
    | Error e -> failwith (Chase.error_to_string e)
  in
  let _, materialize_ms = timed materialized in
  let cold, cold_ms =
    timed (fun () ->
        W.ok_or "profiled chase" (Pipeline.reason ~stats:(Ekg_obs.Metrics.create ()) p inp.base))
  in
  let stats = match cold.Chase.stats with Some s -> s | None -> failwith "chase kept no stats" in
  let routed meth target body () =
    let req = raw_request meth target body in
    let resp, ms = timed (fun () -> Router.handle state req) in
    if resp.Http.status < 200 || resp.Http.status > 299 then
      failwith (Printf.sprintf "shadow %s %s -> %d" meth target resp.Http.status);
    resp.Http.resp_body, ms
  in
  (* CDC updates, layer by layer: what the registry does under its lock
     (copy-on-write when the program is incrementable, apply, rebuild
     the EDB mirror).  Neither path touches the pre-update result, so
     the direct calls measure the same update whichever runs first. *)
  let copy_ms = ref [] and add_ms_l = ref [] and retract_ms = ref [] and edb_ms = ref [] in
  let updates = ref [] and res_w = ref [] in
  let ops =
    Array.sub inp.log 0 (min W.shadow_batches (Array.length inp.log))
    |> Array.to_list
    |> List.concat_map (fun (b : Ekg_datagen.Cdc.batch) -> [ `Retract, b.retracts; `Add, b.adds ])
    |> List.filter (fun (_, atoms) -> atoms <> [])
  in
  let incremental = Pipeline.incrementable p in
  List.iteri
    (fun i (op, atoms) ->
      let cur = materialized () in
      let direct () =
        let copy, c_ms = timed (fun () -> Chase.copy_result cur) in
        let apply = match op with `Add -> Pipeline.add_facts | `Retract -> Pipeline.retract_facts in
        let (res', upd), a_ms =
          timed (fun () ->
              match apply p (if incremental then copy else cur) atoms with
              | Ok x -> x
              | Error e -> failwith (Chase.error_to_string e))
        in
        let _, e_ms = timed (fun () -> Chase.edb_atoms res') in
        copy_ms := c_ms :: !copy_ms;
        (match op with `Add -> add_ms_l := a_ms :: !add_ms_l | `Retract -> retract_ms := a_ms :: !retract_ms);
        edb_ms := e_ms :: !edb_ms;
        updates := upd :: !updates;
        (if incremental then c_ms else 0.) +. a_ms +. e_ms
      in
      let meth = match op with `Add -> "POST" | `Retract -> "DELETE" in
      let d, (body, handle) =
        paired i ~direct ~routed:(routed meth (T.session sess.Registry.id ^ "/facts") (T.facts_body atoms))
      in
      res_w := (handle, d +. (encode_us body /. 1000.)) :: !res_w)
    ops;
  (* reads on the heads of the workload's target lists *)
  let first n a = Array.sub a 0 (min n (Array.length a)) in
  let specialize_ms = ref [] and query_ms = ref [] and scoped = ref [] and per_answer = ref [] in
  let explain_answer_ms = ref [] and enc_q = ref [] and res_r = ref [] in
  Array.iteri
    (fun i src ->
      let atom = W.ok_or "query atom" (Parser.parse_atom (W.query_atom inp src)) in
      let direct () =
        let sp, s_ms =
          timed (fun () ->
              W.ok_or "specialize"
                (Pipeline.specialize p ~pred:atom.Atom.pred ~mask:(Magic.adornment atom)))
        in
        let edb = sess.Registry.edb in
        let qr, q_ms =
          timed (fun () ->
              match Pipeline.query p sp edb atom with
              | Ok r -> r
              | Error e -> failwith (Chase.error_to_string e))
        in
        let answers = qr.Pipeline.q_answers in
        (match answers with
        | qa :: _ ->
          let _, ms = timed (fun () -> Pipeline.explain_answer p qr qa) in
          explain_answer_ms := ms :: !explain_answer_ms
        | [] -> ());
        specialize_ms := s_ms :: !specialize_ms;
        query_ms := q_ms :: !query_ms;
        scoped := float_of_int qr.Pipeline.q_derived :: !scoped;
        per_answer :=
          (float_of_int (List.length edb) /. float_of_int (max 1 (List.length answers))) :: !per_answer;
        s_ms +. q_ms
      in
      let d, (body, handle) =
        paired i ~direct ~routed:(routed "GET" (T.query_target inp sess.Registry.id src) "")
      in
      let enc = encode_us body in
      enc_q := enc :: !enc_q;
      res_r := (handle, d +. (enc /. 1000.)) :: !res_r)
    (first 8 inp.sources);
  let spans = Hashtbl.create 8 in
  let tracer =
    Ekg_obs.Trace.create ~capacity:4
      ~on_finish:(fun span ->
        let name = span.Ekg_obs.Trace.name in
        let prev = Option.value ~default:[] (Hashtbl.find_opt spans name) in
        Hashtbl.replace spans name (Ekg_obs.Trace.self_ms span :: prev))
      ()
  in
  let explain_ms = ref [] and enc_e = ref [] and covered = ref 0 and explained = ref 0 in
  Array.iteri
    (fun i goal ->
      let chase = materialized () in
      let direct () =
        let exps, e_ms =
          timed (fun () ->
              W.ok_or "shadow explanation" (Pipeline.explain_atom ~obs:tracer p chase goal))
        in
        explain_ms := e_ms :: !explain_ms;
        List.iter
          (fun (e : Pipeline.explanation) ->
            incr explained;
            if e.Pipeline.mapping.Proof_mapper.fallbacks = 0 then incr covered)
          exps;
        e_ms
      in
      let d, (body, handle) =
        paired i ~direct ~routed:(routed "GET" (T.explain_target sess.Registry.id goal) "")
      in
      let enc = encode_us body in
      enc_e := enc :: !enc_e;
      res_r := (handle, d +. (enc /. 1000.)) :: !res_r)
    (* explanations are cheap and their stage spans are timed at
       microsecond resolution: average over many *)
    (first explained_goals inp.goals);
  ignore (Registry.remove reg sess.Registry.id);
  {
    add_ms; build_ms; materialize_ms; cold_ms; stats; derived = cold.Chase.derived_count;
    copy_ms = !copy_ms; apply_add_ms = !add_ms_l; apply_retract_ms = !retract_ms;
    edb_atoms_ms = !edb_ms; updates = !updates; specialize_ms = !specialize_ms;
    query_ms = !query_ms; scoped_facts = !scoped; edb_per_answer = !per_answer;
    explain_answer_ms = !explain_answer_ms; explain_ms = !explain_ms; spans;
    covered = !covered; explained = !explained; encode_query_us = !enc_q;
    encode_explain_us = !enc_e; residual_read = !res_r; residual_write = !res_w;
  }

(* --- the per-layer metrics ---------------------------------------------------------

   [http] is the untraced loopback phase of the same run, [inproc] the
   in-process phase, [rss_kib] the child server's peak RSS. *)

let metrics ~(http : T.outcome) ~(inproc : T.outcome) ~rss_kib sh =
  let p50 = Stats.percentile 0.5 and p90 = Stats.percentile 0.9 in
  let b = inproc.window in
  let handle kind = T.durations kind b in
  let bytes kind =
    List.filter_map (fun (s : T.sample) -> if s.kind = kind then Some (float_of_int s.bytes) else None) b
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. sh.stats.Chase.per_rule in
  let span name = mean (Option.value ~default:[] (Hashtbl.find_opt sh.spans name)) in
  let upd f = List.map (fun u -> float_of_int (f u)) sh.updates in
  let retracted = List.fold_left (fun n u -> n + u.Chase.upd_retracted) 0 sh.updates in
  let rederived = List.fold_left (fun n u -> n + u.Chase.upd_rederived) 0 sh.updates in
  let gauge name =
    Option.bind http.runtime (fun doc ->
        Option.bind (Option.bind (Json.member "gauges" doc) Json.get_arr) (fun gs ->
            List.find_map
              (fun g ->
                if Json.mem_str "name" g = Some name then Option.bind (Json.member "value" g) Json.get_num
                else None)
              gs))
    |> Option.value ~default:0.
  in
  (* the median uncovered time against the median Router.handle time,
     and how widely the uncovered share varies between operations *)
  let residual pairs = p50 (List.map (fun (h, d) -> h -. d) pairs) /. p50 (List.map fst pairs) in
  let residual_iqr pairs =
    let q1, _, q3 = Stats.quartiles (List.map (fun (h, d) -> (h -. d) /. h) pairs) in
    q3 -. q1
  in
  [
    "server.transport_ms", p50 http.pings -. p50 inproc.pings, "ms";
    "router.handle_ms.query.p50", p50 (handle T.Query), "ms";
    "router.handle_ms.query.p90", p90 (handle T.Query), "ms";
    "router.handle_ms.explain.p50", p50 (handle T.Explain), "ms";
    "router.handle_ms.explain.p90", p90 (handle T.Explain), "ms";
    "router.handle_ms.write.p50", p50 (handle T.Write), "ms";
    "router.handle_ms.write.p90", p90 (handle T.Write), "ms";
    "json.encode_us.query", p50 sh.encode_query_us, "us";
    "json.encode_us.explain", p50 sh.encode_explain_us, "us";
    "json.response_bytes.query", p50 (bytes T.Query), "bytes";
    "json.response_bytes.explain", p50 (bytes T.Explain), "bytes";
    "registry.answer_cache_hit_ratio", ratio (fun s -> s.cached) T.Query b, "ratio";
    "registry.rewrite_cache_hit_ratio", ratio (fun s -> s.rewrite_cached) T.Query b, "ratio";
    "registry.explain_cache_hit_ratio", ratio (fun s -> s.cached) T.Explain b, "ratio";
    "registry.add_ms", sh.add_ms, "ms";
    "registry.materialize_ms", sh.materialize_ms, "ms";
    "pipeline.build_ms", sh.build_ms, "ms";
    "pipeline.explain_ms", p50 sh.explain_ms, "ms";
    "pipeline.proof_extraction_ms", span "proof-extraction", "ms";
    "pipeline.proof_mapping_ms", span "proof-mapping", "ms";
    "pipeline.instantiation_ms", span "instantiation", "ms";
    "pipeline.template_coverage", float_of_int sh.covered /. float_of_int (max 1 sh.explained), "ratio";
    "pipeline.specialize_ms", p50 sh.specialize_ms, "ms";
    "pipeline.query_ms", p50 sh.query_ms, "ms";
    "pipeline.query_scoped_facts", p50 sh.scoped_facts, "facts";
    "pipeline.query_edb_facts_per_answer", p50 sh.edb_per_answer, "ratio";
    "pipeline.explain_answer_ms", p50 sh.explain_answer_ms, "ms";
    "chase.cold_ms", sh.cold_ms, "ms";
    "chase.rounds", float_of_int (List.fold_left ( + ) 0 sh.stats.Chase.rounds_per_stratum), "count";
    "chase.derived_facts", float_of_int sh.derived, "facts";
    "chase.agg_superseded", float_of_int sh.stats.Chase.agg_superseded, "count";
    "chase.rule_ms", sum (fun r -> r.Chase.time_s) *. 1000., "ms";
    "chase.rule_build_ms", sum (fun r -> r.Chase.build_s) *. 1000., "ms";
    "chase.rule_probe_ms", sum (fun r -> r.Chase.probe_s) *. 1000., "ms";
    "chase.rule_insert_ms", sum (fun r -> r.Chase.insert_s) *. 1000., "ms";
    "chase.copy_ms", p50 sh.copy_ms, "ms";
    "chase.apply_ms.add", p50 sh.apply_add_ms, "ms";
    "chase.apply_ms.retract", p50 sh.apply_retract_ms, "ms";
    "chase.edb_atoms_ms", p50 sh.edb_atoms_ms, "ms";
    "chase.incremental_ratio", mean (upd (fun u -> if u.Chase.upd_incremental then 1 else 0)), "ratio";
    "chase.rederived_per_retracted", float_of_int rederived /. float_of_int (max 1 retracted), "ratio";
    "chase.update_rounds", mean (upd (fun u -> u.Chase.upd_rounds)), "count";
    "memory.bytes_per_fact", float_of_int rss_kib *. 1024. /. float_of_int (max 1 http.facts), "B/fact";
    "gc.top_heap_mib", gauge "ekg_runtime_gc_top_heap_words" *. 8. /. 1048576., "MiB";
    "gc.major_collections", gauge "ekg_runtime_gc_major_collections", "count";
    "trace.residual_frac.read", residual sh.residual_read, "ratio";
    "trace.residual_frac.write", residual sh.residual_write, "ratio";
    "trace.residual_iqr.read", residual_iqr sh.residual_read, "ratio";
    "trace.residual_iqr.write", residual_iqr sh.residual_write, "ratio";
  ]
