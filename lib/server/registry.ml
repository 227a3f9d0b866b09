open Ekg_core
open Ekg_datalog
open Ekg_engine
open Ekg_apps

(* one concrete query's cached answers; a committed update clears them
   all.  [ca_result] never holds its scoped instance ([q_scoped =
   None]): that instance's database copies the whole EDB *)
type cached_answers = {
  ca_result : Pipeline.query_result;
  mutable ca_used : float;
}

(* one query {e shape} (predicate + bound/free mask): the magic-sets
   specialization — pure in the immutable program, so it survives fact
   updates — plus an LRU of recently answered concrete queries *)
type query_entry = {
  qe_spec : Pipeline.specialization;
  mutable qe_used : float;
  qe_answers : (string, cached_answers) Hashtbl.t;
}

type spec = Ekg_store.Codec.spec =
  | App of string
  | Files of { program : string; glossary : string option; facts_dir : string option }
  | Inline of { program : string; glossary : string option }

type session = {
  id : string;
  name : string;
  spec : spec;
  pipeline : Pipeline.t;
  program_hash : string;
  mutable edb : Atom.t list;
  created_at : float;
  lock : Mutex.t;
  mutable chase : Chase.result option;
  query_cache : (string, query_entry) Hashtbl.t;  (* keyed pred ^ "/" ^ mask *)
  mutable update_gen : int;
  mutable explain_count : int;
  mutable query_count : int;
  mutable last_trace : Ekg_obs.Trace.span option;
  mutable last_used : float;
  mutable deleted : bool;
}

type persist = {
  store : Ekg_store.Store.t;
  snapshotter : Ekg_store.Snapshotter.t;
  max_hot : int;  (* 0 = unbounded *)
}

type t = {
  root : string;
  obs : Ekg_obs.Metrics.t;
  fault : Fault.t;
  persist : persist option;
  lock : Ekg_obs.Lock.t;
      (* instrumented (wait/hold histograms, {lock="registry"}): the
         one process-wide mutex every request crosses, so its
         contention profile is the first thing to look at when
         latency climbs with concurrency *)
  mutable sessions : session list;  (* newest first *)
  mutable next_id : int;
}

let counter = Ekg_obs.Metrics.counter
let session_cache_hits_metric =
  counter ~help:"Chase materializations served from the session cache"
    "ekg_session_cache_hits_total"
let session_cache_misses_metric =
  counter ~help:"Chase materializations computed on demand" "ekg_session_cache_misses_total"
let evictions_metric =
  counter ~help:"Hot sessions demoted to disk by the --max-hot-sessions bound"
    "ekg_store_evictions_total"
let recovered_sessions_metric =
  counter ~help:"Sessions re-registered from snapshots at startup"
    "ekg_store_recovered_sessions_total"
let incremental_rounds_metric =
  counter ~help:"Chase rounds spent maintaining materializations incrementally"
    "ekg_chase_incremental_rounds_total"
let retracted_facts_metric =
  counter ~help:"Facts removed from materializations by retraction"
    "ekg_chase_retracted_facts_total"

(* the query lane's series *)
let query_requests_metric =
  counter ~help:"Point queries served by the query lane" "ekg_query_requests_total"
let query_materialized_metric =
  counter ~help:"Point queries answered by a lookup on the served materialization"
    "ekg_query_materialized_total"
let query_rewrite_hits_metric =
  counter ~help:"Query shapes answered from a cached specialization"
    "ekg_query_rewrite_cache_hits_total"
let query_rewrite_misses_metric =
  counter ~help:"Query shapes that paid for the magic-sets rewrite"
    "ekg_query_rewrite_cache_misses_total"
let query_answer_hits_metric =
  counter ~help:"Point queries answered from the per-session answer cache"
    "ekg_query_answer_cache_hits_total"
let query_answer_misses_metric =
  counter ~help:"Point queries that ran a scoped chase (answer cache miss)"
    "ekg_query_answer_cache_misses_total"
let query_invalidations_metric =
  counter ~help:"Cached query answers dropped by fact updates"
    "ekg_query_cache_invalidations_total"
let query_seconds_metric =
  counter ~help:"Seconds spent answering point queries" "ekg_query_seconds_total"

let create ?(root = ".") ?(obs = Ekg_obs.Metrics.noop ()) ?(fault = Fault.Off) ?store
    ?(snapshot_mode = Ekg_store.Snapshotter.Write_behind)
    ?(max_hot_sessions = 0) () =
  (* every series the registry and its chases record exists from the
     first scrape *)
  Chase.declare_stats obs;
  List.iter (Ekg_obs.Metrics.declare obs)
    ([ session_cache_hits_metric; session_cache_misses_metric; incremental_rounds_metric;
       retracted_facts_metric; query_requests_metric; query_materialized_metric;
       query_rewrite_hits_metric; query_rewrite_misses_metric; query_answer_hits_metric;
       query_answer_misses_metric; query_invalidations_metric; query_seconds_metric ]
    @ if Option.is_some store then [ evictions_metric; recovered_sessions_metric ] else []);
  let persist =
    Option.map
      (fun store ->
        {
          store;
          snapshotter = Ekg_store.Snapshotter.create ~mode:snapshot_mode ~obs store;
          max_hot = max_hot_sessions;
        })
      store
  in
  {
    root;
    obs;
    fault;
    persist;
    lock = Ekg_obs.Lock.create ~obs "registry";
    sessions = [];
    next_id = 1;
  }

let store t = Option.map (fun p -> p.store) t.persist

let stop_persistence t =
  Option.iter (fun p -> Ekg_store.Snapshotter.stop p.snapshotter) t.persist

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* The registry-wide lock goes through the instrumented wrapper; the
   per-session mutexes stay plain — they are unbounded in number, and
   per-label histogram series must not be. *)
let with_reg_lock t f = Ekg_obs.Lock.with_lock t.lock f

(* --- persistence ------------------------------------------------------------ *)

(* Build the snapshot value with [session.lock] held.  Cheap: the EDB
   mirror and a published chase result are both immutable under the
   copy-on-write update discipline, so this grabs pointers — the
   encode runs later, off the lock, wherever the caller (snapshotter
   domain, eviction) wants it. *)
let snapshot_of_locked (session : session) =
  {
    Ekg_store.Codec.id = session.id;
    name = session.name;
    spec = session.spec;
    program_hash = session.program_hash;
    update_gen = session.update_gen;
    created_at = session.created_at;
    edb = session.edb;
    mat = session.chase;
  }

let capture (session : session) () =
  with_lock session.lock (fun () ->
      if session.deleted then None else Some (snapshot_of_locked session))

(* Must be called with no session lock held: in [Sync] mode the
   snapshotter runs the capture inline, and the session mutex is not
   reentrant. *)
let schedule_snapshot t (session : session) =
  match t.persist with
  | None -> ()
  | Some p ->
    Ekg_obs.Log.Ctx.put "snapshot_scheduled" (Ekg_obs.Log.Bool true);
    Ekg_store.Snapshotter.request p.snapshotter ~sid:session.id
      (capture session)

(* --- request decoding ------------------------------------------------------ *)

let spec_of_json body =
  let name = Json.mem_str "name" body in
  match
    ( Json.mem_str "app" body,
      Json.mem_str "program_path" body,
      Json.mem_str "program" body )
  with
  | Some app, None, None -> Ok (App app, name)
  | None, Some program, None ->
    Ok
      ( Files
          {
            program;
            glossary = Json.mem_str "glossary_path" body;
            facts_dir = Json.mem_str "facts_dir" body;
          },
        name )
  | None, None, Some program ->
    Ok (Inline { program; glossary = Json.mem_str "glossary" body }, name)
  | None, None, None ->
    Error "provide one of \"app\", \"program_path\" or inline \"program\""
  | _ -> Error "\"app\", \"program_path\" and \"program\" are mutually exclusive"

(* --- path containment ------------------------------------------------------ *)

let safe_resolve root path =
  if String.length path = 0 then Error "empty path"
  else if Filename.is_relative path = false then
    Error ("absolute paths are not served: " ^ path)
  else if
    List.exists
      (fun seg -> seg = Filename.parent_dir_name)
      (String.split_on_char '/' path)
  then Error ("paths may not escape the server root: " ^ path)
  else Ok (Filename.concat root path)

(* --- lifecycle ------------------------------------------------------------- *)

let load t = function
  | App app -> Bundled.load app
  | Inline { program; glossary } -> Apps_util.load_program_text ?glossary program
  | Files { program; glossary; facts_dir } -> (
    let ( let* ) = Result.bind in
    let* program_file = safe_resolve t.root program in
    let* glossary_file =
      match glossary with
      | None -> Ok None
      | Some g -> Result.map Option.some (safe_resolve t.root g)
    in
    let* loaded = Apps_util.load_program_files ~program_file ~glossary_file () in
    match facts_dir with
    | None -> Ok loaded
    | Some d ->
      let* dir = safe_resolve t.root d in
      Apps_util.with_facts_dir loaded dir)

let make_session ~id ~name ~spec ~pipeline ~edb ~created_at ~update_gen =
  {
    id;
    name;
    spec;
    pipeline;
    program_hash = Pipeline.identity pipeline;
    edb;
    created_at;
    lock = Mutex.create ();
    chase = None;
    query_cache = Hashtbl.create 8;
    update_gen;
    explain_count = 0;
    query_count = 0;
    last_trace = None;
    last_used = Unix.gettimeofday ();
    deleted = false;
  }

let add t ?name spec =
  match load t spec with
  | Error e -> Error e
  | Ok { Apps_util.pipeline; edb } ->
    let session =
      with_reg_lock t (fun () ->
          let id = Printf.sprintf "s%d" t.next_id in
          t.next_id <- t.next_id + 1;
          let session =
            make_session ~id
              ~name:(Option.value name ~default:id)
              ~spec ~pipeline ~edb
              ~created_at:(Unix.gettimeofday ())
              ~update_gen:0
          in
          t.sessions <- session :: t.sessions;
          session)
    in
    (* persist the session's existence right away, so a crash before
       its first materialization still recovers it at restart *)
    schedule_snapshot t session;
    Ok session

let find t id =
  with_reg_lock t (fun () ->
      List.find_opt (fun s -> s.id = id) t.sessions)

let list t = with_reg_lock t (fun () -> List.rev t.sessions)
let count t = with_reg_lock t (fun () -> List.length t.sessions)

(* Slow-chase fault: sleep the configured wall-clock before the real
   run, in short slices, until it is up or the request's deadline has
   passed.  The chase then runs under the same budget, so its own guard
   reports a trip. *)
let fault_slow_chase t (budget : Chase.budget) =
  match t.fault with
  | Fault.Slow_chase seconds ->
    let until =
      Float.min (Ekg_obs.Clock.now_s () +. seconds)
        (Option.value budget.Chase.deadline_s ~default:Float.infinity)
    in
    while Ekg_obs.Clock.now_s () < until do
      Unix.sleepf 0.005
    done
  | _ -> ()

(* Warm restore: a dormant session whose snapshot carries a
   materialization of exactly this program (identity hash) at exactly
   this update generation can skip the chase entirely.  Any failure —
   no file, torn file, version or fingerprint mismatch, stale
   generation — falls back to a cold chase. *)
let try_warm_restore t (session : session) =
  match t.persist with
  | None -> None
  | Some p -> (
    match Ekg_store.Store.load p.store session.id with
    | Error e ->
      Logs.debug (fun m -> m "ekg-store: no warm restore for %s: %s" session.id e);
      None
    | Ok snap ->
      if
        String.equal snap.Ekg_store.Codec.program_hash session.program_hash
        && snap.Ekg_store.Codec.update_gen = session.update_gen
      then snap.Ekg_store.Codec.mat
      else begin
        Logs.debug (fun m ->
            m "ekg-store: snapshot of %s is stale (program or generation); re-chasing"
              session.id);
        None
      end)

(* Demote the least-recently-used hot sessions until at most
   [max_hot] remain materialized.  A victim's materialization is
   synchronously persisted before its pointer is dropped, so the demotion
   is lossless; the pending write-behind entry is discarded first so a
   post-eviction capture cannot overwrite that snapshot with a
   meta-only one. *)
let evict t p (victim : session) =
  Ekg_store.Snapshotter.discard p.snapshotter ~sid:victim.id;
  with_lock victim.lock (fun () ->
      match victim.chase with
      | None -> ()
      | Some _ when victim.deleted -> victim.chase <- None
      | Some _ ->
        (match Ekg_store.Store.save p.store (snapshot_of_locked victim) with
        | Ok _ -> ()
        | Error e ->
          Logs.warn (fun m ->
              m
                "ekg-store: eviction snapshot of %s failed (%s); session will \
                 re-chase on next use"
                victim.id e));
        victim.chase <- None;
        Ekg_obs.Metrics.incr t.obs evictions_metric)

let hot_count t =
  with_reg_lock t (fun () ->
      List.length
        (List.filter
           (fun s -> (not s.deleted) && Option.is_some s.chase)
           t.sessions))

let maybe_evict t ~keep =
  match t.persist with
  | None -> ()
  | Some p when p.max_hot <= 0 -> ()
  | Some p ->
    let rec go () =
      let hot =
        with_reg_lock t (fun () ->
            (* [chase]/[last_used] are read without the session lock: a
               stale read only mis-ranks a candidate, and [evict]
               re-checks under the victim's lock *)
            List.filter
              (fun s -> (not s.deleted) && Option.is_some s.chase)
              t.sessions)
      in
      if List.length hot > p.max_hot then
        match
          List.filter (fun (s : session) -> s.id <> keep) hot
          |> List.sort (fun a b -> Float.compare a.last_used b.last_used)
        with
        | [] -> ()
        | victim :: _ ->
          evict t p victim;
          go ()
    in
    go ()

let materialize ?(budget = Chase.unlimited) ?tracer ?parent t
    (session : session) =
  let outcome =
    with_lock session.lock (fun () ->
        session.last_used <- Unix.gettimeofday ();
        match session.chase with
        | Some result ->
          Ekg_obs.Metrics.incr t.obs session_cache_hits_metric;
          Ok (result, `Hot)
        | None -> (
          Ekg_obs.Metrics.incr t.obs session_cache_misses_metric;
          match try_warm_restore t session with
          | Some result ->
            session.chase <- Some result;
            Ok (result, `Restored)
          | None -> (
            fault_slow_chase t budget;
            match
              Chase.run_checked ~stats:t.obs ~budget ?obs:tracer ?parent
                session.pipeline.Pipeline.program session.edb
            with
            | Ok result ->
              session.chase <- Some result;
              Ok (result, `Chased)
            | Error _ as e -> e)))
  in
  match outcome with
  | Error _ as e -> e
  | Ok (result, how) ->
    (* wide-event contributions: where this request's materialization
       came from, and what the chase cost when it ran *)
    Ekg_obs.Log.Ctx.put "chase_source"
      (Ekg_obs.Log.Str
         (match how with
         | `Hot -> "hot"
         | `Restored -> "restored"
         | `Chased -> "chased"));
    if how = `Chased then begin
      Ekg_obs.Log.Ctx.put "chase_rounds" (Ekg_obs.Log.Int result.Chase.rounds);
      Ekg_obs.Log.Ctx.put "chase_facts"
        (Ekg_obs.Log.Int result.Chase.derived_count);
      match result.Chase.stats with
      | Some st ->
        Ekg_obs.Log.Ctx.put "plan_reorders"
          (Ekg_obs.Log.Int st.Chase.plan_reorders)
      | None -> ()
    end;
    (* a fresh chase is worth persisting; a warm restore already came
       from disk and a hot hit changed nothing *)
    if how = `Chased then schedule_snapshot t session;
    if how <> `Hot then maybe_evict t ~keep:session.id;
    Ok result

(* --- live fact updates ------------------------------------------------------ *)

(* A committed update clears every cached query answer; the
   specializations survive — they depend only on the immutable program.
   Returns the number of answers dropped; called with the session lock
   held. *)
let clear_answers_locked (session : session) =
  Hashtbl.fold
    (fun _ (entry : query_entry) dropped ->
      let n = Hashtbl.length entry.qe_answers in
      if n > 0 then Hashtbl.reset entry.qe_answers;
      dropped + n)
    session.query_cache 0

let record_update t (upd : Chase.update) =
  Ekg_obs.Metrics.record t.obs
    [
      Add (incremental_rounds_metric, [], float_of_int upd.Chase.upd_rounds);
      Add (retracted_facts_metric, [], float_of_int upd.Chase.upd_retracted);
    ]

(* ground atoms under [Atom.equal], which identifies numerically equal
   [Int] and [Num] arguments — as [Value.hash] does *)
module AtomTbl = Hashtbl.Make (struct
  type t = Atom.t

  let equal = Atom.equal

  let hash (a : Atom.t) =
    List.fold_left
      (fun h (t : Term.t) ->
        (h * 31)
        + match t with Term.Cst v -> Ekg_kernel.Value.hash v | Term.Var v -> Hashtbl.hash v)
      (Hashtbl.hash a.Atom.pred) a.Atom.args
end)

(* update the dormant EDB mirror only — nothing is materialized yet, so
   there is nothing to maintain; the next materialization sees the new
   base.  Validation mirrors the engine's: ground additions, known
   extensional retractions.  One pass over the mirror against a table
   of the request's atoms. *)
let update_edb_only (session : session) op atoms =
  let program = session.pipeline.Pipeline.program in
  match
    List.find_opt (fun (a : Atom.t) -> not (Atom.is_ground a)) atoms
  with
  | Some a -> Error (Chase.Invalid_edb ("non-ground fact: " ^ Atom.to_string a))
  | None -> (
    let changed =
      Chase.affected_preds program
        (List.sort_uniq String.compare
           (List.map (fun (a : Atom.t) -> a.Atom.pred) atoms))
    in
    let upd ~added ~retracted =
      {
        Chase.upd_incremental = false;
        upd_rounds = 0;
        upd_added = added;
        upd_retracted = retracted;
        upd_rederived = 0;
        upd_changed_preds = changed;
        upd_overdeleted = 0;
        upd_full_passes = 0;
        upd_cone_ms = 0.;
        upd_rounds_ms = 0.;
      }
    in
    (* request atom -> whether the mirror holds it *)
    let held = AtomTbl.create (2 * List.length atoms) in
    List.iter (fun a -> AtomTbl.replace held a false) atoms;
    match op with
    | `Add ->
      (* dedupe against the mirror and within the request itself — a
         repeated atom must not enter the base twice; fresh atoms are
         appended in request order *)
      List.iter (fun e -> if AtomTbl.mem held e then AtomTbl.replace held e true) session.edb;
      let fresh =
        List.filter
          (fun a ->
            if AtomTbl.find held a then false
            else begin
              AtomTbl.replace held a true;
              true
            end)
          atoms
      in
      session.edb <- session.edb @ fresh;
      Ok (upd ~added:(List.length fresh) ~retracted:0)
    | `Retract -> (
      let removed = ref 0 in
      let kept =
        List.filter
          (fun e ->
            if AtomTbl.mem held e then begin
              AtomTbl.replace held e true;
              incr removed;
              false
            end
            else true)
          session.edb
      in
      match List.find_opt (fun a -> not (AtomTbl.find held a)) atoms with
      | Some missing ->
        Error
          (Chase.Unknown_fact
             ("fact not in the extensional database: " ^ Atom.to_string missing))
      | None ->
        session.edb <- kept;
        Ok (upd ~added:0 ~retracted:!removed)))

(* Each committed update logs its phases next to its counts: the
   copy-on-write copy, the engine's pass, and the EDB mirror rebuild
   (or, dormant, the mirror edit that is the whole update). *)
let update_facts ?(budget = Chase.unlimited) t (session : session) op atoms =
  let clock_ms () = Ekg_obs.Clock.now_s () *. 1000. in
  let committed =
    with_lock session.lock (fun () ->
      session.last_used <- Unix.gettimeofday ();
      let outcome =
        match session.chase with
        | None -> (
          let t0 = clock_ms () in
          match update_edb_only session op atoms with
          | Ok upd -> Ok (upd, "dormant", 0., 0., clock_ms () -. t0)
          | Error e -> Error e)
        | Some res -> (
          let apply =
            match op with
            | `Add -> Pipeline.add_facts
            | `Retract -> Pipeline.retract_facts
          in
          (* Copy-on-write: explain handlers read the published result
             lock-free once [materialize] returns, and the incremental
             engine mutates in place — including on failures it only
             detects after mutating (Inconsistent, budget trips).  So
             the update runs against a private copy and is published by
             pointer swap on success; every error path discards the
             copy, leaving the served snapshot and the EDB mirror
             exactly as they were.  The non-incrementable fallback
             re-chases without touching its input, so it needs no
             copy. *)
          let t0 = clock_ms () in
          let target =
            if Pipeline.incrementable session.pipeline then
              Chase.copy_result res
            else res
          in
          let t1 = clock_ms () in
          match
            apply ~budget session.pipeline target atoms
          with
          | Ok (res', upd) ->
            let t2 = clock_ms () in
            session.chase <- Some res';
            (* the engine's view of the base is now authoritative *)
            session.edb <- Chase.edb_atoms res';
            let path = if upd.Chase.upd_incremental then "incremental" else "rechase" in
            Ok (upd, path, t1 -. t0, t2 -. t1, clock_ms () -. t2)
          | Error e -> Error e)
      in
      match outcome with
      | Ok (upd, path, copy_ms, apply_ms, mirror_ms) ->
        session.update_gen <- session.update_gen + 1;
        let dropped = clear_answers_locked session in
        if dropped > 0 then
          Ekg_obs.Metrics.add t.obs query_invalidations_metric
            (float_of_int dropped);
        record_update t upd;
        let open Ekg_obs.Log in
        Ctx.put "chase_rounds" (Int upd.Chase.upd_rounds);
        Ctx.put "facts_added" (Int upd.Chase.upd_added);
        Ctx.put "facts_retracted" (Int upd.Chase.upd_retracted);
        Ctx.put "facts_overdeleted" (Int upd.Chase.upd_overdeleted);
        Ctx.put "full_passes" (Int upd.Chase.upd_full_passes);
        Ctx.put "incremental" (Bool upd.Chase.upd_incremental);
        Ctx.put "update_path" (Str path);
        Ctx.put "update_copy_ms" (Float copy_ms);
        Ctx.put "update_apply_ms" (Float apply_ms);
        Ctx.put "update_cone_ms" (Float upd.Chase.upd_cone_ms);
        Ctx.put "update_rounds_ms" (Float upd.Chase.upd_rounds_ms);
        Ctx.put "update_mirror_ms" (Float mirror_ms);
        Ok upd
      | Error _ as e -> e)
  in
  (* persist committed updates after the commit, off the session lock;
     bursts coalesce in the snapshotter *)
  (match committed with Ok _ -> schedule_snapshot t session | Error _ -> ());
  committed

(* --- the query lane ----------------------------------------------------------

   A hot session answers a point query with one lookup on its served
   materialization.  A published result is immutable (updates swap in
   a copy-on-write copy) and the lookup reads only the indexes every
   insertion maintains and the activation bitmap, never a join index
   the planner builds, so it runs off the lock, as explanations do.  A
   dormant session never builds or waits on a materialization: the
   program is magic-sets-specialized per query shape (cached in an LRU
   keyed predicate + mask), a private scoped chase runs over a snapshot
   of the EDB mirror, and concrete answers are cached until the next
   committed update clears them. *)

let max_query_shapes = 64
let max_answers_per_shape = 8

type query_outcome = {
  qo_result : Pipeline.query_result;
  qo_rewrite_cached : bool;  (* the specialization was already cached *)
  qo_answer_cached : bool;   (* the concrete answer set was *)
}

(* called with the session lock held *)
let lru_trim tbl cap used =
  while Hashtbl.length tbl > cap do
    let victim =
      Hashtbl.fold
        (fun k v acc ->
          match acc with
          | Some (_, best) when used best <= used v -> acc
          | _ -> Some (k, v))
        tbl None
    in
    match victim with Some (k, _) -> Hashtbl.remove tbl k | None -> ()
  done

let note_query_event (result : Pipeline.query_result) ~cache_hit =
  Ekg_obs.Log.Ctx.put "cache_hit" (Ekg_obs.Log.Bool cache_hit);
  Ekg_obs.Log.Ctx.put "chase_source"
    (Ekg_obs.Log.Str (Pipeline.mode_name result.Pipeline.q_mode));
  Ekg_obs.Log.Ctx.put "chase_rounds"
    (Ekg_obs.Log.Int result.Pipeline.q_rounds);
  Ekg_obs.Log.Ctx.put "chase_facts"
    (Ekg_obs.Log.Int result.Pipeline.q_derived)

let query ?(budget = Chase.unlimited) ?(explain = false) ?tracer ?parent t
    (session : session) (atom : Atom.t) =
  let pred = atom.Atom.pred in
  let mask = Magic.adornment atom in
  let shape_key = pred ^ "/" ^ mask in
  let answer_key = Atom.to_string atom in
  let t0 = Ekg_obs.Clock.now_s () in
  let count = Ekg_obs.Metrics.incr t.obs in
  let finish () =
    Ekg_obs.Metrics.add t.obs query_seconds_metric (Ekg_obs.Clock.now_s () -. t0)
  in
  count query_requests_metric;
  let prelim =
    with_lock session.lock (fun () ->
        let now = Unix.gettimeofday () in
        session.last_used <- now;
        session.query_count <- session.query_count + 1;
        match session.chase with
        | Some res -> `Materialized res
        | None -> (
          let gen = session.update_gen in
          let edb = session.edb in
          match Hashtbl.find_opt session.query_cache shape_key with
          | Some entry -> (
            entry.qe_used <- now;
            match Hashtbl.find_opt entry.qe_answers answer_key with
            | Some c when not explain ->
              c.ca_used <- now;
              `Hit c.ca_result
            | Some _ | None ->
              (* explanations need the scoped instance, which the cache
                 does not keep: re-run *)
              `Run (entry.qe_spec, true, gen, edb))
          | None -> (
            match Pipeline.specialize session.pipeline ~pred ~mask with
            | Error e -> `Unknown e
            | Ok spec ->
              Hashtbl.replace session.query_cache shape_key
                {
                  qe_spec = spec;
                  qe_used = now;
                  qe_answers = Hashtbl.create 4;
                };
              lru_trim session.query_cache max_query_shapes (fun e ->
                  e.qe_used);
              `Run (spec, false, gen, edb))))
  in
  match prelim with
  | `Unknown e -> Error (`Unknown_pred e)
  | `Materialized res -> (
    match Pipeline.query_materialized session.pipeline res atom with
    | Error e -> Error (`Unknown_pred e)
    | Ok result ->
      count query_materialized_metric;
      note_query_event result ~cache_hit:false;
      finish ();
      Ok { qo_result = result; qo_rewrite_cached = false; qo_answer_cached = false })
  | `Hit result ->
    count query_rewrite_hits_metric;
    count query_answer_hits_metric;
    note_query_event result ~cache_hit:true;
    finish ();
    Ok { qo_result = result; qo_rewrite_cached = true; qo_answer_cached = true }
  | `Run (spec, rewrite_cached, gen, edb) -> (
    count
      (if rewrite_cached then query_rewrite_hits_metric
       else query_rewrite_misses_metric);
    count query_answer_misses_metric;
    fault_slow_chase t budget;
    match
      Pipeline.query ~stats:t.obs ~budget ?obs:tracer ?parent session.pipeline spec
        edb atom
    with
    | Error err ->
      finish ();
      Error (`Chase err)
    | Ok result ->
      with_lock session.lock (fun () ->
          (* a fact update committed while the chase ran: it already
             cleared the cache, so storing now would serve an answer of
             the older base — drop instead *)
          if session.update_gen = gen then
            match Hashtbl.find_opt session.query_cache shape_key with
            | Some entry ->
              Hashtbl.replace entry.qe_answers answer_key
                {
                  ca_result = { result with Pipeline.q_scoped = None };
                  ca_used = Unix.gettimeofday ();
                };
              lru_trim entry.qe_answers max_answers_per_shape (fun c -> c.ca_used)
            | None -> ());
      note_query_event result ~cache_hit:false;
      finish ();
      Ok
        {
          qo_result = result;
          qo_rewrite_cached = rewrite_cached;
          qo_answer_cached = false;
        })

let note_explain (session : session) =
  with_lock session.lock (fun () ->
      session.explain_count <- session.explain_count + 1)

let set_trace (session : session) span =
  with_lock session.lock (fun () -> session.last_trace <- Some span)

let last_trace (session : session) =
  with_lock session.lock (fun () -> session.last_trace)

(* --- deletion and startup recovery ------------------------------------------ *)

let remove t id =
  let found =
    with_reg_lock t (fun () ->
        match List.find_opt (fun s -> s.id = id) t.sessions with
        | None -> None
        | Some s ->
          t.sessions <- List.filter (fun s' -> s'.id <> id) t.sessions;
          Some s)
  in
  match found with
  | None -> None
  | Some session ->
    (* flag first so an already-captured closure answers [None], then
       wait out any in-flight save before removing the file — the
       deletion must not race a concurrent re-write *)
    with_lock session.lock (fun () -> session.deleted <- true);
    (match t.persist with
    | None -> ()
    | Some p ->
      Ekg_store.Snapshotter.discard p.snapshotter ~sid:id;
      Ekg_store.Store.delete p.store id);
    Some session

(* registry ids are ["s<n>"]; recovery must keep allocating above them *)
let numeric_suffix id =
  if String.length id > 1 && id.[0] = 's' then
    int_of_string_opt (String.sub id 1 (String.length id - 1))
  else None

let recover t =
  match t.persist with
  | None -> ([], [])
  | Some p ->
    let recovered, failed =
      List.fold_left
        (fun (ok, failed) id ->
          if
            with_reg_lock t (fun () ->
                List.exists (fun s -> s.id = id) t.sessions)
          then (ok, failed)
          else
            match Ekg_store.Store.load_meta p.store id with
            | Error e -> (ok, (id, e) :: failed)
            | Ok snap -> (
              let spec = snap.Ekg_store.Codec.spec in
              match load t spec with
              | Error e -> (ok, (id, "program reload failed: " ^ e) :: failed)
              | Ok { Apps_util.pipeline; edb = _ } ->
                (* the snapshot's EDB mirror is authoritative — live
                   updates may have diverged from the spec's own facts *)
                let session =
                  make_session ~id ~name:snap.Ekg_store.Codec.name ~spec
                    ~pipeline ~edb:snap.Ekg_store.Codec.edb
                    ~created_at:snap.Ekg_store.Codec.created_at
                    ~update_gen:snap.Ekg_store.Codec.update_gen
                in
                if
                  not
                    (String.equal session.program_hash
                       snap.Ekg_store.Codec.program_hash)
                then
                  Logs.warn (fun m ->
                      m
                        "ekg-store: program of session %s changed since its \
                         snapshot; it will re-chase on first use"
                        id);
                with_reg_lock t (fun () ->
                    t.sessions <- session :: t.sessions;
                    match numeric_suffix id with
                    | Some n when n >= t.next_id -> t.next_id <- n + 1
                    | _ -> ());
                Ekg_obs.Metrics.incr t.obs recovered_sessions_metric;
                (session :: ok, failed)))
        ([], [])
        (Ekg_store.Store.scan p.store)
    in
    (List.rev recovered, List.rev failed)

let snapshotter t = Option.map (fun p -> p.snapshotter) t.persist

let session_json (session : session) =
  let ( cached,
        explained,
        traced,
        edb_facts,
        update_gen,
        last_used,
        queried,
        cached_queries ) =
    with_lock session.lock (fun () ->
        ( Option.is_some session.chase,
          session.explain_count,
          Option.is_some session.last_trace,
          List.length session.edb,
          session.update_gen,
          session.last_used,
          session.query_count,
          Hashtbl.fold
            (fun _ (e : query_entry) n -> n + Hashtbl.length e.qe_answers)
            session.query_cache 0 ))
  in
  Json.Obj
    [
      "id", Json.str session.id;
      "name", Json.str session.name;
      "goal", Json.str session.pipeline.Pipeline.program.Program.goal;
      "rules", Json.int (List.length session.pipeline.Pipeline.program.Program.rules);
      "edb_facts", Json.int edb_facts;
      ( "templates",
        Json.Obj
          [
            "deterministic", Json.int (List.length session.pipeline.Pipeline.deterministic);
            "enhanced", Json.int (List.length session.pipeline.Pipeline.enhanced);
          ] );
      "chase_cached", Json.bool cached;
      "tier", Json.str (if cached then "hot" else "dormant");
      "update_gen", Json.int update_gen;
      "explain_requests", Json.int explained;
      "cached_queries", Json.int cached_queries;
      "query_requests", Json.int queried;
      "traced", Json.bool traced;
      "created_at", Json.num session.created_at;
      "last_used_unix_s", Json.num last_used;
    ]
