open Ekg_core
open Ekg_datalog
open Ekg_engine
open Ekg_apps

(* one concrete query's cached answers on one version of a session.
   [ca_result] never holds its scoped instance ([q_scoped = None]):
   that instance's database copies the whole EDB *)
type cached_answers = {
  ca_result : Pipeline.query_result;
  mutable ca_used : float;
}

(* one query {e shape} (predicate + bound/free mask): the magic-sets
   specialization, pure in the immutable program, so every version of
   the session shares it *)
type query_entry = {
  qe_spec : Pipeline.specialization;
  mutable qe_used : float;
}

type spec = Ekg_store.Codec.spec =
  | App of string
  | Files of { program : string; glossary : string option; facts_dir : string option }
  | Inline of { program : string; glossary : string option }

(* A session value is one immutable version: the session's identity and
   this version's EDB, materialization, update generation and cached
   answers.  What every version shares sits in [shared]. *)
type session = {
  id : string;
  name : string;
  spec : spec;
  pipeline : Pipeline.t;
  program_hash : string;
  created_at : float;
  edb : Atom.t list;
  chase : Chase.result option;
  update_gen : int;
  answers : (string, (string, cached_answers) Hashtbl.t) Hashtbl.t;
      (* shape key -> canonical atom text -> answers *)
  shared : shared;
}

and shared = {
  current : session Atomic.t Lazy.t;
      (* the version every operation acts on; lazy only so that the
         first version and this record can point at each other, and
         forced before the session is registered *)
  writer : Mutex.t;
      (* held by the operations that publish a version: a
         materialization that misses, a fact update, an eviction *)
  shapes_lock : Mutex.t;
      (* guards [shapes] and every version's [answers]; never held
         across a chase *)
  shapes : (string, query_entry) Hashtbl.t;  (* keyed pred ^ "/" ^ mask *)
  explain_count : int Atomic.t;
  query_count : int Atomic.t;
  last_trace : Ekg_obs.Trace.span option Atomic.t;
  last_used : float Atomic.t;
  deleted : bool Atomic.t;
}

let latest (sh : shared) = Atomic.get (Lazy.force sh.current)
let publish (version : session) = Atomic.set (Lazy.force version.shared.current) version

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
  mutable sessions : (string * shared) list;  (* by id, newest first *)
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

let stop_persistence t =
  Option.iter (fun p -> Ekg_store.Snapshotter.stop p.snapshotter) t.persist

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* The registry-wide lock goes through the instrumented wrapper; the
   sessions' writer and shape locks stay plain — they are unbounded in
   number, and per-label histogram series must not be. *)
let with_reg_lock t f = Ekg_obs.Lock.with_lock t.lock f

(* --- persistence ------------------------------------------------------------ *)

(* A version is immutable, so its snapshot value is a handful of
   pointers; the encode runs later, wherever the caller (snapshotter
   domain, eviction) wants it. *)
let snapshot_of (session : session) =
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
  if Atomic.get session.shared.deleted then None else Some (snapshot_of (latest session.shared))

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
  let program_hash = Pipeline.identity pipeline in
  let rec first =
    { id; name; spec; pipeline; program_hash; created_at; edb; chase = None; update_gen;
      answers = Hashtbl.create 8; shared }
  and shared =
    { current = lazy (Atomic.make first); writer = Mutex.create (); shapes_lock = Mutex.create ();
      shapes = Hashtbl.create 8; explain_count = Atomic.make 0; query_count = Atomic.make 0;
      last_trace = Atomic.make None; last_used = Atomic.make (Unix.gettimeofday ());
      deleted = Atomic.make false }
  in
  ignore (Lazy.force shared.current);
  first

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
          t.sessions <- (id, session.shared) :: t.sessions;
          session)
    in
    (* persist the session's existence right away, so a crash before
       its first materialization still recovers it at restart *)
    schedule_snapshot t session;
    Ok session

let find t id =
  with_reg_lock t (fun () -> Option.map latest (List.assoc_opt id t.sessions))

let list t = with_reg_lock t (fun () -> List.rev_map (fun (_, sh) -> latest sh) t.sessions)
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

(* Demote a hot session to its snapshot: the materialization is
   synchronously persisted before a dormant version is published, so
   the demotion is lossless, and the victim's readers keep the hot
   version meanwhile.  The pending write-behind entry is discarded
   first so a post-eviction capture cannot overwrite that snapshot with
   a meta-only one. *)
let evict t p (victim : session) =
  let sh = victim.shared in
  Ekg_store.Snapshotter.discard p.snapshotter ~sid:victim.id;
  with_lock sh.writer (fun () ->
      let v = latest sh in
      match v.chase with
      | None -> ()
      | Some _ ->
        if not (Atomic.get sh.deleted) then begin
          (match Ekg_store.Store.save p.store (snapshot_of v) with
          | Ok _ -> ()
          | Error e ->
            Logs.warn (fun m ->
                m
                  "ekg-store: eviction snapshot of %s failed (%s); session will \
                   re-chase on next use"
                  v.id e));
          (* [remove] takes no writer lock: if it flagged the session
             during the save, its delete may have run first *)
          if Atomic.get sh.deleted then Ekg_store.Store.delete p.store v.id;
          Ekg_obs.Metrics.incr t.obs evictions_metric
        end;
        publish { v with chase = None })

let hot_locked t =
  List.filter_map
    (fun (_, sh) ->
      let v = latest sh in
      if (not (Atomic.get sh.deleted)) && Option.is_some v.chase then Some v else None)
    t.sessions

let hot_count t = with_reg_lock t (fun () -> List.length (hot_locked t))

(* Demote the least-recently-used hot sessions until at most [max_hot]
   remain materialized.  A stale candidate only mis-ranks: [evict]
   re-reads the victim's current version under its writer lock. *)
let maybe_evict t ~keep =
  match t.persist with
  | None -> ()
  | Some p when p.max_hot <= 0 -> ()
  | Some p ->
    let rec go () =
      let hot = with_reg_lock t (fun () -> hot_locked t) in
      if List.length hot > p.max_hot then
        match
          List.filter (fun (s : session) -> s.id <> keep) hot
          |> List.sort (fun (a : session) b ->
                 Float.compare (Atomic.get a.shared.last_used) (Atomic.get b.shared.last_used))
        with
        | [] -> ()
        | victim :: _ ->
          evict t p victim;
          go ()
    in
    go ()

(* A hit reads the current version and takes no lock.  A miss takes the
   writer lock, so concurrent misses chase once, and publishes the
   materialized version; readers keep the dormant one meanwhile. *)
let materialize ?(budget = Chase.unlimited) ?tracer ?parent t
    (session : session) =
  let sh = session.shared in
  Atomic.set sh.last_used (Unix.gettimeofday ());
  let hit result =
    Ekg_obs.Metrics.incr t.obs session_cache_hits_metric;
    Ok (result, `Hot)
  in
  let outcome =
    match (latest sh).chase with
    | Some result -> hit result
    | None ->
      with_lock sh.writer (fun () ->
          (* the writer this one waited for may have materialized *)
          let v = latest sh in
          match v.chase with
          | Some result -> hit result
          | None ->
            Ekg_obs.Metrics.incr t.obs session_cache_misses_metric;
            let built =
              match try_warm_restore t v with
              | Some result -> Ok (result, `Restored)
              | None -> (
                fault_slow_chase t budget;
                match
                  Chase.run_checked ~stats:t.obs ~budget ?obs:tracer ?parent
                    v.pipeline.Pipeline.program v.edb
                with
                | Ok result -> Ok (result, `Chased)
                | Error _ as e -> e)
            in
            Result.iter (fun (result, _) -> publish { v with chase = Some result }) built;
            built)
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

(* the cached answers a version holds; called with [shapes_lock] held *)
let count_answers (version : session) =
  Hashtbl.fold (fun _ answers n -> n + Hashtbl.length answers) version.answers 0

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

(* the dormant EDB mirror's next value — nothing is materialized yet,
   so there is nothing to maintain; the next materialization sees the
   new base.  Validation mirrors the engine's: ground additions, known
   extensional retractions.  One pass over the mirror against a table
   of the request's atoms. *)
let update_edb_only (version : session) op atoms =
  let program = version.pipeline.Pipeline.program in
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
      List.iter (fun e -> if AtomTbl.mem held e then AtomTbl.replace held e true) version.edb;
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
      Ok (version.edb @ fresh, upd ~added:(List.length fresh) ~retracted:0)
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
          version.edb
      in
      match List.find_opt (fun a -> not (AtomTbl.find held a)) atoms with
      | Some missing -> Error (Chase.unknown_fact program missing)
      | None -> Ok (kept, upd ~added:0 ~retracted:!removed)))

(* Each committed update logs its phases next to its counts: the
   copy-on-write copy, the engine's pass, and the EDB mirror rebuild
   (or, dormant, the mirror edit that is the whole update).  The writer
   lock serializes the session's updates; readers keep the version
   before this one until it publishes the next. *)
let update_facts ?(budget = Chase.unlimited) t (session : session) op atoms =
  let clock_ms () = Ekg_obs.Clock.now_s () *. 1000. in
  let sh = session.shared in
  let committed =
    with_lock sh.writer (fun () ->
      Atomic.set sh.last_used (Unix.gettimeofday ());
      let v = latest sh in
      let outcome =
        match v.chase with
        | None -> (
          let t0 = clock_ms () in
          match update_edb_only v op atoms with
          | Ok (edb, upd) -> Ok (edb, None, upd, "dormant", 0., 0., clock_ms () -. t0)
          | Error e -> Error e)
        | Some res -> (
          let apply =
            match op with
            | `Add -> Pipeline.add_facts
            | `Retract -> Pipeline.retract_facts
          in
          (* Copy-on-write: readers keep the published result, and the
             incremental engine mutates in place — including on
             failures it only detects after mutating (Inconsistent,
             budget trips).  So the update runs against a private copy
             and is published in the next version on success; every
             error path discards the copy, leaving the current version
             exactly as it was.  The non-incrementable fallback
             re-chases without touching its input, so it needs no
             copy. *)
          let t0 = clock_ms () in
          let target =
            if Pipeline.incrementable v.pipeline then
              Chase.copy_result res
            else res
          in
          let t1 = clock_ms () in
          match
            apply ~budget v.pipeline target atoms
          with
          | Ok (res', upd) ->
            let t2 = clock_ms () in
            (* the engine's view of the base is now authoritative *)
            let edb = Chase.edb_atoms res' in
            let path = if upd.Chase.upd_incremental then "incremental" else "rechase" in
            Ok (edb, Some res', upd, path, t1 -. t0, t2 -. t1, clock_ms () -. t2)
          | Error e -> Error e)
      in
      match outcome with
      | Ok (edb, chase, upd, path, copy_ms, apply_ms, mirror_ms) ->
        publish
          { v with edb; chase; update_gen = v.update_gen + 1; answers = Hashtbl.create 8 };
        let dropped = with_lock sh.shapes_lock (fun () -> count_answers v) in
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
  (* persist committed updates after the commit, off the writer lock;
     bursts coalesce in the snapshotter *)
  (match committed with Ok _ -> schedule_snapshot t session | Error _ -> ());
  committed

(* --- the query lane ----------------------------------------------------------

   A hot session answers a point query with one lookup on its current
   version's materialization.  A published result is immutable (updates
   publish a copy-on-write copy in a new version) and the lookup reads
   only the indexes every insertion maintains and the activation
   bitmap, never a join index the planner builds, so it takes no lock,
   as explanations do.  A dormant session never builds or waits on a
   materialization: the program is magic-sets-specialized per query
   shape (an LRU keyed predicate + mask, shared by every version), a
   private scoped chase runs over the version's EDB, and the concrete
   answers are cached in that version, so a committed update, whose
   version starts with none, leaves them behind. *)

let max_query_shapes = 64
let max_answers_per_shape = 8

type query_outcome = {
  qo_result : Pipeline.query_result;
  qo_rewrite_cached : bool;  (* the specialization was already cached *)
  qo_answer_cached : bool;   (* the concrete answer set was *)
}

(* called with [shapes_lock] held *)
let lru_trim ?(evicted = ignore) tbl cap used =
  while Hashtbl.length tbl > cap do
    let victim =
      Hashtbl.fold
        (fun k v acc ->
          match acc with
          | Some (_, best) when used best <= used v -> acc
          | _ -> Some (k, v))
        tbl None
    in
    match victim with
    | Some (k, _) ->
      Hashtbl.remove tbl k;
      evicted k
    | None -> ()
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
  let sh = session.shared in
  let now = Unix.gettimeofday () in
  Atomic.set sh.last_used now;
  Atomic.incr sh.query_count;
  let v = latest sh in
  match v.chase with
  | Some res -> (
    match Pipeline.query_materialized v.pipeline res atom with
    | Error e -> Error (`Unknown_pred e)
    | Ok result ->
      count query_materialized_metric;
      note_query_event result ~cache_hit:false;
      finish ();
      Ok { qo_result = result; qo_rewrite_cached = false; qo_answer_cached = false })
  | None -> (
    let prelim =
      with_lock sh.shapes_lock (fun () ->
          match Hashtbl.find_opt sh.shapes shape_key with
          | Some entry -> (
            entry.qe_used <- now;
            match
              Option.bind (Hashtbl.find_opt v.answers shape_key) (fun answers ->
                  Hashtbl.find_opt answers answer_key)
            with
            | Some c when not explain ->
              c.ca_used <- now;
              `Hit c.ca_result
            | Some _ | None ->
              (* explanations need the scoped instance, which the cache
                 does not keep: re-run *)
              `Run (entry.qe_spec, true))
          | None -> (
            match Pipeline.specialize v.pipeline ~pred ~mask with
            | Error e -> `Unknown e
            | Ok spec ->
              Hashtbl.replace sh.shapes shape_key { qe_spec = spec; qe_used = now };
              (* an evicted shape takes this version's answers with it *)
              lru_trim ~evicted:(Hashtbl.remove v.answers) sh.shapes max_query_shapes
                (fun e -> e.qe_used);
              `Run (spec, false)))
    in
    match prelim with
    | `Unknown e -> Error (`Unknown_pred e)
    | `Hit result ->
      count query_rewrite_hits_metric;
      count query_answer_hits_metric;
      note_query_event result ~cache_hit:true;
      finish ();
      Ok { qo_result = result; qo_rewrite_cached = true; qo_answer_cached = true }
    | `Run (spec, rewrite_cached) -> (
      count
        (if rewrite_cached then query_rewrite_hits_metric
         else query_rewrite_misses_metric);
      count query_answer_misses_metric;
      fault_slow_chase t budget;
      match
        Pipeline.query ~stats:t.obs ~budget ?obs:tracer ?parent v.pipeline spec
          v.edb atom
      with
      | Error err ->
        finish ();
        Error (`Chase err)
      | Ok result ->
        with_lock sh.shapes_lock (fun () ->
            if Hashtbl.mem sh.shapes shape_key then begin
              let answers =
                match Hashtbl.find_opt v.answers shape_key with
                | Some answers -> answers
                | None ->
                  let answers = Hashtbl.create 4 in
                  Hashtbl.replace v.answers shape_key answers;
                  answers
              in
              Hashtbl.replace answers answer_key
                {
                  ca_result = { result with Pipeline.q_scoped = None };
                  ca_used = Unix.gettimeofday ();
                };
              lru_trim answers max_answers_per_shape (fun c -> c.ca_used)
            end);
        note_query_event result ~cache_hit:false;
        finish ();
        Ok
          {
            qo_result = result;
            qo_rewrite_cached = rewrite_cached;
            qo_answer_cached = false;
          }))

let note_explain (session : session) = Atomic.incr session.shared.explain_count
let set_trace (session : session) span = Atomic.set session.shared.last_trace (Some span)
let last_trace (session : session) = Atomic.get session.shared.last_trace

(* --- deletion and startup recovery ------------------------------------------ *)

let remove t id =
  let found =
    with_reg_lock t (fun () ->
        let found = List.assoc_opt id t.sessions in
        if Option.is_some found then t.sessions <- List.remove_assoc id t.sessions;
        found)
  in
  match found with
  | None -> None
  | Some sh ->
    (* flag first so an already-captured closure answers [None], then
       wait out any in-flight save before removing the file — the
       deletion must not race a concurrent re-write *)
    Atomic.set sh.deleted true;
    (match t.persist with
    | None -> ()
    | Some p ->
      Ekg_store.Snapshotter.discard p.snapshotter ~sid:id;
      Ekg_store.Store.delete p.store id);
    Some (latest sh)

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
          if with_reg_lock t (fun () -> List.mem_assoc id t.sessions) then (ok, failed)
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
                    t.sessions <- (id, session.shared) :: t.sessions;
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
  let sh = session.shared in
  let v = latest sh in
  let cached = Option.is_some v.chase in
  Json.Obj
    [
      "id", Json.str v.id;
      "name", Json.str v.name;
      "goal", Json.str v.pipeline.Pipeline.program.Program.goal;
      "rules", Json.int (List.length v.pipeline.Pipeline.program.Program.rules);
      "edb_facts", Json.int (List.length v.edb);
      ( "templates",
        Json.Obj
          [
            "deterministic", Json.int (List.length v.pipeline.Pipeline.deterministic);
            "enhanced", Json.int (List.length v.pipeline.Pipeline.enhanced);
          ] );
      "chase_cached", Json.bool cached;
      "tier", Json.str (if cached then "hot" else "dormant");
      "update_gen", Json.int v.update_gen;
      "explain_requests", Json.int (Atomic.get sh.explain_count);
      "cached_queries", Json.int (with_lock sh.shapes_lock (fun () -> count_answers v));
      "query_requests", Json.int (Atomic.get sh.query_count);
      "traced", Json.bool (Option.is_some (Atomic.get sh.last_trace));
      "created_at", Json.num v.created_at;
      "last_used_unix_s", Json.num (Atomic.get sh.last_used);
    ]
