open Ekg_kernel
open Ekg_datalog

type rule_stat = {
  rule_id : string;
  stratum : int;
  time_s : float;
  evals : int;
  facts : int;
  build_s : float;
  probe_s : float;
  insert_s : float;
}

type round_stat = {
  stratum : int;
  round : int;
  delta_size : int;
  new_facts : int;
  time_s : float;
}

type stats = {
  per_rule : rule_stat list;
  per_round : round_stat list;
  rounds_per_stratum : int list;
  agg_superseded : int;
  wall_s : float;
  plan_reorders : int;
  join_builds : int;
  join_probe_hits : int;
}

type result = {
  db : Database.t;
  prov : Provenance.t;
  rounds : int;
  derived_count : int;
  stats : stats option;
}

let falsum = "false"

type state = {
  db : Database.t;
  prov : Provenance.t;
  (* current materialized aggregate fact per (rule id, group key) *)
  agg_current : (string * Value.t list, int) Hashtbl.t;
  (* every fact id activated or deactivated, in order, one entry per
     change: an aggregate rule reads the suffix since its last
     evaluation to find touched groups *)
  log : int Paged.t;
  (* set on the incremental path, whose groups were first evaluated by
     an earlier chase: a group without an [agg_current] entry may still
     have a fact, found by its head pattern *)
  lookup_groups : bool;
  phase : (string, int) Hashtbl.t;  (* aggregate rule -> its {!position} phase *)
  mutable id_order : bool;  (* ids follow {!position}: a fresh chase, nothing reactivated *)
  mutable derived : int;  (* facts inserted under a new id *)
  mutable revived : int;  (* inactive facts derived again *)
  mutable active_derived : int;  (* active facts with a derivation *)
  mutable superseded : int;  (* stale aggregate facts deactivated *)
}

let make_state ?(lookup_groups = false) ?(active_derived = 0) db prov =
  {
    db;
    prov;
    agg_current = Hashtbl.create 64;
    log = Paged.create ~bits:Paged.append_bits 0;
    lookup_groups;
    phase = Hashtbl.create 8;
    id_order = not lookup_groups;
    derived = 0;
    revived = 0;
    active_derived;
    superseded = 0;
  }

let log_since st from =
  List.init (Paged.length st.log - from) (fun i -> Paged.get_int st.log (from + i))

(* [existentials] is [Rule.existential_vars r], hoisted by callers so
   per-match insertion does not recompute it (it walks the whole body). *)
let instantiate_head st ~existentials (r : Rule.t) binding =
  let nulls = if existentials = [] then None else Some (Hashtbl.create 4) in
  let resolve (t : Term.t) =
    match t with
    | Term.Cst c -> Some c
    | Term.Var v -> (
      match Subst.find binding v with
      | Some x -> Some x
      | None -> (
        match nulls with
        | Some nulls when List.mem v existentials -> (
          match Hashtbl.find_opt nulls v with
          | Some n -> Some n
          | None ->
            let n = Database.fresh_null st.db in
            Hashtbl.add nulls v n;
            Some n)
        | _ -> None))
  in
  let args = List.map resolve r.head.Atom.args in
  if List.exists Option.is_none args then None
  else Some (Array.of_list (List.map Option.get args))

(* Restricted-chase preemption (§5: "application of chase steps that
   generate facts isomorphic to facts already in the chase is
   pre-empted"): skip an existential head when the database already
   holds a fact of the head's predicate and arity that the instantiated
   non-existential positions map onto homomorphically — constants must
   agree, labelled nulls may map to any value (consistently),
   existential positions are unconstrained.  Treating nulls as mappable
   is what terminates recursive existential chains such as person →
   hasParent → person.  One probe of the head's pattern: constants stay
   constants, each null becomes one variable wherever it occurs, each
   existential position a variable of its own. *)
let isomorphic_exists st ~existentials (r : Rule.t) binding =
  existentials <> []
  &&
  let position i (t : Term.t) =
    let value = match t with Term.Cst c -> Some c | Term.Var v -> Subst.find binding v in
    match value with
    | Some (Value.Null n) -> Term.var ("null " ^ string_of_int n)
    | Some c -> Term.cst c
    | None -> Term.var ("free " ^ string_of_int i)
  in
  Database.exists_matching st.db
    (Atom.make (Rule.head_pred r) (List.mapi position r.head.Atom.args))
    Subst.empty

(* What an insertion did to a fact, given by predicate and id, for an
   update's bookkeeping: [`Changed p] is a change to [p]'s provenance or
   aggregate values that activated nothing. *)
type event =
  [ `Added of string * int
  | `Reactivated of string * int
  | `Superseded of string * int
  | `Changed of string ]

(* An order every recorded derivation respects, premises first: the
   round that last activated a fact, that round's phase (plain inserts,
   then each aggregate rule in turn), its id; EDB facts lead.  A
   derivation of an existing fact is recorded only when its premises
   precede it, so it closes no cycle in the chase graph. *)
let position st id =
  match Provenance.derivation st.prov id with
  | None -> (-1, 0)
  | Some d -> (d.Provenance.round, Option.value ~default:0 (Hashtbl.find_opt st.phase d.rule_id))

let precedes st p id =
  if st.id_order then p < id
  else
    let r, ph = position st p and r', ph' = position st id in
    r < r' || (r = r' && (ph < ph' || (ph = ph' && p < id)))

(* Reactivation moves a fact behind its new premises in the
   {!position} order, so its consumers must be gone: DRed forgot every
   derivation reaching an over-deleted fact, but a superseded aggregate
   value keeps its consumers and stays inactive while one cites it. *)
let revivable st id =
  (not (Database.is_active st.db id))
  && (Provenance.superseded_by st.prov id = None || not (Provenance.cited st.prov id))

(* The insert phase of a round: admit one plain rule's matches, in
   match order, once every plain rule of the round has matched.  A
   match whose tuple is {!revivable} brings it back under its id, with
   this derivation as its only one.  Returns the ids it activated. *)
(* [used_facts] is usually already strictly ascending (body atoms often
   match facts in insertion order); detect that without allocating
   before falling back to a sort *)
let rec strictly_ascending = function
  | (a : int) :: (b :: _ as tl) -> a < b && strictly_ascending tl
  | _ -> true

let insert_plain_matches st ~round ~(note : event -> unit) (r : Rule.t) matches =
  let existentials = Rule.existential_vars r in
  let pred = Rule.head_pred r in
  List.filter_map
    (fun (m : Matcher.match_result) ->
      if isomorphic_exists st ~existentials r m.binding then None
      else
        match instantiate_head st ~existentials r m.binding with
        | None -> None
        | Some tuple -> (
          let derivation =
            {
              Provenance.rule_id = r.id;
              premises =
                (if strictly_ascending m.used_facts then m.used_facts
                 else List.sort_uniq Int.compare m.used_facts);
              binding = m.binding;
              contributors = [];
              round;
            }
          in
          match Database.add st.db pred tuple with
          | `Existing id when revivable st id ->
            Database.reactivate st.db id;
            Paged.push_int st.log id;
            Provenance.forget st.prov id;
            Provenance.record st.prov ~fact_id:id derivation;
            st.revived <- st.revived + 1;
            st.id_order <- false;
            note (`Reactivated (pred, id));
            Some id
          | `Existing id ->
            (* an alternative derivation of a known fact: keep it for
               shortest-proof selection, but it is not a new fact —
               provided it is not circular (premises must precede).
               Provenance changed although the instance did not, so
               shortest-proof explanations may shift *)
            if
              (not (Provenance.is_edb st.prov id))
              && List.for_all (fun p -> precedes st p id) derivation.premises
            then begin
              Provenance.record st.prov ~fact_id:id derivation;
              note (`Changed pred)
            end;
            None
          | `Added id ->
            st.derived <- st.derived + 1;
            Provenance.record st.prov ~fact_id:id derivation;
            Paged.push_int st.log id;
            note (`Added (pred, id));
            Some id))
    matches

let derived_by st (r : Rule.t) id =
  List.exists
    (fun (d : Provenance.derivation) -> d.rule_id = r.id)
    (Provenance.alternatives st.prov id)

(* The active facts rule [r] derived for group [key], found by the head
   with the group key bound. *)
let group_facts st (r : Rule.t) key =
  Database.matching st.db r.head (Subst.of_list (List.combine (Rule.group_vars r) key))
  |> List.filter_map (fun ((f : Fact.t), _) -> if derived_by st r f.Fact.id then Some f else None)

(* The fact rule [r] holds for a group that this chase has not
   evaluated yet — only on the incremental path, which keeps no
   per-group state from the chase it maintains.  Only a head that
   carries the aggregate can hold a stale value; otherwise the key
   determines the tuple. *)
let current_group_fact st (r : Rule.t) key =
  match r.agg with
  | Some agg when st.lookup_groups && List.mem agg.Rule.result (Atom.vars r.head) -> (
    match group_facts st r key with
    | f :: _ -> Some f.Fact.id
    | [] -> None)
  | Some _ | None -> None

(* Insert an aggregate rule's groups, in the given (ascending key)
   order.  A group whose tuple changed supersedes its previous fact; a
   value that returns to a superseded (or over-deleted) tuple revives
   that fact under its id.  [note] sees every activation and
   supersession. *)
let insert_agg_groups st ~round ~(note : event -> unit) (r : Rule.t) groups =
  let existentials = Rule.existential_vars r in
  let group_vars = Rule.group_vars r in
  let pred = Rule.head_pred r in
  List.filter_map
    (fun (g : Matcher.agg_result) ->
      match instantiate_head st ~existentials r g.group_binding with
      | None -> None
      | Some tuple -> (
        let key = Matcher.group_key group_vars g.group_binding in
        let reg_key = (r.id, key) in
        let previous =
          match Hashtbl.find_opt st.agg_current reg_key with
          | Some _ as p -> p
          | None -> current_group_fact st r key
        in
        let derive id =
          let premises =
            List.concat_map (fun (c : Provenance.contributor) -> c.facts) g.contributors
            |> List.sort_uniq Int.compare
          in
          Provenance.record st.prov ~fact_id:id
            {
              Provenance.rule_id = r.id;
              premises;
              binding = g.group_binding;
              contributors = g.contributors;
              round;
            };
          (match previous with
          | Some old_id when old_id <> id && Database.is_active st.db old_id ->
            (* stale monotonic aggregate: supersede it *)
            if not (Provenance.is_edb st.prov old_id) then
              st.active_derived <- st.active_derived - 1;
            Database.deactivate st.db old_id;
            Paged.push_int st.log old_id;
            st.superseded <- st.superseded + 1;
            Provenance.record_superseded st.prov ~old_fact:old_id ~by:id;
            note (`Superseded (pred, old_id))
          | Some _ | None -> ());
          Hashtbl.replace st.agg_current reg_key id;
          Paged.push_int st.log id;
          Some id
        in
        match Database.add st.db pred tuple with
        | `Existing id when Database.is_active st.db id ->
          (* The group's tuple is unchanged (e.g. the aggregate does not
             appear in the head): nothing new. *)
          if previous = None then Hashtbl.replace st.agg_current reg_key id;
          None
        | `Existing id ->
          (* the value came back to a superseded or over-deleted tuple *)
          Database.reactivate st.db id;
          Provenance.forget st.prov id;
          st.revived <- st.revived + 1;
          st.id_order <- false;
          note (`Reactivated (pred, id));
          derive id
        | `Added id ->
          st.derived <- st.derived + 1;
          note (`Added (pred, id));
          derive id))
    groups

(* One evaluation of an aggregate rule, after {!Matcher.prepare} with
   the same [changed]: every group, or ([changed] given) the groups
   those facts touch — those whose contributors changed, plus the group
   of every changed fact of the rule's own head, since an over-deleted
   aggregate fact is re-derived only through its group.  Returns the
   keys it covered ([None]: every group) with the groups that passed;
   [None] when no group was touched. *)
let reaggregate st ?interrupt ~plan ?changed (r : Rule.t) =
  match changed with
  | None -> Some (None, Matcher.match_agg_rule ?interrupt ~plan st.db r)
  | Some changed -> (
    let group_vars = Rule.group_vars r in
    let own =
      List.filter_map
        (fun id ->
          let f = Database.fact st.db id in
          if
            f.Fact.pred <> Rule.head_pred r
            || Array.length f.Fact.args <> List.length r.head.Atom.args
          then None
          else
            Option.map (Matcher.group_key group_vars)
              (Subst.match_atom Subst.empty ~pattern:r.head f.Fact.args))
        changed
    in
    match own @ Matcher.touched_groups ?interrupt ~changed st.db r with
    | [] -> None
    | keys ->
      Some
        (Some keys, Matcher.match_agg_rule ?interrupt ~plan ~groups:keys st.db r))

(* Whether a group that {!reaggregate} covered ([covered]; [None]: every
   group) still holds an active fact derived by [r] although it no
   longer passes.  An update cannot take such a fact back in place: it
   has only moved a value its way, never withdrawn what the old value
   derived.  Within {!incrementable}'s fragment only data gets here — a
   sum meeting a negative input, a binding no longer common to all of a
   group's contributors. *)
let stale_group st (r : Rule.t) ~covered (groups : Matcher.agg_result list) =
  let group_vars = Rule.group_vars r in
  let kept =
    Matcher.GroupSet.of_list
      (List.map
         (fun (g : Matcher.agg_result) -> Matcher.group_key group_vars g.group_binding)
         groups)
  in
  match covered with
  | Some keys ->
    List.exists
      (fun key -> (not (Matcher.GroupSet.mem key kept)) && group_facts st r key <> [])
      keys
  | None ->
    List.exists
      (fun (f : Fact.t) ->
        Array.length f.Fact.args = List.length r.head.Atom.args
        && derived_by st r f.Fact.id
        &&
        match Subst.match_atom Subst.empty ~pattern:r.head f.Fact.args with
        | Some s -> not (Matcher.GroupSet.mem (Matcher.group_key group_vars s) kept)
        | None -> false)
      (Database.active st.db (Rule.head_pred r))

type divergence = {
  max_rounds : int;
  stratum_rounds : int list;
}

(* --- budgets ------------------------------------------------------------ *)

type budget = {
  deadline_s : float option;
  budget_rounds : int option;
  budget_facts : int option;
  cancel : (unit -> bool) option;
}

let unlimited =
  { deadline_s = None; budget_rounds = None; budget_facts = None; cancel = None }

let budget ?deadline_s ?rounds ?facts ?cancel () =
  { deadline_s; budget_rounds = rounds; budget_facts = facts; cancel }

let within_ms ms =
  { unlimited with deadline_s = Some (Ekg_obs.Clock.now_s () +. (ms /. 1000.)) }

type partial = {
  partial_rounds : int;
  partial_derived : int;
  partial_wall_s : float;
  partial_stratum_rounds : int list;
}

type exhausted = [ `Deadline | `Facts | `Rounds ]

type error =
  | Invalid_program of string list
  | Unstratifiable of string
  | Invalid_edb of string
  | Divergent of divergence
  | Inconsistent of string
  | Unknown_fact of string
  | Budget_exceeded of exhausted * partial
  | Cancelled of partial

let partial_to_string p =
  Printf.sprintf "%d rounds, %d facts derived, %.1f ms elapsed"
    p.partial_rounds p.partial_derived (p.partial_wall_s *. 1000.)

let error_to_string = function
  | Invalid_program es -> String.concat "; " es
  | Unstratifiable e -> e
  | Invalid_edb e -> e
  | Divergent { max_rounds; stratum_rounds } ->
    let detail =
      match stratum_rounds with
      | [] -> ""
      | rs ->
        Printf.sprintf " (rounds per stratum: %s)"
          (String.concat ", "
             (List.mapi (fun i n -> Printf.sprintf "#%d=%d" (i + 1) n) rs))
    in
    Printf.sprintf "chase did not terminate within %d rounds%s" max_rounds detail
  | Inconsistent detail -> detail
  | Unknown_fact detail -> detail
  | Budget_exceeded (resource, p) ->
    let what =
      match resource with
      | `Deadline -> "wall-clock deadline"
      | `Facts -> "derived-fact budget"
      | `Rounds -> "round budget"
    in
    Printf.sprintf "chase exceeded its %s (%s)" what (partial_to_string p)
  | Cancelled p -> Printf.sprintf "chase cancelled (%s)" (partial_to_string p)

let client_error = function
  | Invalid_program _ | Unstratifiable _ | Invalid_edb _ | Inconsistent _
  | Unknown_fact _ ->
    true
  | Divergent _ | Budget_exceeded _ | Cancelled _ -> false

(* A run's budget guard.  [over_budget] runs at every round boundary
   and trips on any exhausted resource, given the run's own counters;
   the matcher's [interrupt] hook, absent without a deadline or cancel
   hook, answers [true] once the guard has tripped and polls those two
   every 4096 join nodes, so a hot join pays a field read and a counter
   bump per node.  [stopped] keeps the first resource that tripped.
   When no budget is set, a round-boundary check is four [None]
   matches and the hook is absent: the unlimited run is
   instruction-identical to an unbudgeted one. *)
type guard = {
  budget : budget;
  mutable stopped : [ `Cancelled | exhausted ] option;
  mutable ticks : int;
}

let guard budget = { budget; stopped = None; ticks = 0 }

let trip g reason =
  if g.stopped = None then g.stopped <- Some reason;
  true

let timed_out g =
  if match g.budget.cancel with Some f -> f () | None -> false then trip g `Cancelled
  else if
    match g.budget.deadline_s with
    | Some d -> Ekg_obs.Clock.now_s () > d
    | None -> false
  then trip g `Deadline
  else false

let over_budget g ~derived ~rounds =
  let reached limit n = match limit with Some m -> n >= m | None -> false in
  g.stopped <> None || timed_out g
  || (reached g.budget.budget_facts derived && trip g `Facts)
  || (reached g.budget.budget_rounds rounds && trip g `Rounds)

let interrupt g =
  if g.budget.deadline_s = None && Option.is_none g.budget.cancel then None
  else
    Some
      (fun () ->
        g.stopped <> None
        || begin
             g.ticks <- g.ticks + 1;
             g.ticks land 4095 = 0 && timed_out g
           end)

(* How a run that left its round loops ends: the budget that tripped,
   with the partial progress, the round guard, a derived ⊥ (negative
   constraints abort the task), or [ok ()]. *)
let finish g ~t_start ~rounds ~derived ~max_rounds ~overflow ~stratum_rounds db prov ok =
  match g.stopped with
  | Some reason ->
    let partial =
      {
        partial_rounds = rounds;
        partial_derived = derived;
        partial_wall_s = Ekg_obs.Clock.now_s () -. t_start;
        partial_stratum_rounds = stratum_rounds;
      }
    in
    Error
      (match reason with
      | `Cancelled -> Cancelled partial
      | (`Deadline | `Facts | `Rounds) as r -> Budget_exceeded (r, partial))
  | None when overflow -> Error (Divergent { max_rounds; stratum_rounds })
  | None -> (
    match Database.active db falsum with
    | violation :: _ ->
      let detail =
        match Provenance.derivation prov violation.Fact.id with
        | Some d ->
          Printf.sprintf "constraint %s violated by %s" d.rule_id
            (String.concat ", "
               (List.map (fun id -> Fact.to_string (Database.fact db id)) d.premises))
        | None -> "constraint violated"
      in
      Error (Inconsistent detail)
    | [] -> Ok (ok ()))

(* per-rule profiling accumulator, live only when a stats sink is on *)
type rule_acc = {
  acc_rule : string;
  acc_stratum : int;
  mutable acc_time : float;
  mutable acc_evals : int;
  mutable acc_facts : int;
  mutable acc_build : float;   (* index preparation *)
  mutable acc_probe : float;   (* match passes *)
  mutable acc_insert : float;  (* insertion *)
}

(* the series a [?stats] run records: eight totals, two per-rule
   histograms, and two series per rule labelled by rule and stratum *)
module M = Ekg_obs.Metrics

let runs_metric = M.counter ~help:"Chase materializations completed" "ekg_chase_runs_total"
let rounds_metric = M.counter ~help:"Fixpoint rounds executed" "ekg_chase_rounds_total"
let facts_derived_metric =
  M.counter ~help:"Facts derived beyond the EDB" "ekg_chase_facts_derived_total"
let agg_superseded_metric =
  M.counter ~help:"Aggregate facts superseded by a later refinement"
    "ekg_chase_agg_superseded_total"
let seconds_metric =
  M.counter ~help:"Seconds spent in chase materializations" "ekg_chase_seconds_total"
let plan_reorders_metric =
  M.counter ~help:"Join plans that deviated from textual body order"
    "ekg_chase_plan_reorders_total"
let join_builds_metric =
  M.counter ~help:"Hash-join indexes built or extended during round planning"
    "ekg_chase_join_builds_total"
let join_probe_hits_metric =
  M.counter ~help:"Matches emitted by the join probe phase" "ekg_chase_join_probe_hits_total"
let join_build_seconds_metric =
  M.histogram ~help:"Per-rule index build seconds per chase" "ekg_chase_join_build_seconds"
let join_probe_seconds_metric =
  M.histogram ~help:"Per-rule probe (match-phase) seconds per chase"
    "ekg_chase_join_probe_seconds"
let rule_seconds_metric =
  M.counter ~help:"Evaluation seconds per rule" "ekg_chase_rule_seconds_total"
let rule_facts_metric = M.counter ~help:"Facts derived per rule" "ekg_chase_rule_facts_total"

let declare_stats sink =
  List.iter (M.declare sink)
    [ runs_metric; rounds_metric; facts_derived_metric; agg_superseded_metric;
      seconds_metric; plan_reorders_metric; join_builds_metric; join_probe_hits_metric ];
  M.declare sink join_build_seconds_metric;
  M.declare sink join_probe_seconds_metric

let push_stats sink ~rounds ~derived (s : stats) =
  let total f v = M.Add (f, [], v) in
  let per_rule (r : rule_stat) =
    let labels = [ ("rule", r.rule_id); ("stratum", string_of_int r.stratum) ] in
    (if r.build_s > 0. then [ M.Observe (join_build_seconds_metric, [], r.build_s) ]
     else [])
    @ [
        M.Observe (join_probe_seconds_metric, [], r.probe_s);
        M.Add (rule_seconds_metric, labels, r.time_s);
        M.Add (rule_facts_metric, labels, float_of_int r.facts);
      ]
  in
  M.record sink
    ([
       total runs_metric 1.;
       total rounds_metric (float_of_int rounds);
       total facts_derived_metric (float_of_int derived);
       total agg_superseded_metric (float_of_int s.agg_superseded);
       total seconds_metric s.wall_s;
       total plan_reorders_metric (float_of_int s.plan_reorders);
       total join_builds_metric (float_of_int s.join_builds);
       total join_probe_hits_metric (float_of_int s.join_probe_hits);
     ]
    @ List.concat_map per_rule s.per_rule)

(* --- the round loop --------------------------------------------------------

   Cold chases and fact updates run the same rounds; they differ only in
   how each stratum's first round opens ({!opening}): a cold chase is an
   update of the empty instance, every rule in full.  A round plans each
   rule from the round-start cardinalities, prepares its indexes and
   matches each plain rule against the pre-round database, then inserts
   the matches in rule order, where every fact id, null and provenance
   record is allocated, and runs each aggregate rule from its log
   cursor. *)

(* How a stratum's first round opens.  Its plain rules match [delta] by
   semi-naive seed passes, except the [full] ones, which match the whole
   instance; the [probed] ones also re-derive the [lost] facts by
   head-bound probes ({!Matcher.head_probe_matches}).  Its
   [full] aggregate rules regroup every group; the others re-aggregate
   the groups touched by the facts logged since the run began.  Later
   rounds are semi-naive from the previous round's activations. *)
type opening = {
  delta : int list;
  full : Rule.t list;
  probed : Rule.t list;
  lost : Fact.t list;
}

(* Raised by an update's round that re-aggregated a {!stale_group}. *)
exception Regressed

type run = {
  run_rounds : int;
  run_full_passes : int;  (* plain-rule evaluations over the whole instance *)
  run_stats : stats option;
}

(* Run every stratum to fixpoint from its [opening], numbering rounds
   after [round0].  [naive] evaluates every rule in full every round. *)
let chase_strata ?(naive = false) ?stats ?obs ?parent st ~max_rounds ~budget
    ~t_start ~round0 ~note ~opening strata =
  (* a disabled (noop) sink disables collection outright: the hot path
     pays one branch, no clock reads, no accumulator updates *)
  let collect =
    match stats with
    | Some sink -> Ekg_obs.Metrics.enabled sink
    | None -> false
  in
  let budget_active =
    Option.is_some budget.deadline_s
    || Option.is_some budget.budget_rounds
    || Option.is_some budget.budget_facts
    || Option.is_some budget.cancel
  in
  let total_rounds = ref 0 in
  let overflow = ref false in
  let full_passes = ref 0 in
  let plan_reorders = ref 0 in
  let stratum_rounds = Array.make (max 1 (List.length strata)) 0 in
  let g = guard budget in
  let interrupt = interrupt g in
  let accs = ref [] in       (* rule_acc, reverse creation order *)
  let round_log = ref [] in  (* round_stat, reverse execution order *)
  let join_builds = ref 0 in
  let join_probe_hits = ref 0 in
  let clock () = if collect then Ekg_obs.Clock.now_s () else 0. in
  let run_stratum si rules =
    let o = opening rules in
    let with_acc rs =
      List.map
        (fun (r : Rule.t) ->
          let a =
            {
              acc_rule = r.id;
              acc_stratum = si;
              acc_time = 0.;
              acc_evals = 0;
              acc_facts = 0;
              acc_build = 0.;
              acc_probe = 0.;
              acc_insert = 0.;
            }
          in
          if collect then accs := a :: !accs;
          (r, a))
        rs
    in
    let plain = with_acc (List.filter (fun r -> not (Rule.has_agg r)) rules) in
    (* per aggregate rule: the log position at its last evaluation *)
    let agg =
      List.map (fun (r, acc) -> (r, (acc, ref 0))) (with_acc (List.filter Rule.has_agg rules))
    in
    List.iteri (fun i ((r : Rule.t), _) -> Hashtbl.replace st.phase r.id (i + 1)) agg;
    (* one evaluation of a rule: its index-build, match and insert
       seconds and the facts it activated *)
    let charge a ~build ~probe ~insert nfacts =
      if collect then begin
        a.acc_time <- a.acc_time +. build +. probe +. insert;
        a.acc_evals <- a.acc_evals + 1;
        a.acc_facts <- a.acc_facts + nfacts;
        a.acc_build <- a.acc_build +. build;
        a.acc_probe <- a.acc_probe +. probe;
        a.acc_insert <- a.acc_insert +. insert
      end
    in
    (* the delta carries its length, so per-round stats are O(1)
       instead of a [List.length] walk over the whole delta every
       round *)
    let delta = ref (o.delta, List.length o.delta) in
    let first = ref true in
    (* a round has work: a delta, its opening's passes, or facts logged
       since an aggregate rule last ran *)
    let due () =
      fst !delta <> []
      || (!first && (o.full <> [] || o.probed <> []))
      || List.exists (fun (_, (_, cursor)) -> !cursor < Paged.length st.log) agg
    in
    let continue = ref true in
    while !continue && (not !overflow) && g.stopped = None do
      if
        budget_active
        && over_budget g ~derived:(st.derived + st.revived) ~rounds:!total_rounds
      then ()
      else if not (due ()) then continue := false
      else begin
        incr total_rounds;
        if !total_rounds > max_rounds then overflow := true
        else begin
          try
            stratum_rounds.(si) <- stratum_rounds.(si) + 1;
            let round = round0 + !total_rounds in
            let round_t0 = clock () in
            let full r = naive || (!first && List.memq r o.full) in
            let probe r = !first && List.memq r o.probed in
            let delta_ids, delta_size = !delta in
            let delta_filter =
              if naive || delta_ids = [] then None else Some (Matcher.delta st.db delta_ids)
            in
            let card = Database.pred_card st.db in
            let planned rs =
              List.map
                (fun (r, x) ->
                  let plan = Plan.compile ~card r in
                  if plan.Plan.reordered then incr plan_reorders;
                  (r, x, plan))
                rs
            in
            let plain = planned plain in
            let agg = planned agg in
            let matched =
              List.map
                (fun (r, acc, plan) ->
                  let t0 = clock () in
                  if full r || probe r || Option.is_some delta_filter then begin
                    let bound = if probe r then Some (Matcher.head_bound_vars r) else None in
                    let delta = if full r then None else delta_filter in
                    let n = Matcher.prepare ?bound ?delta st.db r plan in
                    if collect then join_builds := !join_builds + n
                  end;
                  let t1 = clock () in
                  if collect then acc.acc_build <- acc.acc_build +. (t1 -. t0);
                  let matches =
                    if full r then begin
                      incr full_passes;
                      Matcher.match_rule ?interrupt ~plan st.db r
                    end
                    else
                      let seeded =
                        match delta_filter with
                        | Some d -> Matcher.match_rule ?interrupt ~delta:d ~plan st.db r
                        | None -> []
                      in
                      if probe r then
                        seeded
                        @ Matcher.head_probe_matches ?interrupt ~plan ?delta:delta_filter
                            ~heads:o.lost st.db r
                      else seeded
                  in
                  (r, acc, matches, clock () -. t1))
                plain
            in
            let added = ref [] in
            let added_count = ref 0 in
            List.iter
              (fun (r, acc, matches, match_time) ->
                let t0 = clock () in
                let out = insert_plain_matches st ~round ~note r matches in
                let dt = clock () -. t0 in
                let n = List.length out in
                charge acc ~build:0. ~probe:match_time ~insert:dt n;
                if collect then join_probe_hits := !join_probe_hits + List.length matches;
                (* every id an insertion returns is a derived fact it
                   activated *)
                st.active_derived <- st.active_derived + n;
                added_count := !added_count + n;
                added := List.rev_append out !added)
              matched;
            (* aggregate rules see the round's plain insertions.  A
               [full] one groups one full pass; the others re-aggregate
               only the groups the facts logged since the rule's
               previous evaluation touched.  Every other group would
               reproduce its current fact, so the outcome — ids,
               provenance, supersessions — is that of regrouping every
               group every round *)
            List.iter
              (fun (r, (acc, cursor), plan) ->
                let regroup = full r in
                let changed = if regroup then [] else log_since st !cursor in
                cursor := Paged.length st.log;
                if regroup || changed <> [] then begin
                  let changed = if regroup then None else Some changed in
                  let t0 = clock () in
                  let builds = Matcher.prepare ?changed st.db r plan in
                  let t1 = clock () in
                  let groups =
                    match reaggregate st ?interrupt ~plan ?changed r with
                    | None -> []
                    | Some (covered, groups) ->
                      if st.lookup_groups && stale_group st r ~covered groups then
                        raise Regressed;
                      (* a re-aggregated group's value may have moved
                         where no fact did *)
                      note (`Changed (Rule.head_pred r));
                      groups
                  in
                  let t2 = clock () in
                  let out = insert_agg_groups st ~round ~note r groups in
                  let t3 = clock () in
                  let n = List.length out in
                  charge acc ~build:(t1 -. t0) ~probe:(t2 -. t1) ~insert:(t3 -. t2) n;
                  if collect then join_builds := !join_builds + builds;
                  st.active_derived <- st.active_derived + n;
                  added_count := !added_count + n;
                  added := List.rev_append out !added
                end)
              agg;
            if collect then
              round_log :=
                {
                  stratum = si;
                  round;
                  delta_size;
                  new_facts = !added_count;
                  time_s = Ekg_obs.Clock.now_s () -. round_t0;
                }
                :: !round_log;
            first := false;
            if !added_count = 0 then continue := false
            else delta := (!added, !added_count)
          with Matcher.Interrupted ->
            (* tripped mid-match: the guard has stopped, the round's
               partial matches are discarded (nothing was inserted for
               them), and the loop exits above *)
            ()
        end
      end
    done
  in
  List.iteri
    (fun si rules ->
      if g.stopped = None then
        Ekg_obs.Trace.with_span_opt obs ?parent
          ~labels:[ ("stratum", string_of_int si) ]
          "chase.stratum"
          (fun span ->
            run_stratum si rules;
            Option.iter
              (fun sp -> Ekg_obs.Trace.label sp "rounds" (string_of_int stratum_rounds.(si)))
              span))
    strata;
  let stratum_rounds = Array.to_list (Array.sub stratum_rounds 0 (List.length strata)) in
  finish g ~t_start ~rounds:!total_rounds ~derived:(st.derived + st.revived) ~max_rounds
    ~overflow:!overflow ~stratum_rounds st.db st.prov (fun () ->
      let run_stats =
        if not collect then None
        else begin
          let per_rule =
            List.rev_map
              (fun a ->
                {
                  rule_id = a.acc_rule;
                  stratum = a.acc_stratum;
                  time_s = a.acc_time;
                  evals = a.acc_evals;
                  facts = a.acc_facts;
                  build_s = a.acc_build;
                  probe_s = a.acc_probe;
                  insert_s = a.acc_insert;
                })
              !accs
          in
          Some
            {
              per_rule;
              per_round = List.rev !round_log;
              rounds_per_stratum = stratum_rounds;
              agg_superseded = st.superseded;
              wall_s = Ekg_obs.Clock.now_s () -. t_start;
              plan_reorders = !plan_reorders;
              join_builds = !join_builds;
              join_probe_hits = !join_probe_hits;
            }
        end
      in
      (match stats, run_stats with
      | Some sink, Some s -> push_stats sink ~rounds:!total_rounds ~derived:st.derived s
      | _ -> ());
      { run_rounds = !total_rounds; run_full_passes = !full_passes; run_stats })

let run_checked ?naive ?(max_rounds = 100_000) ?(budget = unlimited) ?stats ?obs ?parent
    (program : Program.t) edb =
  match Program.validate program with
  | Error es -> Error (Invalid_program es)
  | Ok () -> (
    match Stratify.strata program with
    | Error e -> Error (Unstratifiable e)
    | Ok strata -> (
      let t_start = Ekg_obs.Clock.now_s () in
      let st = make_state (Database.create ()) (Provenance.create ()) in
      let edb_error = ref None in
      List.iter
        (fun a ->
          match Database.add_atom st.db a with
          | Ok _ -> ()
          | Error e -> if !edb_error = None then edb_error := Some e)
        edb;
      match !edb_error with
      | Some e -> Error (Invalid_edb e)
      | None -> (
        match
          chase_strata ?naive ?stats ?obs ?parent st ~max_rounds ~budget ~t_start
            ~round0:0 ~note:ignore
            ~opening:(fun rules -> { delta = []; full = rules; probed = []; lost = [] })
            strata
        with
        | Error e -> Error e
        | Ok run ->
          Ok
            {
              db = st.db;
              prov = st.prov;
              rounds = run.run_rounds;
              derived_count = st.active_derived;
              stats = run.run_stats;
            })))

let run ?naive ?max_rounds ?budget ?stats ?obs ?parent program edb =
  match run_checked ?naive ?max_rounds ?budget ?stats ?obs ?parent program edb with
  | Ok r -> Ok r
  | Error e -> Error (error_to_string e)

let run_exn ?naive ?max_rounds ?budget ?stats ?obs ?parent program edb =
  match run ?naive ?max_rounds ?budget ?stats ?obs ?parent program edb with
  | Ok r -> r
  | Error e -> failwith ("Chase.run: " ^ e)

(* --- incremental maintenance ------------------------------------------------

   An update runs the cold chase's round loop from an opening of its
   own.  Additions are the first round's delta; retractions run DRed
   over the provenance DAG: over-delete the cone of consequences
   reachable from a retracted fact, then re-derive whatever still has an
   alternative proof by probing the rules deriving the deleted facts
   with their heads bound to those facts' values (a full evaluation
   where no probe can stand in for it: see [opening] in
   [apply_incremental]).  Stratified negation is handled per stratum:
   once a negated predicate has changed, the negating rule's previous
   conclusions are over-deleted and the rule re-evaluates in full, so
   deletions can enable later-stratum facts and additions can disable
   them.  Aggregate rules re-aggregate the groups that facts activated
   or deactivated during the update touch (see chase.mli).  Programs
   outside {!incrementable}'s fragment fall back to a full re-chase. *)

type update = {
  upd_incremental : bool;
  upd_rounds : int;
  upd_added : int;
  upd_retracted : int;
  upd_rederived : int;
  upd_changed_preds : string list;
  upd_overdeleted : int;
  upd_full_passes : int;
  upd_cone_ms : float;
  upd_rounds_ms : float;
}

(* 2: aggregate inputs fold in ascending order; 3: a cold chase
   reactivates a superseded aggregate tuple a plain rule derives; 4:
   [derived_count] counts the active derived facts *)
let revision = 4

(* An update maintains an aggregate group by re-aggregating it, which
   moves the group's value and supersedes its fact but never withdraws
   what an old value derived.  That matches a cold chase when nothing
   derived depends on the value having stopped short: the aggregate
   moves one way as contributors join (up for sum, count and max, down
   for min), every condition over it stays true once true, and a value
   written to the head is read only where the current value derives
   what the superseded one did.  Sums assume non-negative inputs; an
   update that meets a group this breaks re-chases ({!stale_group}). *)

let direction (a : Rule.aggregation) =
  match a.Rule.func with
  | Rule.Sum | Rule.Count | Rule.Max -> Some `Up
  | Rule.Min -> Some `Down
  | Rule.Prod -> None

(* [R > e] or [R >= e] for an upward aggregate, [R < e] or [R <= e] for
   a downward one, either way round, [e] free of [R] *)
let stays_true dir result (c : Expr.cmp) =
  let is_result e = e = Expr.var result in
  let free e = not (List.mem result (Expr.vars e)) in
  let op =
    if is_result c.Expr.lhs && free c.Expr.rhs then Some c.Expr.op
    else if is_result c.Expr.rhs && free c.Expr.lhs then
      Some
        (match c.Expr.op with
        | Expr.Lt -> Expr.Gt
        | Expr.Le -> Expr.Ge
        | Expr.Gt -> Expr.Lt
        | Expr.Ge -> Expr.Le
        | (Expr.Eq | Expr.Ne) as op -> op)
    else None
  in
  match dir, op with
  | `Up, Some (Expr.Gt | Expr.Ge) | `Down, Some (Expr.Lt | Expr.Le) -> true
  | _, _ -> false

(* Whether [reader] uses the aggregate value at position [pos] of its
   body atom [a] only where the current value derives what a superseded
   one did: the variable there occurs nowhere else, or else only as the
   whole input of a sum or max over an upward value, a min over a
   downward one. *)
let reads_current dir (reader : Rule.t) (a : Atom.t) pos =
  match List.nth a.Atom.args pos with
  | Term.Cst _ -> false
  | Term.Var v ->
    let in_body =
      List.fold_left
        (fun n lit ->
          match lit with
          | Rule.Pos b | Rule.Not b ->
            n + List.length (List.filter (( = ) (Term.Var v)) b.Atom.args))
        0 reader.Rule.body
    in
    in_body = 1
    && (not (List.exists (fun c -> List.mem v (Expr.cmp_vars c)) reader.conditions))
    && (not
          (List.exists
             (fun (x, e) -> x = v || List.mem v (Expr.vars e))
             reader.assignments))
    && (not (List.mem v (Atom.vars reader.head)))
    &&
    match reader.agg with
    | Some agg when List.mem v (Expr.vars agg.input) -> (
      agg.input = Expr.var v
      &&
      match agg.func, dir with
      | (Rule.Sum | Rule.Max), `Up | Rule.Min, `Down -> true
      | _, _ -> false)
    | Some _ | None -> true

let maintainable (program : Program.t) (r : Rule.t) =
  match r.agg with
  | None -> true
  | Some agg -> (
    match direction agg with
    | None -> false
    | Some dir ->
      let mentions vars = List.mem agg.result vars in
      List.for_all
        (fun c -> (not (mentions (Expr.cmp_vars c))) || stays_true dir agg.result c)
        r.conditions
      && (not (List.exists (fun (_, e) -> mentions (Expr.vars e)) r.assignments))
      &&
      let arity = List.length r.head.Atom.args in
      List.for_all
        (fun (reader : Rule.t) ->
          List.for_all
            (fun lit ->
              match lit with
              | Rule.Pos b | Rule.Not b ->
                b.Atom.pred <> Rule.head_pred r
                || List.length b.Atom.args <> arity
                || List.for_all
                     (fun (pos, t) ->
                       t <> Term.Var agg.result || reads_current dir reader b pos)
                     (List.mapi (fun pos t -> (pos, t)) r.head.Atom.args))
            reader.Rule.body)
        program.Program.rules)

let incrementable (program : Program.t) =
  List.for_all
    (fun r -> Rule.existential_vars r = [] && maintainable program r)
    program.Program.rules

let affected_preds (program : Program.t) seeds =
  let affected = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace affected p ()) seeds;
  let grew = ref true in
  while !grew do
    grew := false;
    List.iter
      (fun (r : Rule.t) ->
        if
          (not (Hashtbl.mem affected (Rule.head_pred r)))
          && List.exists (Hashtbl.mem affected) (Rule.body_preds r)
        then begin
          Hashtbl.replace affected (Rule.head_pred r) ();
          grew := true
        end)
      program.Program.rules
  done;
  Hashtbl.fold (fun p () acc -> p :: acc) affected [] |> List.sort String.compare

let edb_except (res : result) dropped =
  let acc = ref [] in
  for id = Database.size res.db - 1 downto 0 do
    if Database.is_active res.db id && Provenance.is_edb res.prov id && not (dropped id) then
      acc := Fact.atom (Database.fact res.db id) :: !acc
  done;
  !acc

let edb_atoms res = edb_except res (fun _ -> false)

let copy_result (res : result) =
  { res with db = Database.copy res.db; prov = Provenance.copy res.prov }

let ground_tuple (a : Atom.t) =
  if not (Atom.is_ground a) then Error (Invalid_edb ("non-ground fact: " ^ Atom.to_string a))
  else
    Ok
      (Array.of_list
         (List.map
            (function Term.Cst c -> c | Term.Var _ -> assert false)
            a.Atom.args))

let unknown_fact (program : Program.t) (a : Atom.t) =
  Unknown_fact
    ("fact not in the extensional database: " ^ Atom.to_string a
    ^
    if Program.is_intensional program a.Atom.pred then
      "; the rules derive " ^ a.Atom.pred ^ ", and only extensional facts can be retracted"
    else "")

(* Resolve retraction requests to fact ids, before any mutation: every
   named fact must be active extensional data. *)
let resolve_retractions program (res : result) atoms =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (a : Atom.t) :: rest -> (
      match ground_tuple a with
      | Error _ as e -> e
      | Ok tuple -> (
        match Database.find_exact res.db a.Atom.pred tuple with
        | Some f
          when Database.is_active res.db f.Fact.id && Provenance.is_edb res.prov f.Fact.id ->
          go (f.Fact.id :: acc) rest
        | Some _ | None -> Error (unknown_fact program a)))
  in
  go [] atoms

(* Full recompute: cold-chase [base] and report the update against
   [before], the active facts ahead of it. *)
let rechase ?max_rounds ?budget (program : Program.t) ~base ~before ~seeds =
  let t0 = Ekg_obs.Clock.now_s () in
  match run_checked ?max_rounds ?budget program base with
  | Error _ as e -> e
  | Ok fresh ->
    let rounds_ms = (Ekg_obs.Clock.now_s () -. t0) *. 1000. in
    (* observable diff for the update report: the facts active on both
       sides, found by the fresh database's own key lookup (predicate
       and argument values) — each side holds a fact at most once *)
    let kept =
      List.fold_left
        (fun n (f : Fact.t) ->
          match Database.find_exact fresh.db f.Fact.pred f.Fact.args with
          | Some g when Database.is_active fresh.db g.Fact.id -> n + 1
          | Some _ | None -> n)
        0 before
    in
    Ok
      ( fresh,
        {
          upd_incremental = false;
          upd_rounds = fresh.rounds;
          upd_added = Database.active_size fresh.db - kept;
          upd_retracted = List.length before - kept;
          upd_rederived = 0;
          upd_changed_preds = affected_preds program seeds;
          upd_overdeleted = 0;
          (* the cold chase's first round of every stratum *)
          upd_full_passes =
            List.length (List.filter (fun r -> not (Rule.has_agg r)) program.Program.rules);
          upd_cone_ms = 0.;
          upd_rounds_ms = rounds_ms;
        } )

let seed_preds (res : result) ~adds ~retract_ids =
  List.sort_uniq String.compare
    (List.map (fun (a : Atom.t) -> a.Atom.pred) adds
    @ List.map (Database.pred_of_fact res.db) retract_ids)

(* Full-recompute fallback: rebuild the fact base and cold-chase it.
   Non-destructive — the input result is left untouched. *)
let rebuild ?max_rounds ?budget (program : Program.t) (res : result)
    ~adds ~retract_ids =
  rechase ?max_rounds ?budget program
    ~base:(edb_except res (fun id -> List.mem id retract_ids) @ adds)
    ~before:(Database.active_all res.db)
    ~seeds:(seed_preds res ~adds ~retract_ids)

(* The incremental pass proper (no existentials). *)
let apply_incremental ?(max_rounds = 100_000) ?(budget = unlimited) program (res : result)
    ~adds ~add_tuples ~retract_ids strata =
  let db = res.db and prov = res.prov in
  let st = make_state ~lookup_groups:true ~active_derived:res.derived_count db prov in
  let size_before = Database.size db in
  (* the active facts before the update: the log holds one entry per
     change, so a fact logged an odd number of times has flipped *)
  let active_before () =
    let flipped = Hashtbl.create 64 in
    for i = 0 to Paged.length st.log - 1 do
      let id = Paged.get_int st.log i in
      if Hashtbl.mem flipped id then Hashtbl.remove flipped id
      else Hashtbl.replace flipped id ()
    done;
    let acc = ref [] in
    for id = size_before - 1 downto 0 do
      if Database.is_active db id <> Hashtbl.mem flipped id then
        acc := Database.fact db id :: !acc
    done;
    !acc
  in
  let t_start = Ekg_obs.Clock.now_s () in
  let deleted = Hashtbl.create 32 in      (* over-deleted, not yet restored *)
  let deleted_preds = Hashtbl.create 8 in
  let changed_preds = Hashtbl.create 8 in
  let retracted_total = ref 0 in
  let overdeleted = ref 0 in
  let rederived = ref 0 in
  let added = ref 0 in
  (* DRed over-deletion: everything reachable from the roots through
     any recorded derivation loses its support.  The cone runs through
     superseded aggregates too: they stay in the chase graph and facts
     derived from them keep citing them, so one whose support goes
     takes its consumers with it.  The edges are the provenance's own
     premise -> consumers index, built on the first deletion and kept
     current since: an edge whose consumer no longer cites the premise
     (its derivations were forgotten, say by an assertion making it
     extensional) is not followed. *)
  let cone_s = ref 0. in
  let delete_cone roots =
    let t0 = Ekg_obs.Clock.now_s () in
    let queue = Queue.create () in
    let visited = Hashtbl.create 32 in
    let mark id =
      if
        (not (Hashtbl.mem visited id))
        && (Database.is_active db id || Provenance.superseded_by prov id <> None)
      then begin
        Hashtbl.replace visited id ();
        Queue.push id queue
      end
    in
    List.iter mark roots;
    while not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      if Database.is_active db id then begin
        if not (Provenance.is_edb prov id) then
          st.active_derived <- st.active_derived - 1;
        Database.deactivate db id;
        Paged.push_int st.log id;
        Hashtbl.replace deleted id ();
        incr retracted_total;
        incr overdeleted;
        let pred = Database.pred_of_fact db id in
        Hashtbl.replace deleted_preds pred ();
        Hashtbl.replace changed_preds pred ()
      end;
      if not (Provenance.is_edb prov id) then Provenance.forget prov id;
      Provenance.consumers prov id mark
    done;
    cone_s := !cone_s +. (Ekg_obs.Clock.now_s () -. t0)
  in
  delete_cone retract_ids;
  (* retraction seeds are gone for good: even if a rule re-derives the
     same tuple, the tuple becomes a derived fact, not extensional *)
  List.iter (fun id -> Hashtbl.remove deleted id) retract_ids;
  let newly_active = ref [] in  (* delta seeds for strata not yet evaluated *)
  let note : event -> unit = function
    | `Added (pred, id) ->
      incr added;
      Hashtbl.replace changed_preds pred ();
      newly_active := id :: !newly_active
    | `Reactivated (pred, id) ->
      Hashtbl.replace changed_preds pred ();
      if Hashtbl.mem deleted id then begin
        (* an over-deleted fact restored by a surviving proof *)
        Hashtbl.remove deleted id;
        incr rederived
      end
      else incr added;
      newly_active := id :: !newly_active
    | `Superseded (pred, id) ->
      Hashtbl.replace deleted id ();
      incr retracted_total;
      Hashtbl.replace changed_preds pred ()
    | `Changed p -> Hashtbl.replace changed_preds p ()
  in
  List.iter2
    (fun (a : Atom.t) tuple ->
      let pred = a.Atom.pred in
      match Database.add db pred tuple with
      | `Added id ->
        Paged.push_int st.log id;
        note (`Added (pred, id))
      | `Existing id ->
        if not (Database.is_active db id) then begin
          (* resurrect a previously retracted or over-deleted tuple as
             extensional data, under its original id *)
          Provenance.forget prov id;
          Database.reactivate db id;
          Paged.push_int st.log id;
          note (`Added (pred, id))
        end
        else if not (Provenance.is_edb prov id) then begin
          (* an active derived fact asserted extensionally: a cold chase
             on the new base records no derivation for it *)
          Provenance.forget prov id;
          st.active_derived <- st.active_derived - 1;
          note (`Changed pred)
        end)
    adds add_tuples;
  let opening rules =
    (* rules whose negated premises changed: their old conclusions are
       unsupported until proven otherwise *)
    let neg_affected =
      List.filter
        (fun (r : Rule.t) ->
          List.exists
            (fun (a : Atom.t) -> Hashtbl.mem changed_preds a.Atom.pred)
            (Rule.negative_atoms r))
        rules
    in
    if neg_affected <> [] then
      delete_cone
        (List.concat_map
           (fun (r : Rule.t) ->
             List.filter_map
               (fun (f : Fact.t) -> if derived_by st r f.Fact.id then Some f.Fact.id else None)
               (Database.active db (Rule.head_pred r)))
           neg_affected);
    (* plain rules the stratum's first round re-evaluates beyond the
       delta: negation-affected ones, whose conclusions all fell, and
       every rule that could supply an alternative proof for an
       over-deleted fact.  The latter probe their join once per
       distinct head key of the facts still lost (retraction roots
       included: a rule may derive what is no longer extensional),
       which yields every match the full pass would hand back for them;
       the rest of the full pass only re-finds conclusions that never
       fell.  The full pass remains where no probe can stand in for it:
       negation-affected rules, and rules whose head variables no
       positive atom binds. *)
    let rederiving =
      List.filter
        (fun (r : Rule.t) ->
          (not (Rule.has_agg r))
          && (Hashtbl.mem deleted_preds (Rule.head_pred r) || List.memq r neg_affected))
        rules
    in
    let probed, full =
      List.partition
        (fun (r : Rule.t) ->
          (not (List.memq r neg_affected)) && Matcher.head_bound_vars r <> [])
        rederiving
    in
    let lost =
      if probed = [] then []
      else
        Hashtbl.fold (fun id () acc -> id :: acc) deleted retract_ids
        |> List.filter (fun id -> not (Database.is_active db id))
        |> List.sort_uniq Int.compare
        |> List.map (Database.fact db)
    in
    {
      delta = List.filter (Database.is_active db) !newly_active;
      (* a negation-affected aggregate rule regroups every group *)
      full = full @ List.filter Rule.has_agg neg_affected;
      probed;
      lost;
    }
  in
  let rounds_t0 = Ekg_obs.Clock.now_s () and cone_before = !cone_s in
  match
    chase_strata st ~max_rounds ~budget ~t_start ~round0:res.rounds ~note
      ~opening strata
  with
  | exception Regressed ->
    (* the pass met a group it cannot maintain in place: finish with a
       re-chase of the updated base, which the mutated result holds by
       now *)
    rechase ~max_rounds ~budget program ~base:(edb_atoms res) ~before:(active_before ())
      ~seeds:(seed_preds res ~adds ~retract_ids)
  | Error e -> Error e
  | Ok run ->
    (* the negation cones ran inside the rounds, from the openings *)
    let rounds_s = Ekg_obs.Clock.now_s () -. rounds_t0 -. (!cone_s -. cone_before) in
    let changed =
      Hashtbl.fold (fun p () acc -> p :: acc) changed_preds [] |> List.sort String.compare
    in
    let updated =
      ( {
          db;
          prov;
          rounds = res.rounds + run.run_rounds;
          derived_count = st.active_derived;
          stats = None;
        },
        {
          upd_incremental = true;
          upd_rounds = run.run_rounds;
          upd_added = !added;
          upd_retracted = !retracted_total - !rederived;
          upd_rederived = !rederived;
          upd_changed_preds = changed;
          upd_overdeleted = !overdeleted;
          upd_full_passes = run.run_full_passes;
          upd_cone_ms = !cone_s *. 1000.;
          upd_rounds_ms = rounds_s *. 1000.;
        } )
    in
    (* The maintained result outlives the call, and the pages its
       writes copied are allocated all along the update — the last of
       them are still in the minor heap even when a collection ran
       midway: promote them now, so the update pays for its own result
       instead of the next allocating request. *)
    Gc.minor ();
    Ok updated

let apply_update ?max_rounds ?budget program res ~adds ~retracts =
  (* all validation happens before any mutation *)
  let rec tuples acc = function
    | [] -> Ok (List.rev acc)
    | a :: rest -> (
      match ground_tuple a with
      | Error _ as e -> e
      | Ok t -> tuples (t :: acc) rest)
  in
  match tuples [] adds with
  | Error e -> Error e
  | Ok add_tuples -> (
    match resolve_retractions program res retracts with
    | Error e -> Error e
    | Ok retract_ids -> (
      if not (incrementable program) then
        rebuild ?max_rounds ?budget program res ~adds ~retract_ids
      else
        match Stratify.strata program with
        | Error e -> Error (Unstratifiable e)
        | Ok strata ->
          apply_incremental ?max_rounds ?budget program res ~adds ~add_tuples ~retract_ids
            strata))

let add_facts ?max_rounds ?budget program res atoms =
  apply_update ?max_rounds ?budget program res ~adds:atoms ~retracts:[]

let retract_facts ?max_rounds ?budget program res atoms =
  apply_update ?max_rounds ?budget program res ~adds:[] ~retracts:atoms
