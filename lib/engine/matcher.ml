open Ekg_kernel
open Ekg_datalog

type match_result = {
  binding : Subst.t;
  used_facts : int list;
}

type agg_result = {
  group_binding : Subst.t;
  value : Value.t;
  contributors : Provenance.contributor list;
}

exception Interrupted

(* A round's delta: membership for the semi-naive partition, and each
   predicate symbol's delta facts in ascending id order, from which a
   seed pass takes its rows. *)
type delta = {
  mem : int -> bool;
  by_sym : (int, int list) Hashtbl.t;
}

let delta db ids =
  let set = Hashtbl.create (max 8 (List.length ids)) in
  let acc = Hashtbl.create 8 in
  List.iter
    (fun id ->
      if not (Hashtbl.mem set id) then begin
        Hashtbl.replace set id ();
        let sym = Database.pred_sym_of_fact db id in
        Hashtbl.replace acc sym (id :: Option.value ~default:[] (Hashtbl.find_opt acc sym))
      end)
    ids;
  let by_sym = Hashtbl.create (Hashtbl.length acc) in
  Hashtbl.iter
    (fun sym l -> Hashtbl.replace by_sym sym (List.sort Int.compare l))
    acc;
  { mem = Hashtbl.mem set; by_sym }

(* --- hash-join evaluation ----------------------------------------------------

   Build/probe evaluation over the database's columnar storage: the
   planner's atom order is a left-deep pipelined join, and at each join
   position the matcher probes a multi-column hash index on the key
   columns bound so far ({!Plan.key_masks}) instead of scanning the
   group.  Bindings live in a dense int array of interned value
   ids; [Subst.t] is only materialized per {e emitted} match, each
   variable bound to its id's class representative, so θ does not
   depend on which fact bound a variable.

   The enumeration visits candidate rows in ascending row order (index
   chains are ascending, scans are ascending), which is ascending fact-id
   order within each join position, so the match sequence — and with it
   fact ids, labelled nulls and provenance — is a function of the
   database and the plan: the matches ordered by their fact-id tuples
   in plan order. *)

type arg_spec =
  | SConst of int  (* interned value id; -1 when the value is not in the db *)
  | SVar of int    (* dense binding slot *)

type node = {
  nd_atom : Atom.t;
  nd_sym : int;     (* -1 when the predicate has no facts *)
  nd_arity : int;
  nd_group : Database.Cols.group option;
  nd_specs : arg_spec array;
  nd_mask : int;         (* key columns: Plan.key_masks for this position *)
  nd_keycols : int array;
  nd_impossible : bool;  (* a constant argument's value is not in the db *)
}

let cols_of_mask arity mask =
  let cols = ref [] in
  for i = min 59 (arity - 1) downto 0 do
    if mask land (1 lsl i) <> 0 then cols := i :: !cols
  done;
  Array.of_list !cols

let plan_order ?plan (r : Rule.t) =
  match plan with
  | Some (p : Plan.t) -> p.Plan.order
  | None -> Array.init (List.length (Rule.positive_atoms r)) Fun.id

(* Compile the rule body to per-position probe specs.  [slots] maps
   variable names to dense binding slots; key masks come from the
   planner so build/probe columns and index preparation agree.
   Variables in [bound] are bound before the join starts.  They become
   key columns only where the plan would otherwise scan: a position
   that already probes keeps its index (and checks the pre-bound value
   per candidate row), so a group probe needs at most the index of its
   first position beyond what the full pass uses. *)
let compile_nodes ?bound db (r : Rule.t) order =
  let positives = Array.of_list (Rule.positive_atoms r) in
  let plan = { Plan.order; reordered = false } in
  let masks = Plan.key_masks r plan in
  let masks =
    match bound with
    | None | Some [] -> masks
    | Some bound ->
      Array.map2
        (fun m mb -> if m = 0 then mb else m)
        masks (Plan.key_masks ~bound r plan)
  in
  let slots = Hashtbl.create 16 in
  let slot v =
    match Hashtbl.find_opt slots v with
    | Some s -> s
    | None ->
      let s = Hashtbl.length slots in
      Hashtbl.add slots v s;
      s
  in
  let nodes =
    Array.mapi
      (fun pos body_idx ->
        let a = positives.(body_idx) in
        let specs =
          Array.of_list
            (List.map
               (function
                 | Term.Cst c -> SConst (Database.value_id db c)
                 | Term.Var v -> SVar (slot v))
               a.Atom.args)
        in
        let arity = Array.length specs in
        let sym =
          match Database.pred_sym db a.Atom.pred with Some s -> s | None -> -1
        in
        let group =
          if sym < 0 then None else Database.Cols.find db ~sym ~arity
        in
        {
          nd_atom = a;
          nd_sym = sym;
          nd_arity = arity;
          nd_group = group;
          nd_specs = specs;
          nd_mask = masks.(pos);
          nd_keycols = cols_of_mask arity masks.(pos);
          nd_impossible =
            Array.exists (function SConst -1 -> true | _ -> false) specs;
        })
      order
  in
  (nodes, Hashtbl.length slots, slots)

(* A join compiled once, run any number of times: [run ?seed_rows vids
   emit] enumerates the body in plan order and hands [emit] each match
   with its facts by body atom (an array [emit] must copy to keep).
   Negation and conditions are checked as soon as they can prune, and
   [used_facts] comes back in body order regardless of the plan, so
   provenance premises are plan-independent.  [interrupt] is polled
   once per join node; answering [true] aborts the run with
   {!Interrupted}, the cooperative-cancellation point that keeps a
   pathological join from running past its budget.

   [seed = (d, excluded)] keeps [d]'s facts out of the body atoms
   [excluded] holds for: with [seed_rows] from [d], one semi-naive
   pass.  Three more hooks.  [bound] names variables pre-bound before the
   join, each run binding them to the interned ids [vids] — a group or
   head-key probe, the key substituted in as hash-key constants.
   [seed_rows] replaces position 0's candidates with the given rows
   (ascending), and [admit] lets inactive facts it accepts join anyway
   — touched-group discovery, which must also see the contributors a
   group just lost. *)
let compile_join ?interrupt ?plan ?seed ?(bound = [])
    ?(admit = fun _ -> false) db (r : Rule.t) =
  let order = plan_order ?plan r in
  let n = Array.length order in
  let nodes, nslots, slots = compile_nodes ~bound db r order in
  (* resolve each node's index handle once — rows cannot be appended
     during a match phase, so freshness checked here holds throughout *)
  let handles =
    Array.map
      (fun nd ->
        match nd.nd_group with
        | Some g when nd.nd_mask <> 0 -> Database.index_handle g ~mask:nd.nd_mask
        | _ -> None)
      nodes
  in
  let negatives = Rule.negative_atoms r in
  (* no deactivations can happen during a pure-read match phase *)
  let live_all = Database.all_active db in
  let mem, excluded =
    match seed with
    | Some (d, excluded) -> (d.mem, Array.map excluded order)
    | None -> ((fun _ -> false), Array.make n false)
  in
  let vals = Array.make (max 1 nslots) (-1) in
  let bound_slots = Array.of_list (List.map (Hashtbl.find_opt slots) bound) in
  let facts = Array.make (max 1 n) (-1) in  (* by body atom *)
  (* condition lookup over the dense binding: verdicts only — values
     compare through [Value.compare], which identifies every member of
     an interning class, so the class representative is sufficient *)
  let lookup name =
    match Hashtbl.find_opt slots name with
    | Some s when vals.(s) >= 0 -> Some (Database.value_of_id db vals.(s))
    | Some _ | None -> None
  in
  let conditions_ok () =
    List.for_all (fun c -> Expr.eval_cmp lookup c <> Some false) r.conditions
  in
  let check =
    match interrupt with
    | None -> None
    | Some f -> Some (fun () -> if f () then raise Interrupted)
  in
  let has_conditions = r.conditions <> [] in
  (* the variable of each slot: every slot is bound when a match is
     emitted *)
  let slot_vars = Array.make nslots "" in
  Hashtbl.iter (fun v s -> slot_vars.(s) <- v) slots;
  let undos = Array.map (fun (nd : node) -> Array.make (max 1 nd.nd_arity) 0) nodes in
  (* the current run's seed rows and match sink *)
  let seed_rows = ref None and sink = ref (fun _ _ -> ()) in
  let emit () =
    let subst = ref Subst.empty in
    Array.iteri
      (fun s v -> subst := Subst.bind !subst v (Database.value_of_id db vals.(s)))
      slot_vars;
    let subst =
      if r.assignments = [] then !subst
      else
        List.fold_left
          (fun s (v, e) ->
            match Expr.eval (Subst.lookup s) e with
            | Some x -> Subst.bind s v x
            | None -> s)
          !subst r.assignments
    in
    let all_hold =
      r.conditions = []
      || List.for_all
           (fun c -> Expr.eval_cmp (Subst.lookup subst) c = Some true)
           r.conditions
    in
    if
      all_hold
      && (negatives = []
         || not
              (List.exists
                 (fun (a : Atom.t) ->
                   Database.exists_matching db (Subst.apply_atom subst a) subst)
                 negatives))
    then begin
      let used = ref [] in
      for b = n - 1 downto 0 do
        used := facts.(b) :: !used
      done;
      !sink facts { binding = subst; used_facts = !used }
    end
  in
  (* The join loop proper.  Everything per-partial is preallocated —
     per-position undo arrays, binding slots, fact cursors — so
     descending a node costs zero allocations; only emitted matches
     allocate.  Intermediate condition pruning is an optimization only
     ([emit] re-checks every condition), so guarding it on the rule
     having conditions at all cannot change the match sequence. *)
  let rec node pos =
    (match check with None -> () | Some c -> c ());
    if pos = n then emit ()
    else begin
      let nd = nodes.(pos) in
      if has_conditions && not (conditions_ok ()) then ()
      else if nd.nd_impossible then ()
      else
        match nd.nd_group, !seed_rows with
        | None, _ -> ()
        | Some g, Some rows when pos = 0 -> Array.iter (try_row pos nd g) rows
        | Some g, _ ->
          if nd.nd_mask = 0 then scan pos nd g
          else begin
            match handles.(pos) with
            | None -> scan pos nd g (* index missing/stale *)
            | Some ix ->
              (* fold the bound key columns into the probe hash *)
              let keycols = nd.nd_keycols in
              let specs = nd.nd_specs in
              let h = ref 0 in
              let valid = ref true in
              for j = 0 to Array.length keycols - 1 do
                let vid =
                  match specs.(keycols.(j)) with
                  | SConst v -> v
                  | SVar s -> vals.(s)
                in
                if vid < 0 then valid := false
                else h := Database.key_hash_add !h vid
              done;
              if not !valid then scan pos nd g
              else begin
                let row = ref (Database.probe_handle ix ~hash:!h) in
                while !row >= 0 do
                  try_row pos nd g !row;
                  row := Database.chain_next ix !row
                done
              end
          end
    end
  and scan pos nd g =
    for row = 0 to Database.Cols.rows g - 1 do
      try_row pos nd g row
    done
  and try_row pos (nd : node) g row =
    let fid = Database.Cols.fact_id g row in
    if
      ((not excluded.(pos)) || not (mem fid))
      && (live_all || Database.is_active db fid || admit fid)
    then begin
      let specs = nd.nd_specs in
      let arity = nd.nd_arity in
      let undo = undos.(pos) in
      let nundo = ref 0 in
      let ok = ref true in
      let i = ref 0 in
      while !ok && !i < arity do
        let vid = Database.Cols.col g !i row in
        (match specs.(!i) with
        | SConst c -> if c <> vid then ok := false
        | SVar s ->
          let cur = vals.(s) in
          if cur >= 0 then begin
            if cur <> vid then ok := false
          end
          else begin
            vals.(s) <- vid;
            undo.(!nundo) <- s;
            incr nundo
          end);
        incr i
      done;
      if !ok then begin
        facts.(order.(pos)) <- fid;
        node (pos + 1)
      end;
      for j = 0 to !nundo - 1 do
        vals.(undo.(j)) <- -1
      done
    end
  in
  fun ?seed_rows:rows vids f ->
    seed_rows := rows;
    sink := f;
    (* a pre-bound value absent from the db can match nothing *)
    let satisfiable = ref true in
    Array.iteri
      (fun i s ->
        match s with
        | Some s ->
          vals.(s) <- vids.(i);
          if vids.(i) < 0 then satisfiable := false
        | None -> ())
      bound_slots;
    if !satisfiable then node 0;
    Array.iter (function Some s -> vals.(s) <- -1 | None -> ()) bound_slots

(* the matches of one run, in enumeration order *)
let collect ?seed_rows ?(vids = [||]) run =
  let out = ref [] in
  run ?seed_rows vids (fun _ m -> out := m :: !out);
  List.rev !out

(* the row holding fact [fid] in its column group: rows are in
   ascending fact-id order *)
let row_of_fact g fid =
  let lo = ref 0 and hi = ref (Database.Cols.rows g) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Database.Cols.fact_id g mid < fid then lo := mid + 1 else hi := mid
  done;
  if !lo < Database.Cols.rows g && Database.Cols.fact_id g !lo = fid then Some !lo
  else None

(* The rows of atom [a]'s column group holding [ids] (ascending, the
   facts of [a]'s predicate), ascending. *)
let rows_of db (a : Atom.t) ids =
  match Database.pred_sym db a.Atom.pred with
  | None -> [||]
  | Some sym -> (
    match Database.Cols.find db ~sym ~arity:(List.length a.Atom.args) with
    | None -> [||]
    | Some g -> Array.of_list (List.filter_map (row_of_fact g) ids))

let delta_ids d db (a : Atom.t) =
  match Database.pred_sym db a.Atom.pred with
  | None -> []
  | Some sym -> Option.value ~default:[] (Hashtbl.find_opt d.by_sym sym)

(* A seed-first plan: atom [b] at join position 0, the rest greedily
   after it — deterministic in the database's cardinalities, so
   {!prepare} and the pass agree. *)
let seed_plan db r b = Plan.compile ~first:b ~card:(Database.pred_card db) r

let lex_compare (a : int array) (b : int array) =
  let n = Array.length a in
  let rec go i = if i = n then 0 else match Int.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c in
  go 0

(* Semi-naive evaluation: the union over k of joins whose k-th plan
   position joins a delta fact while earlier positions join non-delta
   facts — each new match is produced exactly once, seeded from the
   delta.  Pass k starts from the delta rows of its seed atom: pass 0
   under the round plan itself, so it enumerates in the round plan's
   order; a later pass under a seed-first plan, keeping the round
   plan's partition, its matches then sorted by their fact-id tuples in
   round-plan order — the order the round plan's enumeration of the
   pass has.  A pass whose seed atom has no delta
   fact is skipped. *)
let delta_matches ?interrupt ?plan d db (r : Rule.t) =
  let order = plan_order ?plan r in
  let positives = Array.of_list (Rule.positive_atoms r) in
  let rank = Array.make (Array.length order) 0 in
  Array.iteri (fun k b -> rank.(b) <- k) order;
  List.concat
    (List.init (Array.length order) (fun k ->
         let b = order.(k) in
         match rows_of db positives.(b) (delta_ids d db positives.(b)) with
         | [||] -> []
         | rows ->
           let seed = (d, fun b' -> rank.(b') < k) in
           if k = 0 then collect ~seed_rows:rows (compile_join ?interrupt ?plan ~seed db r)
           else begin
             let keyed = ref [] in
             let run =
               compile_join ?interrupt ~plan:(seed_plan db r b) ~seed db r
             in
             run ~seed_rows:rows [||] (fun facts m ->
                 keyed := (Array.map (fun b -> facts.(b)) order, m) :: !keyed);
             List.map snd (List.sort (fun (a, _) (b, _) -> lex_compare a b) !keyed)
           end))

let match_rule ?interrupt ?delta ?plan db (r : Rule.t) =
  if Rule.has_agg r then invalid_arg "Matcher.match_rule: aggregating rule";
  match delta with
  | None -> collect (compile_join ?interrupt ?plan db r)
  | Some d -> delta_matches ?interrupt ?plan d db r

(* --- aggregation ------------------------------------------------------- *)

module GroupKey = struct
  type t = Value.t list

  let compare = List.compare Value.compare
end

module GroupMap = Map.Make (GroupKey)
module GroupSet = Set.Make (GroupKey)

(* Inputs fold in ascending [Value.compare] order, so a group's value
   depends only on its contributor multiset: an incrementally
   maintained instance (other fact ids, other enumeration order) sums
   to the same float bits as a cold chase. *)
let aggregate (func : Rule.agg_func) values =
  match List.stable_sort Value.compare values with
  | [] -> None
  | v :: rest ->
    Some
      (match func with
      | Rule.Sum -> List.fold_left Value.add v rest
      | Rule.Prod -> List.fold_left Value.mul v rest
      | Rule.Min -> List.fold_left Value.min_v v rest
      | Rule.Max -> List.fold_left Value.max_v v rest
      | Rule.Count -> Value.int (1 + List.length rest))

(* An aggregating rule's body as a plain rule: conditions over the
   aggregate result hold only after grouping, so they are split off
   and deferred. *)
let agg_parts (r : Rule.t) =
  match r.agg with
  | None -> invalid_arg "Matcher: non-aggregating rule"
  | Some agg ->
    let deferred, immediate =
      List.partition (fun c -> List.mem agg.result (Expr.cmp_vars c)) r.conditions
    in
    (agg, { r with conditions = immediate; agg = None }, deferred)

let group_key group_vars binding =
  List.map
    (fun v -> match Subst.find binding v with Some x -> x | None -> Value.str "?")
    group_vars

(* Matches by group key, ascending; members keep enumeration order.
   Contributors need no deduplication: distinct matches use distinct
   fact tuples, so their bindings differ. *)
let group_matches group_vars matches =
  let groups =
    List.fold_left
      (fun acc m ->
        let key = group_key group_vars m.binding in
        let existing = match GroupMap.find_opt key acc with Some l -> l | None -> [] in
        GroupMap.add key (m :: existing) acc)
      GroupMap.empty matches
  in
  GroupMap.fold (fun key rev acc -> (key, List.rev rev) :: acc) groups []
  |> List.rev

(* Touched-group discovery joins each body atom's changed facts first,
   under its seed-first plan. *)
let touched_groups ?interrupt ~changed db (r : Rule.t) =
  let _, body, _ = agg_parts r in
  let group_vars = Rule.group_vars r in
  let d = delta db changed in
  let keys = ref GroupSet.empty in
  List.iteri
    (fun b (a : Atom.t) ->
      match rows_of db a (delta_ids d db a) with
      | [||] -> ()
      | rows ->
        let run = compile_join ?interrupt ~plan:(seed_plan db body b) ~admit:d.mem db body in
        run ~seed_rows:rows [||] (fun _ m ->
            keys := GroupSet.add (group_key group_vars m.binding) !keys))
    (Rule.positive_atoms body);
  GroupSet.elements !keys

(* Probes keyed on [vars], compiled once: [probe key] is the full pass
   under the same plan with [vars] bound to [key] — one group's
   matches, or (plain rule, head variables) one re-derivation key's —
   so they come out in the full pass's order, exactly the subsequence
   it would have produced for this key. *)
let key_probe ?interrupt ?plan db body vars =
  let run = compile_join ?interrupt ?plan ~bound:vars db body in
  fun key ->
    collect ~vids:(Array.of_list (List.map (Database.value_id db) key)) run
    |> List.filter (fun m -> GroupKey.compare (group_key vars m.binding) key = 0)

let match_agg_rule ?interrupt ?plan ?groups db (r : Rule.t) =
  let agg, body, deferred = agg_parts r in
  let group_vars = Rule.group_vars r in
  let grouped =
    match groups with
    | None -> group_matches group_vars (collect (compile_join ?interrupt ?plan db body))
    | Some keys ->
      let probe = key_probe ?interrupt ?plan db body group_vars in
      List.concat_map
        (fun key -> group_matches group_vars (probe key))
        (GroupSet.elements (GroupSet.of_list keys))
  in
  (* Variables bound to the same value by every contributor (such as
     the creditor's capital in the stress test's σ7) extend the group
     binding: deferred conditions and the head may mention them. *)
  let common_bindings members =
    match members with
    | [] -> Subst.empty
    | first :: rest ->
      List.fold_left
        (fun acc (v, x) ->
          if
            List.for_all
              (fun m ->
                match Subst.find m.binding v with
                | Some y -> Value.equal x y
                | None -> false)
              rest
          then Subst.bind acc v x
          else acc)
        Subst.empty
        (Subst.to_list first.binding)
  in
  List.filter_map
    (fun (key, members) ->
      let inputs =
        List.filter_map (fun m -> Expr.eval (Subst.lookup m.binding) agg.input) members
      in
      match aggregate agg.func inputs with
      | None -> None
      | Some value ->
        let group_binding =
          List.fold_left2
            (fun s v x -> Subst.bind s v x)
            (Subst.bind (common_bindings members) agg.result value)
            group_vars key
        in
        if
          List.for_all
            (fun c -> Expr.eval_cmp (Subst.lookup group_binding) c = Some true)
            deferred
        then
          Some
            {
              group_binding;
              value;
              contributors =
                List.map
                  (fun m -> { Provenance.facts = m.used_facts; binding = m.binding })
                  members;
            }
        else None)
    grouped

let head_bound_vars (r : Rule.t) =
  let body_vars = List.concat_map Atom.vars (Rule.positive_atoms r) in
  List.filter (fun v -> List.mem v body_vars) (Atom.vars r.head)

(* Re-derivation probes.  A match can derive a head fact only if the
   head variables its body binds take that fact's values, so the lost
   facts' distinct keys over those variables (distinct as interned ids,
   which identify numerically equal [Int]/[Num] values) cover every
   match the full pass would hand back for them, each probe in the
   full pass's order.  Matches using a delta fact are dropped — the
   round's delta passes produce them. *)
let head_probe_matches ?interrupt ?plan ?delta ~heads db (r : Rule.t) =
  let vars = head_bound_vars r in
  let pred = Rule.head_pred r and arity = List.length r.head.Atom.args in
  let seen = Hashtbl.create 16 in
  let keys =
    List.filter_map
      (fun (f : Fact.t) ->
        if f.Fact.pred <> pred || Array.length f.Fact.args <> arity then None
        else
          match Subst.match_atom Subst.empty ~pattern:r.head f.Fact.args with
          | None -> None (* clashes with a head constant or repeated variable *)
          | Some s ->
            let key = group_key vars s in
            let ids = List.map (Database.value_id db) key in
            if Hashtbl.mem seen ids then None
            else begin
              Hashtbl.add seen ids ();
              Some key
            end)
      heads
  in
  match keys with
  | [] -> []
  | keys ->
    let fresh =
      match delta with
      | None -> Fun.const true
      | Some d -> fun m -> not (List.exists d.mem m.used_facts)
    in
    let probe = key_probe ?interrupt ?plan db r vars in
    List.concat_map (fun key -> List.filter fresh (probe key)) keys

(* Plan-phase index preparation: ensure the hash indexes every join
   position will probe, so the pure-read match phase never builds.  For
   an aggregating rule, [changed] selects the pass
   about to run: absent, the full pass; present, the touched-group
   discovery seeded from those facts and the group probes.  For a plain
   rule, [delta] adds the indexes of its seed passes' seed-first plans,
   and [bound] those of the probes that pre-bind those variables — a
   superset of the full pass's.  Returns the number of indexes that did
   extension work — the chase's [join_builds] counter. *)
let prepare ?changed ?bound ?delta:round_delta db (r : Rule.t) (plan : Plan.t) =
  let ensure ?bound rule order =
    let nodes, _, _ = compile_nodes ?bound db rule order in
    Array.fold_left
      (fun acc nd ->
        if
          nd.nd_mask <> 0 && nd.nd_sym >= 0
          && Database.ensure_index db ~sym:nd.nd_sym ~arity:nd.nd_arity
               ~mask:nd.nd_mask
             > 0
        then acc + 1
        else acc)
      0 nodes
  in
  match r.agg, changed with
  | None, _ ->
    let seeded =
      match round_delta with
      | None -> 0
      | Some d ->
        let positives = Array.of_list (Rule.positive_atoms r) in
        let acc = ref 0 in
        Array.iteri
          (fun k b ->
            if k > 0 && delta_ids d db positives.(b) <> [] then
              acc := !acc + ensure r (seed_plan db r b).Plan.order)
          plan.Plan.order;
        !acc
    in
    ensure ?bound r plan.Plan.order + seeded
  | Some _, None ->
    let _, body, _ = agg_parts r in
    ensure body plan.Plan.order
  | Some _, Some changed ->
    let _, body, _ = agg_parts r in
    let group_vars = Rule.group_vars r in
    let d = delta db changed in
    let seeded b a =
      if delta_ids d db a = [] then 0 else ensure body (seed_plan db body b).Plan.order
    in
    ensure ~bound:group_vars body plan.Plan.order
    + List.fold_left ( + ) 0 (List.mapi seeded (Rule.positive_atoms body))
