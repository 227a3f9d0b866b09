(* A deliberately naive evaluator of the chase's semantics: the oracle
   the engine is tested against.

   It shares no evaluation code with the engine: no database, matcher,
   planner, chase or provenance, only the rule syntax, values and the
   stratification.  An instance is a set of ground atoms per predicate,
   with values identified by [Value.compare] as the engine's interning
   identifies them.  Each stratum runs rounds until nothing changes:

   - every plain rule matches the round-start instance by nested loops
     over its positive atoms in textual order, then the matches insert
     in rule order.  An existential head invents one fresh labelled null
     per variable per match, unless an active fact of its predicate
     already covers the match (the restricted chase's preemption:
     constants agree, nulls map consistently, existential positions are
     free);
   - every aggregate rule then groups the current instance's body
     matches, in rule order, and keeps each group's current value: its
     inputs fold in ascending [Value.compare] order, and the group
     binding carries the variables that every contributor binds to the
     same value.  A group whose tuple moves supersedes its previous
     tuple, which leaves the active instance; a tuple that is already
     active changes nothing (the monotonic aggregation of The Vadalog
     System).

   A plain rule that derives a superseded tuple brings it back, as the
   engine's naive mode does; the engine keeps such a tuple inactive
   when a recorded derivation cites it, and its semi-naive passes never
   re-find an old match, so programs where a plain rule derives the
   head of an aggregate that writes its value there are outside what
   the two are compared on.  A derived [false] makes the run
   inconsistent.  What it returns is the active instance; labelled
   nulls differ from the engine's in identity, so [canonical] renders
   every null as one placeholder. *)

open Ekg_kernel
open Ekg_datalog

module Args = Set.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

module Preds = Map.Make (String)

module Groups = Map.Make (struct
  type t = string * Value.t list

  let compare (r, k) (r', k') =
    match String.compare r r' with 0 -> List.compare Value.compare k k' | c -> c
end)

type error = Unstratifiable of string | Inconsistent | Diverged

type state = {
  mutable active : Args.t Preds.t;
  mutable current : Value.t list Groups.t;  (* (rule, group key) -> its tuple *)
  mutable nulls : int;
}

let tuples inst pred = Option.value ~default:Args.empty (Preds.find_opt pred inst)
let mem inst pred args = Args.mem args (tuples inst pred)
let add st pred args =
  st.active <- Preds.add pred (Args.add args (tuples st.active pred)) st.active

let remove st pred args =
  st.active <- Preds.add pred (Args.remove args (tuples st.active pred)) st.active

let matching inst subst (a : Atom.t) =
  Args.fold
    (fun args acc ->
      if List.length args <> List.length a.Atom.args then acc
      else
        match Subst.match_atom subst ~pattern:a (Array.of_list args) with
        | Some s -> s :: acc
        | None -> acc)
    (tuples inst a.Atom.pred) []

(* every binding of the positive atoms, assignments applied, under
   which every condition holds and no negated atom has a match *)
let matches inst (r : Rule.t) =
  let rec join subst = function
    | [] -> [ subst ]
    | a :: rest -> List.concat_map (fun s -> join s rest) (matching inst subst a)
  in
  join Subst.empty (Rule.positive_atoms r)
  |> List.filter_map (fun subst ->
         let subst =
           List.fold_left
             (fun s (v, e) ->
               match Expr.eval (Subst.lookup s) e with Some x -> Subst.bind s v x | None -> s)
             subst r.assignments
         in
         if
           List.for_all (fun c -> Expr.eval_cmp (Subst.lookup subst) c = Some true) r.conditions
           && not (List.exists (fun a -> matching inst subst a <> []) (Rule.negative_atoms r))
         then Some subst
         else None)

let instantiate st (r : Rule.t) binding =
  let nulls = Hashtbl.create 2 in
  let existentials = Rule.existential_vars r in
  let value = function
    | Term.Cst c -> Some c
    | Term.Var v -> (
      match Subst.find binding v with
      | Some x -> Some x
      | None when List.mem v existentials ->
        if not (Hashtbl.mem nulls v) then begin
          Hashtbl.add nulls v (Value.null st.nulls);
          st.nulls <- st.nulls + 1
        end;
        Some (Hashtbl.find nulls v)
      | None -> None)
  in
  let args = List.map value r.head.Atom.args in
  if List.mem None args then None else Some (List.map Option.get args)

(* an active fact the match's head maps onto homomorphically *)
let preempted st (r : Rule.t) binding =
  Rule.existential_vars r <> []
  &&
  let shape = List.map (fun t -> Subst.apply_term binding t) r.head.Atom.args in
  Args.exists
    (fun args ->
      List.length args = List.length shape
      &&
      let image = Hashtbl.create 4 in
      List.for_all2
        (fun t v ->
          match t with
          | Term.Var _ -> true
          | Term.Cst (Value.Null _ as n) -> (
            match Hashtbl.find_opt image n with
            | Some w -> Value.equal w v
            | None ->
              Hashtbl.add image n v;
              true)
          | Term.Cst c -> Value.equal c v)
        shape args)
    (tuples st.active (Rule.head_pred r))

let fold (func : Rule.agg_func) inputs =
  match List.stable_sort Value.compare inputs with
  | [] -> None
  | v :: rest ->
    Some
      (match func with
      | Rule.Sum -> List.fold_left Value.add v rest
      | Rule.Prod -> List.fold_left Value.mul v rest
      | Rule.Min -> List.fold_left Value.min_v v rest
      | Rule.Max -> List.fold_left Value.max_v v rest
      | Rule.Count -> Value.int (1 + List.length rest))

(* one evaluation of an aggregate rule; whether it changed the instance *)
let aggregate st (r : Rule.t) (agg : Rule.aggregation) =
  let deferred, immediate =
    List.partition (fun c -> List.mem agg.Rule.result (Expr.cmp_vars c)) r.conditions
  in
  let group_vars = Rule.group_vars r in
  let key binding =
    List.map
      (fun v -> Option.value ~default:(Value.str "?") (Subst.find binding v))
      group_vars
  in
  let groups =
    List.fold_left
      (fun groups m ->
        let k = (r.id, key m) in
        Groups.add k (m :: Option.value ~default:[] (Groups.find_opt k groups)) groups)
      Groups.empty
      (matches st.active { r with conditions = immediate; agg = None })
  in
  let pred = Rule.head_pred r in
  Groups.fold
    (fun ((_, k) as gk) members changed ->
      let common =
        List.filter
          (fun (v, x) ->
            List.for_all
              (fun m -> match Subst.find m v with Some y -> Value.equal x y | None -> false)
              members)
          (Subst.to_list (List.hd members))
      in
      let inputs = List.filter_map (fun m -> Expr.eval (Subst.lookup m) agg.input) members in
      match fold agg.func inputs with
      | None -> changed
      | Some value -> (
        let bind = List.fold_left (fun s (v, x) -> Subst.bind s v x) in
        let binding =
          bind (Subst.bind (bind Subst.empty common) agg.result value)
            (List.combine group_vars k)
        in
        let holds c = Expr.eval_cmp (Subst.lookup binding) c = Some true in
        if not (List.for_all holds deferred) then changed
        else
          match instantiate st r binding with
          | None -> changed
          | Some args ->
            let previous = Groups.find_opt gk st.current in
            if mem st.active pred args then begin
              if previous = None then st.current <- Groups.add gk args st.current;
              changed
            end
            else begin
              add st pred args;
              (match previous with
              | Some old when mem st.active pred old -> remove st pred old
              | Some _ | None -> ());
              st.current <- Groups.add gk args st.current;
              true
            end))
    groups false

let max_rounds = 10_000

let run (program : Program.t) edb =
  match Ekg_engine.Stratify.strata program with
  | Error e -> Error (Unstratifiable e)
  | Ok strata ->
    let st = { active = Preds.empty; current = Groups.empty; nulls = 0 } in
    List.iter
      (fun (a : Atom.t) ->
        add st a.Atom.pred
          (List.map (function Term.Cst c -> c | Term.Var v -> invalid_arg v) a.Atom.args))
      edb;
    let rec rounds n plain aggs =
      if n > max_rounds then false
      else begin
        let start = st.active in
        let fired = List.map (fun r -> (r, matches start r)) plain in
        let changed = ref false in
        List.iter
          (fun ((r : Rule.t), ms) ->
            List.iter
              (fun m ->
                if not (preempted st r m) then
                  match instantiate st r m with
                  | Some args when not (mem st.active (Rule.head_pred r) args) ->
                    add st (Rule.head_pred r) args;
                    changed := true
                  | Some _ | None -> ())
              ms)
          fired;
        List.iter
          (fun ((r : Rule.t), agg) -> if aggregate st r agg then changed := true)
          aggs;
        (not !changed) || rounds (n + 1) plain aggs
      end
    in
    let converged =
      List.for_all
        (fun rules ->
          rounds 1
            (List.filter (fun (r : Rule.t) -> r.agg = None) rules)
            (List.filter_map (fun (r : Rule.t) -> Option.map (fun a -> (r, a)) r.agg) rules))
        strata
    in
    if not converged then Error Diverged
    else if not (Args.is_empty (tuples st.active "false")) then Error Inconsistent
    else
      Ok
        (Preds.fold
           (fun pred set acc -> Args.fold (fun args acc -> (pred, args) :: acc) set acc)
           st.active [])

(* sorted, distinct lines [pred(args)], every labelled null rendered as
   the same placeholder *)
let canonical facts =
  List.map
    (fun (pred, args) ->
      Atom.to_string
        (Atom.make pred
           (List.map (fun v -> Term.cst (if Value.is_null v then Value.null 0 else v)) args)))
    facts
  |> List.sort_uniq String.compare |> String.concat "\n"
