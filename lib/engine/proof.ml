open Ekg_kernel
open Ekg_datalog

type step = {
  index : int;
  rule_id : string;
  fact : Fact.t;
  binding : Subst.t;
  contributors : Provenance.contributor list;
  multi : bool;
  premises : Fact.t list;
}

type t = {
  goal : Fact.t;
  steps : step list;
}

(* Post-order DFS over the derivation DAG: premises are fully explained
   before the step that consumes them, matching the paper's τ.
   [derivation_for] chooses which derivation explains each fact. *)
let build db ~derivation_for (goal : Fact.t) =
  match derivation_for goal.id with
  | None -> None
  | Some _ ->
    let visited = Hashtbl.create 32 in
    let steps = ref [] in
    let rec visit fact_id =
      if not (Hashtbl.mem visited fact_id) then begin
        Hashtbl.add visited fact_id ();
        match derivation_for fact_id with
        | None -> ()
        | Some (d : Provenance.derivation) ->
          List.iter visit d.premises;
          let contributors = d.contributors in
          steps :=
            {
              index = 0;
              rule_id = d.rule_id;
              fact = Database.fact db fact_id;
              binding = d.binding;
              contributors;
              multi = List.length contributors >= 2;
              premises = List.map (Database.fact db) d.premises;
            }
            :: !steps
      end
    in
    visit goal.id;
    let steps = List.rev !steps in
    Some { goal; steps = List.mapi (fun i s -> { s with index = i }) steps }

let of_fact db prov (goal : Fact.t) =
  build db ~derivation_for:(Provenance.derivation prov) goal

(* Shortest proof: per fact, pick the derivation minimizing the tree
   cost 1 + Σ cost(premises) (the chase records a derivation only when
   its premises precede its fact, so the recursion is well-founded; a
   fact on the recursion stack costs [max_int] all the same, so that a
   cycle could not recurse without end).  Tree cost over-counts shared
   sub-derivations, but those are deduplicated when the proof is
   built, so the selection is a sound heuristic for compactness. *)
let shortest_of_fact db prov (goal : Fact.t) =
  let memo : (int, int * Provenance.derivation option) Hashtbl.t = Hashtbl.create 64 in
  let add a b = if a = max_int || b = max_int then max_int else a + b in
  let rec cost id =
    match Hashtbl.find_opt memo id with
    | Some (c, _) -> c
    | None ->
      Hashtbl.replace memo id (max_int, None);
      let result =
        match Provenance.alternatives prov id with
        | [] -> (0, None) (* extensional *)
        | ds ->
          let best =
            List.fold_left
              (fun acc (d : Provenance.derivation) ->
                let c = List.fold_left (fun s p -> add s (cost p)) 1 d.premises in
                match acc with
                | Some (c', _) when c' <= c -> acc
                | _ -> Some (c, d))
              None ds
          in
          (match best with
          | Some (c, d) -> (c, Some d)
          | None -> (0, None))
      in
      Hashtbl.replace memo id result;
      fst result
  in
  ignore (cost goal.id);
  let derivation_for id =
    ignore (cost id);
    match Hashtbl.find_opt memo id with
    | Some (_, d) -> d
    | None -> None
  in
  build db ~derivation_for goal

let length t = List.length t.steps
let rule_sequence t = List.map (fun s -> s.rule_id) t.steps

let truncate t ~horizon =
  if horizon < 1 then invalid_arg "Proof.truncate: horizon must be >= 1";
  (* distance of each step's fact from the goal, walking premise links
     backwards from the goal step *)
  let step_of = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace step_of s.fact.id s) t.steps;
  let depth = Hashtbl.create 16 in
  let rec walk id d =
    match Hashtbl.find_opt step_of id with
    | None -> ()
    | Some s ->
      let better =
        match Hashtbl.find_opt depth id with
        | Some d' -> d < d'
        | None -> true
      in
      if better then begin
        Hashtbl.replace depth id d;
        List.iter (fun (p : Fact.t) -> walk p.id (d + 1)) s.premises
      end
  in
  walk t.goal.id 0;
  let kept =
    List.filter
      (fun s ->
        match Hashtbl.find_opt depth s.fact.id with
        | Some d -> d < horizon
        | None -> false)
      t.steps
  in
  let kept_ids = List.map (fun s -> s.fact.id) kept in
  let assumed =
    kept
    |> List.concat_map (fun s -> s.premises)
    |> List.filter (fun (p : Fact.t) ->
           Hashtbl.mem step_of p.id && not (List.mem p.id kept_ids))
    |> List.sort_uniq (fun (a : Fact.t) (b : Fact.t) -> Int.compare a.id b.id)
  in
  ({ goal = t.goal; steps = List.mapi (fun i s -> { s with index = i }) kept }, assumed)

let facts_used t =
  let seen = Hashtbl.create 32 in
  let acc = ref [] in
  let push (f : Fact.t) =
    if not (Hashtbl.mem seen f.id) then begin
      Hashtbl.add seen f.id ();
      acc := f :: !acc
    end
  in
  List.iter
    (fun s ->
      List.iter push s.premises;
      push s.fact)
    t.steps;
  List.rev !acc

let constants t =
  let seen = ref [] in
  List.iter
    (fun (f : Fact.t) ->
      Array.iter
        (fun v -> if not (List.exists (Value.equal v) !seen) then seen := v :: !seen)
        f.args)
    (facts_used t);
  List.rev !seen

let to_string t =
  t.steps
  |> List.map (fun s ->
         Printf.sprintf "%2d. [%s]%s %s <= %s" (s.index + 1) s.rule_id
           (if s.multi then "*" else "")
           (Fact.to_string s.fact)
           (String.concat ", " (List.map Fact.to_string s.premises)))
  |> String.concat "\n"
