type witness = Fact.t list

module IntSet = Set.Make (Int)

(* The recorded derivations form a DAG (the chase records a derivation
   only when its premises precede its fact), so a memoized recursion
   terminates; a fact on the recursion stack has no witness all the
   same.  Witnesses are id-sets; products of premises' witnesses are
   unions. *)
let witness_sets ?(max_witnesses = 64) (prov : Provenance.t) goal_id =
  let memo : (int, IntSet.t list) Hashtbl.t = Hashtbl.create 64 in
  let truncate l =
    let rec take n = function
      | [] -> []
      | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
    in
    take max_witnesses l
  in
  let dedup sets =
    let rec go acc = function
      | [] -> List.rev acc
      | s :: rest ->
        if List.exists (IntSet.equal s) acc then go acc rest else go (s :: acc) rest
    in
    go [] sets
  in
  (* keep only minimal sets: drop any strict superset of another *)
  let minimize sets =
    List.filter
      (fun s ->
        not
          (List.exists (fun s' -> (not (IntSet.equal s s')) && IntSet.subset s' s) sets))
      sets
  in
  let rec compute id =
    match Hashtbl.find_opt memo id with
    | Some ws -> ws
    | None ->
      Hashtbl.replace memo id [];
      let result =
        match Provenance.alternatives prov id with
        | [] -> [ IntSet.singleton id ] (* extensional *)
        | derivations ->
          let per_derivation (d : Provenance.derivation) =
            (* product: one witness from each premise, unioned *)
            List.fold_left
              (fun acc premise ->
                let ws = compute premise in
                truncate
                  (List.concat_map (fun a -> List.map (IntSet.union a) ws) acc))
              [ IntSet.empty ] d.premises
          in
          minimize (dedup (truncate (List.concat_map per_derivation derivations)))
      in
      Hashtbl.replace memo id result;
      result
  in
  compute goal_id

let why ?max_witnesses db prov (goal : Fact.t) =
  witness_sets ?max_witnesses prov goal.id
  |> List.map (fun s -> List.map (Database.fact db) (IntSet.elements s))

let polynomial ?max_witnesses db prov goal =
  let witnesses = why ?max_witnesses db prov goal in
  witnesses
  |> List.map (fun w -> String.concat "·" (List.map Fact.to_string w))
  |> String.concat " + "
