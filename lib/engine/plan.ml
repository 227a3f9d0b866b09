open Ekg_datalog

type t = {
  order : int array;
  reordered : bool;
}

module VarSet = Set.Make (String)

let atom_vars (a : Atom.t) =
  List.filter_map
    (function Term.Var v -> Some v | Term.Cst _ -> None)
    a.Atom.args

let bound_positions bound (a : Atom.t) =
  List.fold_left
    (fun n (t : Term.t) ->
      match t with
      | Term.Cst _ -> n + 1
      | Term.Var v -> if VarSet.mem v bound then n + 1 else n)
    0 a.Atom.args

let compile ?first ~card (r : Rule.t) =
  let atoms = Array.of_list (Rule.positive_atoms r) in
  let n = Array.length atoms in
  if n <= 1 then { order = Array.init n Fun.id; reordered = false }
  else begin
    let cards = Array.map (fun (a : Atom.t) -> card a.Atom.pred) atoms in
    let order = Array.make n 0 in
    let taken = Array.make n false in
    let bound = ref VarSet.empty in
    for k = 0 to n - 1 do
      let i =
        match first with
        | Some f when k = 0 -> f
        | _ ->
          let best = ref (-1) in
          let best_score = ref infinity in
          for i = 0 to n - 1 do
            if not taken.(i) then begin
              let score =
                float_of_int cards.(i)
                /. float_of_int (1 + bound_positions !bound atoms.(i))
              in
              (* strict [<] keeps ties in textual order: determinism *)
              if score < !best_score then begin
                best := i;
                best_score := score
              end
            end
          done;
          !best
      in
      taken.(i) <- true;
      order.(k) <- i;
      bound := List.fold_left (fun s v -> VarSet.add v s) !bound (atom_vars atoms.(i))
    done;
    let reordered = ref false in
    Array.iteri (fun k i -> if k <> i then reordered := true) order;
    { order; reordered = !reordered }
  end

(* Key columns for the hash-join matcher: at each join position, the
   argument positions bound at probe time — constants, plus variables
   bound by an earlier atom in plan order.  A repeated variable's later
   occurrence within one atom is NOT a key column (it is unbound when
   the probe starts); the matcher checks it per candidate row instead.
   In the left-deep pipelined join these are the build-side key
   columns: the cardinality-greedy [order] already decided which atom
   is built (indexed) at each position, so the mask is the remaining
   planner choice. *)
let key_masks ?(bound = []) (r : Rule.t) t =
  let atoms = Array.of_list (Rule.positive_atoms r) in
  let bound = ref (VarSet.of_list bound) in
  Array.map
    (fun i ->
      let a = atoms.(i) in
      let mask = ref 0 in
      List.iteri
        (fun j (trm : Term.t) ->
          (* int bitmask: positions beyond 60 are never key columns *)
          if j < 60 then
            match trm with
            | Term.Cst _ -> mask := !mask lor (1 lsl j)
            | Term.Var v -> if VarSet.mem v !bound then mask := !mask lor (1 lsl j))
        a.Atom.args;
      bound := List.fold_left (fun s v -> VarSet.add v s) !bound (atom_vars a);
      !mask)
    t.order
