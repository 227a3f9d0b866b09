open Ekg_datalog

type contributor = {
  facts : int list;
  binding : Subst.t;
}

type derivation = {
  rule_id : string;
  premises : int list;
  binding : Subst.t;
  contributors : contributor list;
  round : int;
}

(* Per-fact derivation store.  Heavily-derived facts (dense joins can
   reach a fact through thousands of alternative homomorphisms) made
   the old [list ref]+append representation quadratic: every [record]
   walked the list for duplicate detection and copied it to append.
   Derivations are now kept newest-first (O(1) cons) with the primary
   pinned and a hashed (rule, premises) set for O(1) dedup; readers
   reverse on access, so every observable order is unchanged. *)
type entry = {
  mutable rev_items : derivation list;  (* newest first *)
  primary : derivation;                 (* the first ever recorded *)
  seen : (string * int list, unit) Hashtbl.t;
}

type t = {
  derivations : (int, entry) Hashtbl.t;
  superseded : (int, int) Hashtbl.t;
}

let create () = { derivations = Hashtbl.create 256; superseded = Hashtbl.create 16 }

let copy t =
  (* derivation records and their lists are immutable; the entry
     records and dedup tables are not *)
  let derivations = Hashtbl.create (max 256 (Hashtbl.length t.derivations)) in
  Hashtbl.iter
    (fun id e ->
      Hashtbl.add derivations id
        { rev_items = e.rev_items; primary = e.primary; seen = Hashtbl.copy e.seen })
    t.derivations;
  { derivations; superseded = Hashtbl.copy t.superseded }

let record t ~fact_id d =
  let key = (d.rule_id, d.premises) in
  match Hashtbl.find_opt t.derivations fact_id with
  | None ->
    let seen = Hashtbl.create 4 in
    Hashtbl.add seen key ();
    Hashtbl.add t.derivations fact_id { rev_items = [ d ]; primary = d; seen }
  | Some e ->
    if not (Hashtbl.mem e.seen key) then begin
      Hashtbl.add e.seen key ();
      e.rev_items <- d :: e.rev_items
    end

let alternatives t id =
  match Hashtbl.find_opt t.derivations id with
  | Some e -> List.rev e.rev_items
  | None -> []

let forget t id = Hashtbl.remove t.derivations id

let iter t f =
  Hashtbl.iter
    (fun id e -> List.iter (fun d -> f id d) (List.rev e.rev_items))
    t.derivations

let cited t id =
  match
    Hashtbl.iter
      (fun _ e ->
        if List.exists (fun d -> List.mem id d.premises) e.rev_items then raise_notrace Exit)
      t.derivations
  with
  | () -> false
  | exception Exit -> true

let record_superseded t ~old_fact ~by = Hashtbl.replace t.superseded old_fact by
let superseded_by t id = Hashtbl.find_opt t.superseded id

let derivation t id =
  match Hashtbl.find_opt t.derivations id with
  | Some e -> Some e.primary
  | None -> None

let is_edb t id = not (Hashtbl.mem t.derivations id)

let derived_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.derivations [] |> List.sort Int.compare

let to_digraph t db =
  let g = Ekg_graph.Digraph.create () in
  let name id = Fact.to_string (Database.fact db id) in
  Hashtbl.iter
    (fun id e ->
      let dst = name id in
      Ekg_graph.Digraph.add_node g dst;
      List.iter
        (fun d ->
          List.iter
            (fun p -> Ekg_graph.Digraph.add_edge g ~src:(name p) ~dst ~label:d.rule_id)
            d.premises)
        (List.rev e.rev_items))
    t.derivations;
  g

(* --- snapshot codec ---------------------------------------------------------- *)

let w_subst b s =
  let bindings = Subst.to_list s in
  Wire.w_int b (List.length bindings);
  List.iter
    (fun (v, value) ->
      Wire.w_string b v;
      Wire.w_value b value)
    bindings

let r_subst r =
  let n = Wire.r_int r in
  if n < 0 then raise (Wire.Corrupt "Provenance: negative binding count");
  let rec go n acc =
    if n = 0 then Subst.of_list (List.rev acc)
    else begin
      let v = Wire.r_string r in
      let value = Wire.r_value r in
      go (n - 1) ((v, value) :: acc)
    end
  in
  go n []

let encode b t =
  Wire.w_int b (Hashtbl.length t.derivations);
  (* ascending fact id, so equal graphs encode to equal bytes *)
  List.iter
    (fun id ->
      let ds =
        match Hashtbl.find_opt t.derivations id with
        | Some e -> List.rev e.rev_items
        | None -> assert false
      in
      Wire.w_int b id;
      Wire.w_int b (List.length ds);
      List.iter
        (fun d ->
          Wire.w_string b d.rule_id;
          Wire.w_int_list b d.premises;
          w_subst b d.binding;
          Wire.w_int b (List.length d.contributors);
          List.iter
            (fun c ->
              Wire.w_int_list b c.facts;
              w_subst b c.binding)
            d.contributors;
          Wire.w_int b d.round)
        ds)
    (derived_ids t);
  Wire.w_int b (Hashtbl.length t.superseded);
  List.iter
    (fun (old_fact, by) ->
      Wire.w_int b old_fact;
      Wire.w_int b by)
    (List.sort compare
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.superseded []))

let decode r =
  let t = create () in
  let n_facts = Wire.r_int r in
  if n_facts < 0 then raise (Wire.Corrupt "Provenance: negative fact count");
  for _ = 1 to n_facts do
    let fact_id = Wire.r_int r in
    let n_ds = Wire.r_int r in
    if n_ds < 0 then
      raise (Wire.Corrupt "Provenance: negative derivation count");
    for _ = 1 to n_ds do
      let rule_id = Wire.r_string r in
      let premises = Wire.r_int_list r in
      let binding = r_subst r in
      let n_cs = Wire.r_int r in
      if n_cs < 0 then
        raise (Wire.Corrupt "Provenance: negative contributor count");
      let contributors = ref [] in
      for _ = 1 to n_cs do
        let facts = Wire.r_int_list r in
        let binding = r_subst r in
        contributors := { facts; binding } :: !contributors
      done;
      let round = Wire.r_int r in
      record t ~fact_id
        {
          rule_id;
          premises;
          binding;
          contributors = List.rev !contributors;
          round;
        }
    done
  done;
  let n_sup = Wire.r_int r in
  if n_sup < 0 then raise (Wire.Corrupt "Provenance: negative superseded count");
  for _ = 1 to n_sup do
    let old_fact = Wire.r_int r in
    let by = Wire.r_int r in
    record_superseded t ~old_fact ~by
  done;
  t
