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

(* One immutable entry per fact id, on shadow pages: recording a
   derivation replaces the fact's entry, so [copy] shares every entry
   and a writer copies the pages it touches.  Derivations are kept
   newest-first (O(1) cons) with the primary pinned; readers reverse on
   access, so every observable order is recorded order.  Heavily derived
   facts (dense joins can reach a fact through thousands of alternative
   homomorphisms) deduplicate through a persistent set of (rule,
   premises) keys once they outgrow a short scan. *)
module Key = struct
  type t = string * int list

  let compare (r1, p1) (r2, p2) =
    match String.compare r1 r2 with 0 -> List.compare Int.compare p1 p2 | c -> c
end

module KeySet = Set.Make (Key)

type entry = {
  rev_items : derivation list;  (* newest first *)
  primary : derivation;         (* the first ever recorded *)
  count : int;
  seen : KeySet.t;              (* every item's key once [count > scan_limit] *)
}

let scan_limit = 8

(* the entry of a fact without a derivation, compared physically *)
let none =
  let d = { rule_id = ""; premises = []; binding = Subst.empty; contributors = []; round = 0 } in
  { rev_items = []; primary = d; count = 0; seen = KeySet.empty }

(* Premise -> consumer chains, in the layout of the join indexes'
   chains: [first] holds each premise's newest edge, [next] links an
   edge to the premise's next older one, [target] names the consumer.
   Forgetting a fact's derivations bumps its generation, and an edge
   stamped with an older generation of its consumer is stale: the
   derivation that cited the premise is gone.  Once stale edges
   outnumber live ones the index is rebuilt, so it stays within twice
   the recorded premises however many updates re-derive. *)
type consumers = {
  first : int Paged.t;   (* by premise fact id: newest edge, or -1 *)
  next : int Paged.t;    (* by edge *)
  target : int Paged.t;  (* by edge: the consumer *)
  stamp : int Paged.t;   (* by edge: the consumer's generation then *)
  gen : int Paged.t;     (* by fact id *)
  mutable stale : int;   (* edges stamped with an older generation *)
}

type t = {
  entries : entry Paged.t;       (* by fact id *)
  superseded : int Paged.t;      (* by fact id: the superseding fact, or -1 *)
  mutable derived : int;         (* entries other than [none] *)
  mutable n_superseded : int;
  mutable consumers : consumers option;  (* built on first need *)
}

let create () =
  {
    entries = Paged.create ~bits:Paged.slot_bits none;
    superseded = Paged.create ~bits:Paged.slot_bits (-1);
    derived = 0;
    n_superseded = 0;
    consumers = None;
  }

let copy t =
  {
    t with
    entries = Paged.copy t.entries;
    superseded = Paged.copy t.superseded;
    consumers =
      Option.map
        (fun c ->
          {
            first = Paged.copy c.first;
            next = Paged.copy c.next;
            target = Paged.copy c.target;
            stamp = Paged.copy c.stamp;
            gen = Paged.copy c.gen;
            stale = c.stale;
          })
        t.consumers;
  }

let entry t id = if id >= 0 && id < Paged.length t.entries then Paged.get t.entries id else none

let generation c id = if id < Paged.length c.gen then Paged.unsafe_get_int c.gen id else 0

let add_edges c ~fact_id d =
  let stamp = generation c fact_id in
  List.iter
    (fun p ->
      let e = Paged.length c.next in
      Paged.grow c.first (p + 1);
      Paged.push_int c.next (Paged.unsafe_get_int c.first p);
      Paged.push_int c.target fact_id;
      Paged.push_int c.stamp stamp;
      Paged.set_int c.first p e)
    d.premises

let key_of d = (d.rule_id, d.premises)

let record t ~fact_id d =
  let e = entry t fact_id in
  let key = key_of d in
  let known =
    if e == none then false
    else if e.count <= scan_limit then
      List.exists (fun x -> Key.compare (key_of x) key = 0) e.rev_items
    else KeySet.mem key e.seen
  in
  if not known then begin
    if e == none then begin
      Paged.grow t.entries (fact_id + 1);
      Paged.set t.entries fact_id
        { rev_items = [ d ]; primary = d; count = 1; seen = KeySet.empty };
      t.derived <- t.derived + 1
    end
    else begin
      let rev_items = d :: e.rev_items and count = e.count + 1 in
      let seen =
        if count <= scan_limit then KeySet.empty
        else if count = scan_limit + 1 then KeySet.of_list (List.map key_of rev_items)
        else KeySet.add key e.seen
      in
      Paged.set t.entries fact_id { e with rev_items; count; seen }
    end;
    Option.iter (fun c -> add_edges c ~fact_id d) t.consumers
  end

let alternatives t id = List.rev (entry t id).rev_items

let forget t id =
  let e = entry t id in
  if e != none then begin
    Paged.set t.entries id none;
    t.derived <- t.derived - 1;
    match t.consumers with
    | Some c ->
      Paged.grow c.gen (id + 1);
      Paged.set_int c.gen id (Paged.unsafe_get_int c.gen id + 1);
      c.stale <- List.fold_left (fun n d -> n + List.length d.premises) c.stale e.rev_items
    | None -> ()
  end

(* the index, built from every recorded derivation on first need and
   rebuilt once it is mostly stale *)
let consumer_index t =
  match t.consumers with
  | Some c when 2 * c.stale <= Paged.length c.next -> c
  | Some _ | None ->
    let edges () = Paged.create ~bits:Paged.append_bits 0 in
    let c =
      {
        first = Paged.create ~bits:Paged.slot_bits (-1);
        next = edges ();
        target = edges ();
        stamp = edges ();
        gen = Paged.create ~bits:Paged.slot_bits 0;
        stale = 0;
      }
    in
    for id = 0 to Paged.length t.entries - 1 do
      List.iter (add_edges c ~fact_id:id) (List.rev (Paged.unsafe_get t.entries id).rev_items)
    done;
    t.consumers <- Some c;
    c

(* [f] on each live edge's consumer until it answers [true] *)
let exists_consumer t id f =
  let c = consumer_index t in
  let rec go e =
    e >= 0
    && ((let fact = Paged.unsafe_get_int c.target e in
         Paged.unsafe_get_int c.stamp e = generation c fact && f fact)
       || go (Paged.unsafe_get_int c.next e))
  in
  id < Paged.length c.first && go (Paged.unsafe_get_int c.first id)

let consumers t id f = ignore (exists_consumer t id (fun c -> f c; false))

let cited t id = exists_consumer t id (fun _ -> true)

let record_superseded t ~old_fact ~by =
  Paged.grow t.superseded (old_fact + 1);
  if Paged.get_int t.superseded old_fact < 0 then t.n_superseded <- t.n_superseded + 1;
  Paged.set_int t.superseded old_fact by

let superseded_by t id =
  if id >= 0 && id < Paged.length t.superseded && Paged.get_int t.superseded id >= 0 then
    Some (Paged.get_int t.superseded id)
  else None

let derivation t id =
  let e = entry t id in
  if e == none then None else Some e.primary

let is_edb t id = entry t id == none

let derived_ids t =
  let acc = ref [] in
  for id = Paged.length t.entries - 1 downto 0 do
    if Paged.unsafe_get t.entries id != none then acc := id :: !acc
  done;
  !acc

let to_digraph t db =
  let g = Ekg_graph.Digraph.create () in
  let name id = Fact.to_string (Database.fact db id) in
  List.iter
    (fun id ->
      let dst = name id in
      Ekg_graph.Digraph.add_node g dst;
      List.iter
        (fun d ->
          List.iter
            (fun p -> Ekg_graph.Digraph.add_edge g ~src:(name p) ~dst ~label:d.rule_id)
            d.premises)
        (alternatives t id))
    (derived_ids t);
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
  Wire.w_int b t.derived;
  (* ascending fact id, so equal graphs encode to equal bytes *)
  List.iter
    (fun id ->
      let ds = alternatives t id in
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
  Wire.w_int b t.n_superseded;
  for old_fact = 0 to Paged.length t.superseded - 1 do
    let by = Paged.unsafe_get_int t.superseded old_fact in
    if by >= 0 then begin
      Wire.w_int b old_fact;
      Wire.w_int b by
    end
  done

let decode r =
  let t = create () in
  let n_facts = Wire.r_int r in
  if n_facts < 0 then raise (Wire.Corrupt "Provenance: negative fact count");
  for _ = 1 to n_facts do
    let fact_id = Wire.r_int r in
    if fact_id < 0 then raise (Wire.Corrupt "Provenance: negative fact id");
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
    if old_fact < 0 || by < 0 then raise (Wire.Corrupt "Provenance: negative superseded id");
    record_superseded t ~old_fact ~by
  done;
  t
