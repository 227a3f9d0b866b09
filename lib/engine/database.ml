open Ekg_kernel
open Ekg_datalog

(* Every mutable container below is a shadow-paged vector ({!Paged}),
   so [copy] costs page tables and a writer copies the pages it
   touches.  The symbol table and the small group tables are copied
   whole. *)

(* A hash index over a column group, keyed by a bitmask of key columns.
   Slots are open addressing with linear probing, four ints per slot:
   the full key hash, the first and the last row of its chain, and the
   chain's length; a slot is free iff its first row is -1.  A chain
   links the rows of one key hash through [ix_next] in ascending row
   order, so a probe enumerates rows (and fact ids) ascending.  Hash
   collisions are benign: the matcher re-checks every column of a
   candidate row.

   The join core issues one probe per candidate partial match (millions
   per round on dense joins), so a probe is a multiply, a mask and a
   walk over int pages: no seeded rehash of the key and no
   allocation. *)
type colindex = {
  ix_mask : int;
  ix_keycols : int array;         (* key columns, ascending *)
  mutable ix_slots : int Paged.t;
  mutable ix_cap_mask : int;      (* slot capacity - 1, a power of 2 *)
  mutable ix_used : int;          (* live slots; capacity kept > 2x *)
  ix_next : int Paged.t;          (* row -> next row of its chain, -1 at the end *)
  mutable ix_rows : int;          (* rows [0, ix_rows) are indexed *)
}

let ix_create mask keycols =
  {
    ix_mask = mask;
    ix_keycols = keycols;
    ix_slots = Paged.make ~bits:Paged.slot_bits (4 * 16) (-1);
    ix_cap_mask = 15;
    ix_used = 0;
    ix_next = Paged.create ~bits:Paged.slot_bits (-1);
    ix_rows = 0;
  }

let ix_copy ix =
  { ix with ix_slots = Paged.copy ix.ix_slots; ix_next = Paged.copy ix.ix_next }

(* multiplicative spread of the (possibly negative) key hash into a
   slot; linear probing resolves residual clustering *)
let ix_slot cap_mask h = (h * 0x9E3779B1) land max_int land cap_mask

(* slot holding key [h], or the first free slot of its probe chain *)
let ix_find slots cap_mask h =
  let s = ref (ix_slot cap_mask h) in
  while
    Paged.unsafe_get_int slots ((4 * !s) + 1) >= 0 && Paged.unsafe_get_int slots (4 * !s) <> h
  do
    s := (!s + 1) land cap_mask
  done;
  !s

(* the first row of the chain keyed [h], or -1 *)
let ix_first ix h = Paged.unsafe_get_int ix.ix_slots ((4 * ix_find ix.ix_slots ix.ix_cap_mask h) + 1)

let ix_grow ix =
  let old = ix.ix_slots and old_cap = ix.ix_cap_mask + 1 in
  let cap = 2 * old_cap in
  let slots = Paged.make ~bits:Paged.slot_bits (4 * cap) (-1) in
  for s = 0 to old_cap - 1 do
    if Paged.unsafe_get_int old ((4 * s) + 1) >= 0 then begin
      let d = 4 * ix_find slots (cap - 1) (Paged.unsafe_get_int old (4 * s)) in
      for k = 0 to 3 do
        Paged.set_int slots (d + k) (Paged.unsafe_get_int old ((4 * s) + k))
      done
    end
  done;
  ix.ix_slots <- slots;
  ix.ix_cap_mask <- cap - 1

(* index [row], the next row of its group, under key hash [h] *)
let ix_add ix h row =
  Paged.push_int ix.ix_next (-1);
  if 2 * (ix.ix_used + 1) > ix.ix_cap_mask + 1 then ix_grow ix;
  let slots = ix.ix_slots in
  let b = 4 * ix_find slots ix.ix_cap_mask h in
  if Paged.unsafe_get_int slots (b + 1) < 0 then begin
    Paged.set_int slots b h;
    Paged.set_int slots (b + 1) row;
    Paged.set_int slots (b + 2) row;
    Paged.set_int slots (b + 3) 1;
    ix.ix_used <- ix.ix_used + 1
  end
  else begin
    Paged.set_int ix.ix_next (Paged.unsafe_get_int slots (b + 2)) row;
    Paged.set_int slots (b + 2) row;
    Paged.set_int slots (b + 3) (Paged.unsafe_get_int slots (b + 3) + 1)
  end;
  ix.ix_rows <- row + 1

(* Struct-of-arrays storage for one (predicate symbol, arity), the only
   home of its facts: each argument position is a column of interned
   value ids, and [cg_rows] maps row number back to fact id.  Row order
   is insertion order, i.e. ascending fact id, so scans and index
   chains enumerate facts in id order and a match pass depends only on
   the database and its plan.  Every insertion maintains the full-key
   index [cg_key] (set semantics and exact lookup) and one index per
   column (the readers' {!matching}); the planner's other masks are
   extended by [ensure_index]. *)
type colgroup = {
  cg_sym : int;
  cg_arity : int;
  cg_cols : int Paged.t array;             (* per argument position: vids *)
  cg_rows : int Paged.t;                   (* row -> fact id *)
  cg_key : colindex;
  cg_singles : colindex array;             (* per column below [max_key_col] *)
  cg_indexes : (int, colindex) Hashtbl.t;  (* key-column mask -> index *)
}

(* key masks are ints: columns from here on join no index *)
let max_key_col = 60

let cols_of_mask arity mask =
  let cols = ref [] in
  for i = min (max_key_col - 1) (arity - 1) downto 0 do
    if mask land (1 lsl i) <> 0 then cols := i :: !cols
  done;
  Array.of_list !cols

let group_create sym arity =
  let indexes = Hashtbl.create 8 in
  let index mask =
    let ix = ix_create mask (cols_of_mask arity mask) in
    Hashtbl.replace indexes mask ix;
    ix
  in
  let key = index ((1 lsl min arity max_key_col) - 1) in
  let singles =
    Array.init (min arity max_key_col) (fun i ->
        if 1 lsl i = key.ix_mask then key else index (1 lsl i))
  in
  {
    cg_sym = sym;
    cg_arity = arity;
    cg_cols = Array.init arity (fun _ -> Paged.create ~bits:Paged.append_bits 0);
    cg_rows = Paged.create ~bits:Paged.append_bits 0;
    cg_key = key;
    cg_singles = singles;
    cg_indexes = indexes;
  }

let group_copy g =
  let indexes = Hashtbl.create (Hashtbl.length g.cg_indexes) in
  Hashtbl.iter (fun mask ix -> Hashtbl.replace indexes mask (ix_copy ix)) g.cg_indexes;
  let copied ix = Hashtbl.find indexes ix.ix_mask in
  {
    g with
    cg_cols = Array.map Paged.copy g.cg_cols;
    cg_rows = Paged.copy g.cg_rows;
    cg_key = copied g.cg_key;
    cg_singles = Array.map copied g.cg_singles;
    cg_indexes = indexes;
  }

(* A fact's location, one int: its group's number above [row_bits],
   its row below. *)
let row_bits = 32
let row_mask = (1 lsl row_bits) - 1

type t = {
  syms : Symtab.t;
  mutable groups : colgroup array;       (* by group number, in creation order *)
  mutable pred_groups : int list array;  (* by pred symbol: its group numbers *)
  locs : int Paged.t;                    (* by fact id, dense from 0: its location *)
  (* activation state: 32 bits per word, set = active *)
  active_bits : int Paged.t;
  mutable inactive_count : int;
  (* value interning: one dense id per [Value.equal]-class.  The
     matcher's hash-join core compares and hashes interned ids instead
     of values — [Value.equal] identifies numerically equal [Int]/[Num]
     values, so the interning must too, or the columnar probe would
     miss matches the tuple-level [Subst.match_atom] finds.  Slots hold
     value ids (open addressing, -1 = free), compared through
     [val_arr]. *)
  mutable val_slots : int Paged.t;
  mutable val_cap_mask : int;
  val_arr : Value.t Paged.t;               (* vid -> first-interned value *)
  mutable null_counter : int;
}

let create () =
  {
    syms = Symtab.create ();
    groups = [||];
    pred_groups = [||];
    locs = Paged.create ~bits:Paged.append_bits 0;
    active_bits = Paged.create ~bits:Paged.slot_bits 0;
    inactive_count = 0;
    val_slots = Paged.make ~bits:Paged.slot_bits 1024 (-1);
    val_cap_mask = 1023;
    val_arr = Paged.create ~bits:Paged.append_bits (Value.Int 0);
    null_counter = 0;
  }

let copy t =
  {
    syms = Symtab.copy t.syms;
    groups = Array.map group_copy t.groups;
    pred_groups = Array.copy t.pred_groups;
    locs = Paged.copy t.locs;
    active_bits = Paged.copy t.active_bits;
    inactive_count = t.inactive_count;
    val_slots = Paged.copy t.val_slots;
    val_cap_mask = t.val_cap_mask;
    val_arr = Paged.copy t.val_arr;
    null_counter = t.null_counter;
  }

let size t = Paged.length t.locs

let intern t pred =
  let sym = Symtab.intern t.syms pred in
  (* symbols are dense and assigned in order: a fresh one is next *)
  if sym = Array.length t.pred_groups then t.pred_groups <- Array.append t.pred_groups [| [] |];
  sym

let pred_sym t pred = Symtab.find t.syms pred

(* the number of the group of [arity] among a predicate's [groups], or -1 *)
let rec group_in t arity = function
  | [] -> -1
  | gi :: rest -> if t.groups.(gi).cg_arity = arity then gi else group_in t arity rest

let group_of t sym arity =
  match group_in t arity t.pred_groups.(sym) with
  | gi when gi >= 0 -> gi
  | _ ->
    let gi = Array.length t.groups in
    t.groups <- Array.append t.groups [| group_create sym arity |];
    t.pred_groups.(sym) <- t.pred_groups.(sym) @ [ gi ];
    gi

(* --- activation bitmap ------------------------------------------------------ *)

let bit_get t id =
  Paged.unsafe_get_int t.active_bits (id lsr 5) land (1 lsl (id land 31)) <> 0

let bit_set t id =
  let w = id lsr 5 in
  Paged.grow t.active_bits (w + 1);
  Paged.set_int t.active_bits w (Paged.get_int t.active_bits w lor (1 lsl (id land 31)))

let bit_clear t id =
  let w = id lsr 5 in
  Paged.set_int t.active_bits w (Paged.get_int t.active_bits w land lnot (1 lsl (id land 31)))

(* --- value interning -------------------------------------------------------- *)

(* slot holding [v]'s id, or the first free slot of its probe chain *)
let val_find t v =
  let slots = t.val_slots and cap_mask = t.val_cap_mask in
  let s = ref (ix_slot cap_mask (Value.hash v)) in
  while
    let vid = Paged.unsafe_get_int slots !s in
    vid >= 0 && not (Value.equal (Paged.unsafe_get t.val_arr vid) v)
  do
    s := (!s + 1) land cap_mask
  done;
  !s

let value_id t v = Paged.unsafe_get_int t.val_slots (val_find t v)

let intern_value t v =
  let s = val_find t v in
  let vid = Paged.unsafe_get_int t.val_slots s in
  if vid >= 0 then vid
  else begin
    let vid = Paged.length t.val_arr in
    Paged.push t.val_arr v;
    if 2 * (vid + 1) <= t.val_cap_mask + 1 then Paged.set_int t.val_slots s vid
    else begin
      let cap = 2 * (t.val_cap_mask + 1) in
      t.val_slots <- Paged.make ~bits:Paged.slot_bits cap (-1);
      t.val_cap_mask <- cap - 1;
      for id = 0 to vid do
        Paged.set_int t.val_slots (val_find t (Paged.unsafe_get t.val_arr id)) id
      done
    end;
    vid
  end

let value_of_id t vid =
  if vid < 0 || vid >= Paged.length t.val_arr then invalid_arg "Database.value_of_id";
  Paged.unsafe_get t.val_arr vid

(* --- fact views ------------------------------------------------------------- *)

(* The view of fact [id], which must exist, read off its group's
   columns: every argument is its interning class's representative.
   Readers build one per fact they return (the EDB mirror one per EDB
   fact and update), so the common arities allocate their arrays in
   place. *)
let view t id =
  let loc = Paged.unsafe_get_int t.locs id in
  let g = t.groups.(loc lsr row_bits) and row = loc land row_mask in
  let arg i = Paged.unsafe_get t.val_arr (Paged.unsafe_get_int g.cg_cols.(i) row) in
  {
    Fact.id;
    pred = Symtab.name t.syms g.cg_sym;
    args =
      (match g.cg_arity with
      | 1 -> [| arg 0 |]
      | 2 -> [| arg 0; arg 1 |]
      | 3 -> [| arg 0; arg 1; arg 2 |]
      | n -> Array.init n arg);
  }

(* --- insertion -------------------------------------------------------------- *)

(* Deterministic key mixing (pure 63-bit int arithmetic, no per-process
   seed): collisions are re-checked column by column at probe time, so
   the combiner only needs to spread, not avalanche. *)
let key_hash_add acc vid = (acc * 1000003) + vid

let row_hash g keycols row =
  let h = ref 0 in
  Array.iter (fun c -> h := key_hash_add !h (Paged.unsafe_get_int g.cg_cols.(c) row)) keycols;
  !h

(* The fact whose columns in group [g] hold exactly the interned ids
   [vids] — the full-key index's chain for them — or -1. *)
let find_vids g vids =
  let ix = g.cg_key in
  let h = Array.fold_left (fun h c -> key_hash_add h vids.(c)) 0 ix.ix_keycols in
  let rec same row i =
    i = Array.length vids
    || (Paged.unsafe_get_int g.cg_cols.(i) row = vids.(i) && same row (i + 1))
  in
  let rec walk row =
    if row < 0 then -1
    else if same row 0 then Paged.unsafe_get_int g.cg_rows row
    else walk (Paged.unsafe_get_int ix.ix_next row)
  in
  walk (ix_first ix h)

let add t pred args =
  let gi = group_of t (intern t pred) (Array.length args) in
  let g = t.groups.(gi) in
  (* a stored tuple's values are all interned already: interning them
     first adds nothing unless the tuple is new *)
  let vids = Array.map (intern_value t) args in
  match find_vids g vids with
  | id when id >= 0 -> `Existing id
  | _ ->
    let id = size t and row = Paged.length g.cg_rows in
    Paged.push_int t.locs ((gi lsl row_bits) lor row);
    bit_set t id;
    Array.iteri (fun i vid -> Paged.push_int g.cg_cols.(i) vid) vids;
    Paged.push_int g.cg_rows id;
    let index ix = ix_add ix (row_hash g ix.ix_keycols row) row in
    index g.cg_key;
    (* an arity-1 group's single column is its full key *)
    Array.iter (fun ix -> if ix != g.cg_key then index ix) g.cg_singles;
    `Added id

let add_atom t (a : Atom.t) =
  if not (Atom.is_ground a) then Error ("non-ground fact: " ^ Atom.to_string a)
  else begin
    let args =
      Array.of_list
        (List.map (function Term.Cst c -> c | Term.Var _ -> assert false) a.args)
    in
    Ok (add t a.pred args)
  end

let deactivate t id =
  if id >= 0 && id < size t && bit_get t id then begin
    bit_clear t id;
    t.inactive_count <- t.inactive_count + 1
  end

let reactivate t id =
  if id >= 0 && id < size t && not (bit_get t id) then begin
    bit_set t id;
    t.inactive_count <- t.inactive_count - 1
  end

let is_active t id = id >= 0 && id < size t && bit_get t id
let all_active t = t.inactive_count = 0

let fact t id =
  if id < 0 || id >= size t then raise Not_found;
  view t id

let pred_sym_of_fact t id =
  if id < 0 || id >= size t then raise Not_found;
  t.groups.(Paged.unsafe_get_int t.locs id lsr row_bits).cg_sym

let pred_of_fact t id = Symtab.name t.syms (pred_sym_of_fact t id)

let find_exact t pred args =
  match Symtab.find t.syms pred with
  | None -> None
  | Some sym ->
    let gi = group_in t (Array.length args) t.pred_groups.(sym) in
    let vids = Array.map (value_id t) args in
    if gi < 0 || Array.exists (fun vid -> vid < 0) vids then None
    else
      match find_vids t.groups.(gi) vids with
      | id when id >= 0 -> Some (view t id)
      | _ -> None

(* The ids of a predicate's facts that [keep] accepts, ascending: each
   group's rows are, and a predicate has a group per arity its facts
   use. *)
let pred_ids t pred keep =
  match Symtab.find t.syms pred with
  | None -> []
  | Some sym ->
    List.fold_left
      (fun acc gi ->
        let rows = t.groups.(gi).cg_rows in
        let ids = ref [] in
        for row = Paged.length rows - 1 downto 0 do
          let id = Paged.unsafe_get_int rows row in
          if keep id then ids := id :: !ids
        done;
        List.merge Int.compare acc !ids)
      [] t.pred_groups.(sym)

let all_of_pred t pred = List.map (view t) (pred_ids t pred (fun _ -> true))
let active t pred = List.map (view t) (pred_ids t pred (is_active t))

let pred_card t pred =
  match Symtab.find t.syms pred with
  | None -> 0
  | Some sym ->
    List.fold_left
      (fun n gi -> n + Paged.length t.groups.(gi).cg_rows)
      0 t.pred_groups.(sym)

let active_all t =
  let acc = ref [] in
  for id = size t - 1 downto 0 do
    if is_active t id then acc := view t id :: !acc
  done;
  !acc

let active_size t = size t - t.inactive_count

let fingerprint t =
  let lines = ref [] in
  for id = size t - 1 downto 0 do
    if is_active t id then lines := Fact.to_string (view t id) :: !lines
  done;
  String.concat "\n" (List.sort String.compare !lines)

let fresh_null t =
  let i = t.null_counter in
  t.null_counter <- i + 1;
  Value.null i

(* Whether [f] answers true for a candidate fact id of the pattern
   under the substitution, trying them in ascending order: the
   full-key chain when every position is bound, else the shortest
   chain among the bound positions' single-column indexes, else every
   row of the pattern's group.  A bound value no fact holds leaves no
   candidate. *)
let exists_candidate t (pattern : Atom.t) subst f =
  match Symtab.find t.syms pattern.pred with
  | None -> false
  | Some sym -> (
    match group_in t (List.length pattern.args) t.pred_groups.(sym) with
    | gi when gi < 0 -> false
    | gi ->
      let g = t.groups.(gi) in
      (* interned ids of the bound positions, -1 where unbound *)
      let vids = Array.make g.cg_arity (-1) in
      let impossible = ref false in
      List.iteri
        (fun i (term : Term.t) ->
          let bound =
            match term with Term.Cst c -> Some c | Term.Var v -> Subst.find subst v
          in
          match bound with
          | None -> ()
          | Some v ->
            let vid = value_id t v in
            if vid < 0 then impossible := true else vids.(i) <- vid)
        pattern.args;
      let walk ix first =
        let rec go row =
          row >= 0
          && (f (Paged.unsafe_get_int g.cg_rows row) || go (Paged.unsafe_get_int ix.ix_next row))
        in
        go first
      in
      if !impossible then false
      else if Array.for_all (fun vid -> vid >= 0) vids then
        let ix = g.cg_key in
        walk ix (ix_first ix (Array.fold_left (fun h c -> key_hash_add h vids.(c)) 0 ix.ix_keycols))
      else begin
        let best = ref None in
        Array.iteri
          (fun i ix ->
            if vids.(i) >= 0 then begin
              let b = 4 * ix_find ix.ix_slots ix.ix_cap_mask (key_hash_add 0 vids.(i)) in
              let first = Paged.unsafe_get_int ix.ix_slots (b + 1) in
              let len = if first < 0 then 0 else Paged.unsafe_get_int ix.ix_slots (b + 3) in
              match !best with
              | Some (_, _, shorter) when shorter <= len -> ()
              | Some _ | None -> best := Some (ix, first, len)
            end)
          g.cg_singles;
        match !best with
        | Some (ix, first, _) -> walk ix first
        | None ->
          let rows = Paged.length g.cg_rows in
          let rec scan row =
            row < rows && (f (Paged.unsafe_get_int g.cg_rows row) || scan (row + 1))
          in
          scan 0
      end)

let matching t (pattern : Atom.t) subst =
  let acc = ref [] in
  ignore
    (exists_candidate t pattern subst (fun id ->
         (if is_active t id then
            let f = view t id in
            match Subst.match_atom subst ~pattern f.Fact.args with
            | Some s -> acc := (f, s) :: !acc
            | None -> ());
         false));
  List.rev !acc

let exists_matching t (pattern : Atom.t) subst =
  exists_candidate t pattern subst (fun id ->
      is_active t id && Subst.match_atom subst ~pattern (view t id).Fact.args <> None)

(* --- columnar access and hash indexes ---------------------------------------

   The hash-join matcher works entirely in interned ids: it resolves a
   pattern's constants through [value_id], folds the ids of the
   planner-chosen key columns through [key_hash_add], and walks the
   chain of candidate rows the group's index holds for that hash.
   Chains keep rows in ascending order, so the probe enumerates facts
   in exactly the ascending-id order a scan does. *)

module Cols = struct
  type group = colgroup

  let find t ~sym ~arity =
    match group_in t arity t.pred_groups.(sym) with
    | gi when gi >= 0 -> Some t.groups.(gi)
    | _ -> None
  let rows (g : group) = Paged.length g.cg_rows
  let arity (g : group) = g.cg_arity
  let fact_id (g : group) row = Paged.unsafe_get_int g.cg_rows row
  let col (g : group) i row = Paged.unsafe_get_int g.cg_cols.(i) row
end

let ensure_index t ~sym ~arity ~mask =
  if mask = 0 then 0
  else
    match Cols.find t ~sym ~arity with
    | None -> 0
    | Some g ->
      let ix =
        match Hashtbl.find_opt g.cg_indexes mask with
        | Some ix -> ix
        | None ->
          let ix = ix_create mask (cols_of_mask arity mask) in
          Hashtbl.add g.cg_indexes mask ix;
          ix
      in
      let nrows = Paged.length g.cg_rows in
      let fresh = nrows - ix.ix_rows in
      for row = ix.ix_rows to nrows - 1 do
        ix_add ix (row_hash g ix.ix_keycols row) row
      done;
      max 0 fresh

type index_handle = colindex

let index_handle (g : Cols.group) ~mask =
  match Hashtbl.find_opt g.cg_indexes mask with
  | None -> None
  | Some ix -> if ix.ix_rows <> Paged.length g.cg_rows then None else Some ix

let probe_handle (ix : index_handle) ~hash = ix_first ix hash
let chain_next (ix : index_handle) row = Paged.unsafe_get_int ix.ix_next row

(* --- snapshot codec ----------------------------------------------------------

   The encoding stores the insertion sequence, not the index
   structures: [decode] replays every fact through [add] in id order,
   which rebuilds the columnar representation (column groups and their
   kept indexes, interned value ids, activation bitmap) and re-interns
   predicates in exactly the original order (symbols are assigned at
   first insertion).  The symbol table is still written explicitly so
   decode can verify the replay reproduced it bit-for-bit.  The
   planner's other indexes are not persisted — [ensure_index] rebuilds
   them on demand. *)

let encode b t =
  Symtab.encode b t.syms;
  Wire.w_int b (size t);
  for id = 0 to size t - 1 do
    let loc = Paged.unsafe_get_int t.locs id in
    let g = t.groups.(loc lsr row_bits) and row = loc land row_mask in
    Wire.w_int b g.cg_sym;
    Wire.w_int b g.cg_arity;
    Array.iter
      (fun col -> Wire.w_value b (Paged.unsafe_get t.val_arr (Paged.unsafe_get_int col row)))
      g.cg_cols
  done;
  Wire.w_int b t.inactive_count;
  (* ascending id order reproduces the sorted list the previous
     hash-set representation wrote: the wire format is unchanged *)
  for id = 0 to size t - 1 do
    if not (bit_get t id) then Wire.w_int b id
  done;
  Wire.w_int b t.null_counter

let decode r =
  let syms = Symtab.decode r in
  let t = create () in
  let n = Wire.r_int r in
  if n < 0 then raise (Wire.Corrupt "Database: negative fact count");
  for id = 0 to n - 1 do
    let sym = Wire.r_int r in
    if sym < 0 || sym >= Symtab.size syms then
      raise (Wire.Corrupt "Database: fact symbol out of range");
    let arity = Wire.r_int r in
    if arity < 0 then raise (Wire.Corrupt "Database: negative arity");
    let args = Array.make arity (Ekg_kernel.Value.Int 0) in
    for i = 0 to arity - 1 do
      args.(i) <- Wire.r_value r
    done;
    match add t (Symtab.name syms sym) args with
    | `Added id' when id' = id -> ()
    | `Added _ | `Existing _ ->
      raise (Wire.Corrupt "Database: replay did not reproduce fact ids")
  done;
  if Symtab.size t.syms <> Symtab.size syms then
    raise (Wire.Corrupt "Database: replay did not reproduce the symbol table");
  Symtab.iter
    (fun id name ->
      if Symtab.find t.syms name <> Some id then
        raise (Wire.Corrupt "Database: replay did not reproduce the symbol table"))
    syms;
  let inactive = Wire.r_int r in
  if inactive < 0 then raise (Wire.Corrupt "Database: negative inactive count");
  for _ = 1 to inactive do
    let id = Wire.r_int r in
    if id < 0 || id >= size t then
      raise (Wire.Corrupt "Database: inactive id out of range");
    deactivate t id
  done;
  let null_counter = Wire.r_int r in
  if null_counter < 0 then
    raise (Wire.Corrupt "Database: negative null counter");
  t.null_counter <- null_counter;
  t
