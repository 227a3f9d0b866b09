open Ekg_kernel
open Ekg_datalog

(* primary key: interned predicate symbol + ground tuple *)
module Key = struct
  type t = int * Value.t array

  let equal (p1, a1) (p2, a2) =
    p1 = p2
    && Array.length a1 = Array.length a2
    &&
    let ok = ref true in
    Array.iteri (fun i v -> if not (Value.equal v a2.(i)) then ok := false) a1;
    !ok

  let hash (p, a) = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) p a
end

module KeyTbl = Hashtbl.Make (Key)

(* secondary index: facts by (predicate symbol, argument position, value) *)
module ArgKey = struct
  type t = int * int * Value.t

  let equal (p1, i1, v1) (p2, i2, v2) = p1 = p2 && i1 = i2 && Value.equal v1 v2
  let hash (p, i, v) = (p * 31) + (i * 7) + Value.hash v
end

module ArgTbl = Hashtbl.Make (ArgKey)

(* value interning: one dense id per [Value.equal]-class.  The matcher's
   hash-join core compares and hashes interned ids instead of values —
   [Value.equal] identifies numerically equal [Int]/[Num] values, so the
   interning must too, or the columnar probe would miss matches the
   tuple-level [Subst.match_atom] finds. *)
module ValTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let no_fact = { Fact.id = -1; pred = ""; args = [||] }

(* read-only: the "no posting" result of index probes *)
let empty_posting = Intvec.create ~capacity:1 ()

(* A multi-column hash index over a column group, keyed by a bitmask of
   key columns.  Buckets hold row numbers in ascending order (rows are
   only ever appended), and [ix_rows] is the watermark of rows already
   indexed: extending the index after a round's insertions only scans
   the new rows.  Collisions are benign — the matcher re-checks every
   column of a candidate row against its interned ids.

   The bucket table is open-addressing with linear probing rather than
   a stdlib [Hashtbl]: the join core issues one probe per candidate
   partial match (millions per round on dense joins) and a probe here
   is a multiply, a mask and an array walk — no seeded rehash of the
   key, no option or bucket-list allocation.  A slot is empty iff its
   bucket is physically [empty_posting]; live buckets are always
   freshly allocated, so the sentinel is unambiguous. *)
type colindex = {
  mutable ix_keys : int array;      (* full key hash per slot *)
  mutable ix_buckets : Intvec.t array;  (* rows, ascending; empty_posting = free *)
  mutable ix_used : int;            (* live slots; capacity kept > 2x *)
  mutable ix_cap_mask : int;        (* capacity - 1, capacity a power of 2 *)
  mutable ix_rows : int;            (* rows [0, ix_rows) are indexed *)
}

let ix_create () =
  {
    ix_keys = Array.make 16 0;
    ix_buckets = Array.make 16 empty_posting;
    ix_used = 0;
    ix_cap_mask = 15;
    ix_rows = 0;
  }

(* multiplicative spread of the (possibly negative) key hash into a
   slot; linear probing resolves residual clustering *)
let ix_slot cap_mask h = (h * 0x9E3779B1) land max_int land cap_mask

(* slot holding key [h], or the first free slot of its probe chain *)
let ix_find ix h =
  let cap_mask = ix.ix_cap_mask in
  let i = ref (ix_slot cap_mask h) in
  while
    ix.ix_buckets.(!i) != empty_posting && ix.ix_keys.(!i) <> h
  do
    i := (!i + 1) land cap_mask
  done;
  !i

let ix_grow ix =
  let old_keys = ix.ix_keys and old_buckets = ix.ix_buckets in
  let cap = 2 * (ix.ix_cap_mask + 1) in
  ix.ix_keys <- Array.make cap 0;
  ix.ix_buckets <- Array.make cap empty_posting;
  ix.ix_cap_mask <- cap - 1;
  Array.iteri
    (fun i bucket ->
      if bucket != empty_posting then begin
        let s = ix_find ix old_keys.(i) in
        ix.ix_keys.(s) <- old_keys.(i);
        ix.ix_buckets.(s) <- bucket
      end)
    old_buckets

let ix_add ix h row =
  if 2 * (ix.ix_used + 1) > ix.ix_cap_mask + 1 then ix_grow ix;
  let s = ix_find ix h in
  if ix.ix_buckets.(s) != empty_posting then Intvec.push ix.ix_buckets.(s) row
  else begin
    let vec = Intvec.create ~capacity:4 () in
    Intvec.push vec row;
    ix.ix_keys.(s) <- h;
    ix.ix_buckets.(s) <- vec;
    ix.ix_used <- ix.ix_used + 1
  end

(* Struct-of-arrays storage for one (predicate symbol, arity): each
   argument position is a flat column of interned value ids, and
   [cg_rows] maps row number back to fact id.  Row order is insertion
   order, i.e. ascending fact id — the property that lets the hash-join
   matcher reproduce the nested-loop matcher's enumeration order
   exactly. *)
type colgroup = {
  cg_arity : int;
  cg_cols : Intvec.t array;            (* per argument position: vids *)
  cg_rows : Intvec.t;                  (* row -> fact id *)
  cg_indexes : (int, colindex) Hashtbl.t;  (* key-column mask -> index *)
}

type t = {
  syms : Symtab.t;
  (* fact ids are dense from 0: both stores are flat growable arrays *)
  mutable facts : Fact.t array;            (* fact by id *)
  fact_syms : Intvec.t;                    (* pred symbol by fact id *)
  by_key : int KeyTbl.t;
  mutable by_pred : Intvec.t array;        (* posting list by pred symbol *)
  by_arg : Intvec.t ArgTbl.t;
  (* activation state: one bit per fact id, set = active *)
  mutable active_bits : Bytes.t;
  mutable inactive_count : int;
  (* columnar representation *)
  cols : (int * int, colgroup) Hashtbl.t;  (* (sym, arity) -> group *)
  val_ids : int ValTbl.t;                  (* value -> vid *)
  mutable val_arr : Value.t array;         (* vid -> first-interned value *)
  mutable val_count : int;
  mutable next_id : int;
  mutable null_counter : int;
}

let create () =
  {
    syms = Symtab.create ();
    facts = Array.make 256 no_fact;
    fact_syms = Intvec.create ~capacity:256 ();
    by_key = KeyTbl.create 256;
    by_pred = Array.make 16 (Intvec.create ~capacity:0 ());
    by_arg = ArgTbl.create 1024;
    active_bits = Bytes.make 32 '\000';
    inactive_count = 0;
    cols = Hashtbl.create 32;
    val_ids = ValTbl.create 1024;
    val_arr = Array.make 256 (Value.Int 0);
    val_count = 0;
    next_id = 0;
    null_counter = 0;
  }

let copy t =
  (* facts and their tuples are immutable once inserted, so sharing the
     Fact.t values is safe; every mutable container is copied.  Unused
     by_pred slots alias one shared empty vector, exactly as in
     [create] — [intern] installs a fresh posting before any push.
     Column-group hash indexes are {e not} copied: they are pure caches
     that [ensure_index] rebuilds on demand. *)
  let by_pred =
    Array.make (Array.length t.by_pred) (Intvec.create ~capacity:0 ())
  in
  for sym = 0 to Symtab.size t.syms - 1 do
    by_pred.(sym) <- Intvec.copy t.by_pred.(sym)
  done;
  let by_arg = ArgTbl.create (max 1024 (ArgTbl.length t.by_arg)) in
  ArgTbl.iter (fun k vec -> ArgTbl.add by_arg k (Intvec.copy vec)) t.by_arg;
  let cols = Hashtbl.create (max 32 (Hashtbl.length t.cols)) in
  Hashtbl.iter
    (fun k (g : colgroup) ->
      Hashtbl.add cols k
        {
          cg_arity = g.cg_arity;
          cg_cols = Array.map Intvec.copy g.cg_cols;
          cg_rows = Intvec.copy g.cg_rows;
          cg_indexes = Hashtbl.create 4;
        })
    t.cols;
  {
    syms = Symtab.copy t.syms;
    facts = Array.copy t.facts;
    fact_syms = Intvec.copy t.fact_syms;
    by_key = KeyTbl.copy t.by_key;
    by_pred;
    by_arg;
    active_bits = Bytes.copy t.active_bits;
    inactive_count = t.inactive_count;
    cols;
    val_ids = ValTbl.copy t.val_ids;
    val_arr = Array.copy t.val_arr;
    val_count = t.val_count;
    next_id = t.next_id;
    null_counter = t.null_counter;
  }

let intern t pred =
  let before = Symtab.size t.syms in
  let sym = Symtab.intern t.syms pred in
  if Symtab.size t.syms > before then begin
    (* fresh symbol: make room and install its own posting list (the
       initial array slots alias one shared empty vector) *)
    if sym >= Array.length t.by_pred then begin
      let grown =
        Array.make (max (2 * Array.length t.by_pred) (sym + 1)) t.by_pred.(0)
      in
      Array.blit t.by_pred 0 grown 0 (Array.length t.by_pred);
      t.by_pred <- grown
    end;
    t.by_pred.(sym) <- Intvec.create ()
  end;
  sym

let pred_sym t pred = Symtab.find t.syms pred

let posting t sym =
  if sym >= 0 && sym < Array.length t.by_pred then t.by_pred.(sym)
  else invalid_arg "Database.posting"

(* --- activation bitmap ------------------------------------------------------ *)

let bit_set t id =
  let byte = id lsr 3 in
  if byte >= Bytes.length t.active_bits then begin
    let grown =
      Bytes.make (max (2 * Bytes.length t.active_bits) (byte + 1)) '\000'
    in
    Bytes.blit t.active_bits 0 grown 0 (Bytes.length t.active_bits);
    t.active_bits <- grown
  end;
  Bytes.unsafe_set t.active_bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.active_bits byte) lor (1 lsl (id land 7))))

let bit_clear t id =
  let byte = id lsr 3 in
  Bytes.unsafe_set t.active_bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.active_bits byte)
       land lnot (1 lsl (id land 7))))

let bit_get t id =
  Char.code (Bytes.unsafe_get t.active_bits (id lsr 3)) land (1 lsl (id land 7))
  <> 0

(* --- value interning and column groups -------------------------------------- *)

let intern_value t v =
  match ValTbl.find_opt t.val_ids v with
  | Some vid -> vid
  | None ->
    let vid = t.val_count in
    if vid = Array.length t.val_arr then begin
      let grown = Array.make (2 * vid) (Value.Int 0) in
      Array.blit t.val_arr 0 grown 0 vid;
      t.val_arr <- grown
    end;
    t.val_arr.(vid) <- v;
    t.val_count <- vid + 1;
    ValTbl.add t.val_ids v vid;
    vid

let colgroup_of t sym arity =
  match Hashtbl.find_opt t.cols (sym, arity) with
  | Some g -> g
  | None ->
    let g =
      {
        cg_arity = arity;
        cg_cols = Array.init arity (fun _ -> Intvec.create ~capacity:16 ());
        cg_rows = Intvec.create ~capacity:16 ();
        cg_indexes = Hashtbl.create 4;
      }
    in
    Hashtbl.add t.cols (sym, arity) g;
    g

let add t pred args =
  let sym = intern t pred in
  let key = (sym, args) in
  match KeyTbl.find_opt t.by_key key with
  | Some id -> `Existing t.facts.(id)
  | None ->
    let id = t.next_id in
    t.next_id <- id + 1;
    let f = { Fact.id; pred; args } in
    if id = Array.length t.facts then begin
      let grown = Array.make (2 * id) no_fact in
      Array.blit t.facts 0 grown 0 id;
      t.facts <- grown
    end;
    t.facts.(id) <- f;
    Intvec.push t.fact_syms sym;
    KeyTbl.add t.by_key key id;
    Intvec.push t.by_pred.(sym) id;
    bit_set t id;
    Array.iteri
      (fun i v ->
        let k = (sym, i, v) in
        match ArgTbl.find_opt t.by_arg k with
        | Some vec -> Intvec.push vec id
        | None ->
          let vec = Intvec.create () in
          Intvec.push vec id;
          ArgTbl.add t.by_arg k vec)
      args;
    (* columnar mirror: append one row of interned value ids *)
    let g = colgroup_of t sym (Array.length args) in
    Array.iteri (fun i v -> Intvec.push g.cg_cols.(i) (intern_value t v)) args;
    Intvec.push g.cg_rows id;
    `Added f

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
  if id >= 0 && id < t.next_id && bit_get t id then begin
    bit_clear t id;
    t.inactive_count <- t.inactive_count + 1
  end

let reactivate t id =
  if id >= 0 && id < t.next_id && not (bit_get t id) then begin
    bit_set t id;
    t.inactive_count <- t.inactive_count - 1
  end

let is_active t id = id >= 0 && id < t.next_id && bit_get t id
let all_active t = t.inactive_count = 0

let fact t id =
  if id < 0 || id >= t.next_id then raise Not_found;
  t.facts.(id)

let pred_sym_of_fact t id =
  if id < 0 || id >= t.next_id then raise Not_found;
  Intvec.get t.fact_syms id

let find_exact t pred args =
  match Symtab.find t.syms pred with
  | None -> None
  | Some sym ->
    Option.map (fun id -> t.facts.(id)) (KeyTbl.find_opt t.by_key (sym, args))

let ids_of_pred t pred =
  match Symtab.find t.syms pred with
  | None -> []
  | Some sym -> Intvec.to_list (posting t sym)

let all_of_pred t pred = List.map (fact t) (ids_of_pred t pred)

let active t pred =
  match Symtab.find t.syms pred with
  | None -> []
  | Some sym ->
    Intvec.fold_left
      (fun acc id -> if is_active t id then t.facts.(id) :: acc else acc)
      [] (posting t sym)
    |> List.rev

let pred_card t pred =
  match Symtab.find t.syms pred with
  | None -> 0
  | Some sym -> Intvec.length (posting t sym)

let active_all t =
  let acc = ref [] in
  for id = t.next_id - 1 downto 0 do
    if is_active t id then acc := t.facts.(id) :: !acc
  done;
  !acc

let size t = t.next_id
let active_size t = size t - t.inactive_count

let fingerprint t =
  let lines = ref [] in
  for id = t.next_id - 1 downto 0 do
    if is_active t id then lines := Fact.to_string t.facts.(id) :: !lines
  done;
  String.concat "\n" (List.sort String.compare !lines)

let fresh_null t =
  let i = t.null_counter in
  t.null_counter <- i + 1;
  Value.null i

(* The narrowest candidate posting for a pattern under a substitution:
   the shortest argument index over the bound positions, else the full
   predicate posting.  Lengths are O(1), so probing every bound
   position costs a few hash lookups, not list walks. *)
let candidates t sym (pattern : Atom.t) subst =
  let best = ref None in
  List.iteri
    (fun i (term : Term.t) ->
      let bound =
        match term with
        | Term.Cst c -> Some c
        | Term.Var v -> Subst.find subst v
      in
      match bound with
      | None -> ()
      | Some v ->
        let vec =
          match ArgTbl.find_opt t.by_arg (sym, i, v) with
          | Some vec -> vec
          | None -> empty_posting
        in
        (match !best with
        | Some shorter when Intvec.length shorter <= Intvec.length vec -> ()
        | Some _ | None -> best := Some vec))
    pattern.args;
  match !best with Some vec -> vec | None -> posting t sym

let matching t (pattern : Atom.t) subst =
  match Symtab.find t.syms pattern.pred with
  | None -> []
  | Some sym ->
    let arity = List.length pattern.args in
    Intvec.fold_left
      (fun acc id ->
        if not (is_active t id) then acc
        else begin
          let f = t.facts.(id) in
          if Array.length f.Fact.args <> arity then acc
          else
            match Subst.match_atom subst ~pattern f.Fact.args with
            | Some s -> (f, s) :: acc
            | None -> acc
        end)
      []
      (candidates t sym pattern subst)
    |> List.rev

(* --- columnar access and hash indexes ---------------------------------------

   The hash-join matcher works entirely in interned ids: it resolves a
   pattern's constants through [value_id], folds the ids of the
   planner-chosen key columns through [key_hash_add], and probes the
   colgroup's index for the bucket of candidate rows.  Buckets keep rows
   in ascending order, so the probe enumerates facts in exactly the
   ascending-id order the posting scans did. *)

module Cols = struct
  type group = colgroup

  let find t ~sym ~arity = Hashtbl.find_opt t.cols (sym, arity)
  let rows (g : group) = Intvec.length g.cg_rows
  let arity (g : group) = g.cg_arity
  let fact_id (g : group) row = Intvec.unsafe_get g.cg_rows row
  let col (g : group) i row = Intvec.unsafe_get g.cg_cols.(i) row
end

let value_id t v =
  match ValTbl.find_opt t.val_ids v with Some vid -> vid | None -> -1

let value_of_id t vid =
  if vid < 0 || vid >= t.val_count then invalid_arg "Database.value_of_id";
  t.val_arr.(vid)

(* Deterministic key mixing (pure 63-bit int arithmetic, no per-process
   seed): the stdlib hashes the resulting int key again on the way into
   the bucket table, and collisions are re-checked column-by-column at
   probe time, so the combiner only needs to spread, not avalanche. *)
let key_hash_add acc vid = (acc * 1000003) + vid

let ensure_index t ~sym ~arity ~mask =
  if mask = 0 then 0
  else
    match Hashtbl.find_opt t.cols (sym, arity) with
    | None -> 0
    | Some g ->
      let ix =
        match Hashtbl.find_opt g.cg_indexes mask with
        | Some ix -> ix
        | None ->
          let ix = ix_create () in
          Hashtbl.add g.cg_indexes mask ix;
          ix
      in
      let nrows = Intvec.length g.cg_rows in
      let fresh = nrows - ix.ix_rows in
      if fresh > 0 then begin
        let keycols = ref [] in
        for i = arity - 1 downto 0 do
          if mask land (1 lsl i) <> 0 then keycols := i :: !keycols
        done;
        let keycols = Array.of_list !keycols in
        for row = ix.ix_rows to nrows - 1 do
          let h = ref 0 in
          Array.iter
            (fun c -> h := key_hash_add !h (Intvec.unsafe_get g.cg_cols.(c) row))
            keycols;
          ix_add ix !h row
        done;
        ix.ix_rows <- nrows
      end;
      max 0 fresh

type index_handle = colindex

let index_handle (g : Cols.group) ~mask =
  match Hashtbl.find_opt g.cg_indexes mask with
  | None -> None
  | Some ix -> if ix.ix_rows <> Intvec.length g.cg_rows then None else Some ix

let probe_handle (ix : index_handle) ~hash =
  let cap_mask = ix.ix_cap_mask in
  let keys = ix.ix_keys and buckets = ix.ix_buckets in
  let i = ref (ix_slot cap_mask hash) in
  let res = ref empty_posting in
  let searching = ref true in
  while !searching do
    let b = Array.unsafe_get buckets !i in
    if b == empty_posting then searching := false
    else if Array.unsafe_get keys !i = hash then begin
      res := b;
      searching := false
    end
    else i := (!i + 1) land cap_mask
  done;
  !res

let probe (g : Cols.group) ~mask ~hash =
  match Hashtbl.find_opt g.cg_indexes mask with
  | None -> None
  | Some ix ->
    if ix.ix_rows <> Intvec.length g.cg_rows then None (* stale: caller scans *)
    else Some (probe_handle ix ~hash)

let exists_matching t (pattern : Atom.t) subst =
  match Symtab.find t.syms pattern.pred with
  | None -> false
  | Some sym ->
    let arity = List.length pattern.args in
    Intvec.exists
      (fun id ->
        is_active t id
        &&
        let f = t.facts.(id) in
        Array.length f.Fact.args = arity
        && Subst.match_atom subst ~pattern f.Fact.args <> None)
      (candidates t sym pattern subst)

(* --- snapshot codec ----------------------------------------------------------

   The encoding stores the insertion sequence, not the index
   structures: [decode] replays every fact through [add] in id order,
   which rebuilds [by_key]/[by_pred]/[by_arg] {e and} the columnar
   representation (column groups, interned value ids, activation
   bitmap) and re-interns predicates in exactly the original order
   (symbols are assigned at first insertion).  The symbol table is
   still written explicitly so decode can verify the replay reproduced
   it bit-for-bit.  Hash-join indexes are caches and are not
   persisted — [ensure_index] rebuilds them on demand. *)

let encode b t =
  Symtab.encode b t.syms;
  Wire.w_int b t.next_id;
  for id = 0 to t.next_id - 1 do
    let f = t.facts.(id) in
    Wire.w_int b (Intvec.get t.fact_syms id);
    Wire.w_int b (Array.length f.Fact.args);
    Array.iter (Wire.w_value b) f.Fact.args
  done;
  Wire.w_int b t.inactive_count;
  (* ascending id order reproduces the sorted list the previous
     hash-set representation wrote: the wire format is unchanged *)
  for id = 0 to t.next_id - 1 do
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
    | `Added f when f.Fact.id = id -> ()
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
    if id < 0 || id >= t.next_id then
      raise (Wire.Corrupt "Database: inactive id out of range");
    deactivate t id
  done;
  let null_counter = Wire.r_int r in
  if null_counter < 0 then
    raise (Wire.Corrupt "Database: negative null counter");
  t.null_counter <- null_counter;
  t
