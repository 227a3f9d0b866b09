(* Tests for the chase engine: fact store, body matching, fixpoint
   semantics (set semantics, monotonic aggregation with supersession,
   stratified negation, existential heads with isomorphism preemption),
   provenance well-formedness and proof extraction. *)

open Ekg_kernel
open Ekg_datalog
open Ekg_engine

let check = Alcotest.check
let bool' = Alcotest.bool
let int' = Alcotest.int
let string' = Alcotest.string

let parse_exn src =
  match Parser.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse: %s" e

let run_exn src =
  let { Parser.program; facts } = parse_exn src in
  match Chase.run program facts with
  | Ok r -> r
  | Error e -> Alcotest.failf "chase: %s" e

let actives res pred =
  Database.active res.Chase.db pred |> List.map Fact.to_string |> List.sort String.compare

(* --- database -------------------------------------------------------------- *)

let test_database_dedup () =
  let db = Database.create () in
  let t = [| Value.str "a"; Value.int 1 |] in
  (match Database.add db "p" t with
  | `Added id -> check int' "first id" 0 id
  | `Existing _ -> Alcotest.fail "fresh tuple reported existing");
  (match Database.add db "p" [| Value.str "a"; Value.int 1 |] with
  | `Existing id -> check int' "same id" 0 id
  | `Added _ -> Alcotest.fail "duplicate tuple added twice");
  check int' "size counts distinct tuples" 1 (Database.size db)

let test_database_numeric_key_equality () =
  let db = Database.create () in
  ignore (Database.add db "p" [| Value.int 2 |]);
  match Database.add db "p" [| Value.num 2.0 |] with
  | `Existing _ -> ()
  | `Added _ -> Alcotest.fail "Int 2 and Num 2.0 should be the same tuple"

let test_database_deactivation () =
  let db = Database.create () in
  let id = match Database.add db "p" [| Value.int 1 |] with `Added id | `Existing id -> id in
  check int' "active before" 1 (List.length (Database.active db "p"));
  Database.deactivate db id;
  check int' "inactive after" 0 (List.length (Database.active db "p"));
  check int' "still addressable" id (Database.fact db id).id;
  check int' "still listed among all" 1 (List.length (Database.all_of_pred db "p"))

let test_database_matching () =
  let db = Database.create () in
  ignore (Database.add db "own" [| Value.str "a"; Value.str "b"; Value.num 0.6 |]);
  ignore (Database.add db "own" [| Value.str "a"; Value.str "c"; Value.num 0.3 |]);
  let pattern = Atom.make "own" [ Term.str "a"; Term.var "Y"; Term.var "S" ] in
  check int' "two matches" 2 (List.length (Database.matching db pattern Subst.empty));
  let bound = Subst.bind Subst.empty "Y" (Value.str "b") in
  check int' "one match under binding" 1 (List.length (Database.matching db pattern bound))

(* --- database readers against a list model ----------------------------------- *)

(* A naive model of one database: its facts by id, each value replaced
   by the first-interned member of its [Value.equal] class, with their
   activation, and those representatives in interning order. *)
type db_model = {
  mutable m_facts : (string * Value.t array * bool) array;
  mutable m_reps : Value.t list;
}

let model_find m pred args =
  let rec go id =
    if id = Array.length m.m_facts then None
    else
      let p, a, _ = m.m_facts.(id) in
      if p = pred && Array.length a = Array.length args && Array.for_all2 Value.equal a args
      then Some id
      else go (id + 1)
  in
  go 0

let model_add m pred args =
  if model_find m pred args = None then begin
    Array.iter
      (fun v -> if not (List.exists (Value.equal v) m.m_reps) then m.m_reps <- m.m_reps @ [ v ])
      args;
    let rep v = List.find (Value.equal v) m.m_reps in
    m.m_facts <- Array.append m.m_facts [| (pred, Array.map rep args, true) |]
  end

let model_fingerprint m =
  Array.to_list m.m_facts
  |> List.filter_map (fun (p, a, active) ->
         if active then Some (Atom.to_string (Atom.make p (Array.to_list (Array.map Term.cst a))))
         else None)
  |> List.sort String.compare |> String.concat "\n"

type db_op =
  | Op_add of int * string * Value.t list  (* on live database [k mod live] *)
  | Op_deactivate of int * int             (* fact [i mod size] *)
  | Op_reactivate of int * int
  | Op_copy of int

(* two members of one class, [1] and [1.0], and values no fact holds *)
let db_values = [| Value.int 1; Value.num 1.0; Value.int 2; Value.num 2.5; Value.str "a"; Value.str "b" |]
let db_probes = Array.to_list db_values @ [ Value.num 2.0; Value.str "zz" ]

let db_op_to_string = function
  | Op_add (k, p, vs) ->
    Printf.sprintf "add#%d %s(%s)" k p (String.concat ", " (List.map Value.to_string vs))
  | Op_deactivate (k, i) -> Printf.sprintf "deactivate#%d %d" k i
  | Op_reactivate (k, i) -> Printf.sprintf "reactivate#%d %d" k i
  | Op_copy k -> Printf.sprintf "copy#%d" k

(* Every reader of [db] against the model, values compared under
   [Value.equal]; the fingerprint, which renders them, as a string. *)
let check_readers what m db =
  let fail reader = QCheck2.Test.fail_reportf "%s: %s disagrees with the model" what reader in
  let n = Array.length m.m_facts in
  let ids keep = List.filter keep (List.init n Fun.id) in
  let is_active id = match m.m_facts.(id) with _, _, a -> a in
  let of_pred pred id = match m.m_facts.(id) with p, _, _ -> p = pred in
  let same (f : Fact.t) id =
    let p, a, _ = m.m_facts.(id) in
    f.Fact.id = id && f.Fact.pred = p
    && Array.length f.Fact.args = Array.length a
    && Array.for_all2 Value.equal f.Fact.args a
  in
  let same_list reader facts ids =
    if not (List.length facts = List.length ids && List.for_all2 same facts ids) then fail reader
  in
  if Database.size db <> n then fail "size";
  if Database.active_size db <> List.length (ids is_active) then fail "active_size";
  for id = 0 to n - 1 do
    if not (same (Database.fact db id) id) then fail (Printf.sprintf "fact %d" id)
  done;
  same_list "active_all" (Database.active_all db) (ids is_active);
  List.iter
    (fun pred ->
      same_list ("active " ^ pred) (Database.active db pred)
        (ids (fun id -> of_pred pred id && is_active id));
      same_list ("all_of_pred " ^ pred) (Database.all_of_pred db pred) (ids (of_pred pred));
      if Database.pred_card db pred <> List.length (ids (of_pred pred)) then fail "pred_card";
      let tuples =
        List.map (fun v -> [ v ]) db_probes
        @ List.concat_map (fun v -> List.map (fun w -> [ v; w ]) db_probes) db_probes
      in
      List.iter
        (fun args ->
          let args = Array.of_list args in
          match Database.find_exact db pred args, model_find m pred args with
          | None, None -> ()
          | Some f, Some id when same f id -> ()
          | Some _, _ | None, Some _ -> fail "find_exact")
        tuples;
      let v = Term.var and c = Term.cst in
      let patterns =
        List.map (fun args -> (args, Subst.empty))
          ([ [ v "X" ]; [ v "X"; v "Y" ]; [ v "X"; v "X" ] ]
          @ List.concat_map (fun x -> [ [ c x ]; [ c x; v "Y" ]; [ v "X"; c x ] ]) db_probes)
        @ List.map (fun x -> ([ v "X"; v "Y" ], Subst.bind Subst.empty "X" x)) db_probes
      in
      List.iter
        (fun (args, subst) ->
          let pattern = Atom.make pred args in
          let expected =
            List.filter_map
              (fun id ->
                let p, a, active = m.m_facts.(id) in
                if p = pred && active && Array.length a = List.length args then
                  Option.map (fun s -> (id, s)) (Subst.match_atom subst ~pattern a)
                else None)
              (List.init n Fun.id)
          in
          let got = Database.matching db pattern subst in
          if
            not
              (List.length got = List.length expected
              && List.for_all2 (fun (f, s) (id, s') -> same f id && Subst.equal s s') got expected)
          then fail ("matching " ^ Atom.to_string pattern);
          if Database.exists_matching db pattern subst <> (expected <> []) then
            fail ("exists_matching " ^ Atom.to_string pattern))
        patterns)
    [ "p"; "q"; "r" ];
  if Database.fingerprint db <> model_fingerprint m then fail "fingerprint"

let prop_database_readers_match_model =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 25)
        (frequency
           [
             ( 6,
               map3
                 (fun k (pred, arity) vs -> Op_add (k, pred, List.filteri (fun i _ -> i < arity) vs))
                 (int_bound 3)
                 (oneofl [ ("p", 1); ("p", 2); ("q", 2) ])
                 (list_repeat 2 (oneofa db_values)) );
             (2, map2 (fun k i -> Op_deactivate (k, i)) (int_bound 3) (int_bound 40));
             (1, map2 (fun k i -> Op_reactivate (k, i)) (int_bound 3) (int_bound 40));
             (1, map (fun k -> Op_copy k) (int_bound 3));
           ]))
  in
  let print ops = String.concat "; " (List.map db_op_to_string ops) in
  QCheck2.Test.make ~name:"readers = list model, copies and codec included" ~count:60 ~print gen
    (fun ops ->
      let live = ref [| (Database.create (), { m_facts = [||]; m_reps = [] }) |] in
      List.iteri
        (fun step op ->
          let pick k = !live.(k mod Array.length !live) in
          (match op with
          | Op_add (k, pred, vs) ->
            let db, m = pick k in
            let args = Array.of_list vs in
            ignore (Database.add db pred args);
            model_add m pred args
          | Op_deactivate (k, i) | Op_reactivate (k, i) ->
            let db, m = pick k in
            let n = Array.length m.m_facts in
            if n > 0 then begin
              let id = i mod n and on = match op with Op_reactivate _ -> true | _ -> false in
              if on then Database.reactivate db id else Database.deactivate db id;
              let p, a, _ = m.m_facts.(id) in
              m.m_facts.(id) <- (p, a, on)
            end
          | Op_copy k ->
            let db, m = pick k in
            live :=
              Array.append !live
                [| (Database.copy db, { m_facts = Array.copy m.m_facts; m_reps = m.m_reps }) |]);
          Array.iteri
            (fun k (db, m) ->
              let what = Printf.sprintf "step %d, database %d" step k in
              check_readers what m db;
              let b = Buffer.create 256 in
              Database.encode b db;
              check_readers (what ^ " decoded") m (Database.decode (Wire.reader (Buffer.contents b))))
            !live)
        ops;
      true)

(* --- columnar storage and hash indexes -------------------------------------- *)

let test_database_columnar_layout () =
  let db = Database.create () in
  ignore (Database.add db "e" [| Value.str "a"; Value.str "b" |]);
  ignore (Database.add db "e" [| Value.str "b"; Value.str "c" |]);
  ignore (Database.add db "e" [| Value.str "a"; Value.str "c" |]);
  let sym = Option.get (Database.pred_sym db "e") in
  let g = Option.get (Database.Cols.find db ~sym ~arity:2) in
  check int' "three rows" 3 (Database.Cols.rows g);
  (* rows are insertion order, columns hold interned ids *)
  for row = 0 to 2 do
    check int' "row maps to fact id" row (Database.Cols.fact_id g row)
  done;
  let a = Database.value_id db (Value.str "a") in
  check bool' "interned" true (a >= 0);
  check int' "col(0,0) = a" a (Database.Cols.col g 0 0);
  check int' "col(0,2) = a" a (Database.Cols.col g 0 2);
  check bool' "value round-trips" true
    (Value.equal (Database.value_of_id db a) (Value.str "a"));
  check int' "unseen value has no id" (-1)
    (Database.value_id db (Value.str "zebra"));
  (* Int/Num interning follows Value.equal, like tuple dedup *)
  ignore (Database.add db "n" [| Value.int 2 |]);
  check int' "Int 2 and Num 2.0 share an id"
    (Database.value_id db (Value.int 2))
    (Database.value_id db (Value.num 2.0))

let test_database_index_probe () =
  let db = Database.create () in
  let e x y z = ignore (Database.add db "e" [| Value.str x; Value.str y; Value.str z |]) in
  e "a" "b" "x";
  e "b" "c" "x";
  e "a" "c" "y";
  let sym = Option.get (Database.pred_sym db "e") in
  let g = Option.get (Database.Cols.find db ~sym ~arity:3) in
  let hash_of vs =
    List.fold_left (fun h v -> Database.key_hash_add h (Database.value_id db v)) 0 vs
  in
  let chain mask vs =
    match Database.index_handle g ~mask with
    | Some h ->
      let rec walk row = if row < 0 then [] else row :: walk (Database.chain_next h row) in
      walk (Database.probe_handle h ~hash:(hash_of vs))
    | None -> Alcotest.fail "fresh index did not answer"
  in
  (* insertion maintains one index per column and the full-key index *)
  check bool' "a-chain holds rows 0 and 2, ascending" true
    (chain 1 [ Value.str "a" ] = [ 0; 2 ]);
  check bool' "b-chain holds row 1" true (chain 1 [ Value.str "b" ] = [ 1 ]);
  check bool' "second column indexed" true (chain 2 [ Value.str "c" ] = [ 1; 2 ]);
  check bool' "full key indexed" true
    (chain 7 [ Value.str "a"; Value.str "c"; Value.str "y" ] = [ 2 ]);
  check int' "a kept index needs no build" 0
    (Database.ensure_index db ~sym ~arity:3 ~mask:1);
  (* handles walk the same chain, resolved once *)
  (match Database.index_handle g ~mask:1 with
  | None -> Alcotest.fail "kept index has no handle"
  | Some h ->
    let first = Database.probe_handle h ~hash:(hash_of [ Value.str "a" ]) in
    check int' "handle chain starts at row 0" 0 first;
    check int' "then row 2" 2 (Database.chain_next h first);
    check int' "then ends" (-1) (Database.chain_next h 2);
    check int' "absent key has no chain" (-1)
      (Database.probe_handle h ~hash:(hash_of [ Value.str "zebra" ])));
  (* a planner mask is built on demand and extended incrementally *)
  check bool' "no index yet" true (Database.index_handle g ~mask:3 = None);
  check int' "index build covers all rows" 3
    (Database.ensure_index db ~sym ~arity:3 ~mask:3);
  check int' "rebuild is incremental (no new rows)" 0
    (Database.ensure_index db ~sym ~arity:3 ~mask:3);
  check bool' "(a,c) chain is row 2" true (chain 3 [ Value.str "a"; Value.str "c" ] = [ 2 ]);
  (* staleness: a new row invalidates planner probes until re-ensured,
     while kept indexes follow every insertion *)
  e "a" "c" "z";
  check bool' "stale index yields no handle" true
    (Database.index_handle g ~mask:3 = None);
  check bool' "kept index already holds the row" true
    (chain 1 [ Value.str "a" ] = [ 0; 2; 3 ]);
  check int' "extension indexes only the new row" 1
    (Database.ensure_index db ~sym ~arity:3 ~mask:3);
  check bool' "fresh again, chain ascending" true
    (chain 3 [ Value.str "a"; Value.str "c" ] = [ 2; 3 ])

let test_database_all_active () =
  let db = Database.create () in
  let id = match Database.add db "p" [| Value.int 1 |] with `Added id | `Existing id -> id in
  check bool' "all active initially" true (Database.all_active db);
  Database.deactivate db id;
  check bool' "not all active after deactivate" false (Database.all_active db);
  Database.reactivate db id;
  check bool' "all active after reactivate" true (Database.all_active db)

(* --- plain chase ------------------------------------------------------------- *)

let test_chase_transitive_closure () =
  let res =
    run_exn
      {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
e("a", "b"). e("b", "c"). e("c", "d").
|}
  in
  check int' "six paths" 6 (List.length (Database.active res.db "path"))

let test_chase_set_semantics () =
  let res =
    run_exn
      {|
e(X, Y) -> conn(X, Y).
e(Y, X) -> conn(X, Y).
@goal(conn).
e("a", "b"). e("b", "a").
|}
  in
  (* conn(a,b) and conn(b,a), each derivable twice, stored once *)
  check int' "no duplicates" 2 (List.length (Database.active res.db "conn"))

let test_chase_joins_and_conditions () =
  let res =
    run_exn
      {|
own(X, Y, S), S > 0.5 -> majority(X, Y).
@goal(majority).
own("a", "b", 0.6). own("a", "c", 0.5). own("b", "c", 0.51).
|}
  in
  check bool' "only strict majorities" true
    (actives res "majority" = [ {|majority("a", "b")|}; {|majority("b", "c")|} ])

let test_chase_arithmetic_assignment () =
  let res =
    run_exn
      {|
pair(X, A, B), S = A + B * 2 -> total(X, S).
@goal(total).
pair("k", 1, 3).
|}
  in
  check bool' "1 + 3*2 = 7" true (actives res "total" = [ {|total("k", 7)|} ])

(* --- aggregation --------------------------------------------------------------- *)

let test_chase_sum_groups () =
  let res =
    run_exn
      {|
sale(Shop, Amount), T = sum(Amount) -> revenue(Shop, T).
@goal(revenue).
sale("x", 10). sale("x", 20). sale("y", 5).
|}
  in
  check bool' "grouped sums" true
    (actives res "revenue" = [ {|revenue("x", 30)|}; {|revenue("y", 5)|} ])

let test_chase_agg_functions () =
  let res =
    run_exn
      {|
m(K, V), R = max(V) -> maxv(K, R).
m(K, V), R = min(V) -> minv(K, R).
m(K, V), R = count(V) -> cnt(K, R).
m(K, V), R = prod(V) -> prd(K, R).
@goal(maxv).
m("k", 2). m("k", 3). m("k", 4).
|}
  in
  check bool' "max" true (actives res "maxv" = [ {|maxv("k", 4)|} ]);
  check bool' "min" true (actives res "minv" = [ {|minv("k", 2)|} ]);
  check bool' "count" true (actives res "cnt" = [ {|cnt("k", 3)|} ]);
  check bool' "prod" true (actives res "prd" = [ {|prd("k", 24)|} ])

let test_chase_monotonic_aggregation_supersedes () =
  (* C's exposure grows across rounds: first A's 3, then (once B has
     defaulted) also B's 8.  Only the final aggregate stays active; the
     stale one is superseded but kept for provenance. *)
  let res =
    run_exn
      {|
alpha: shock(F, S), hasCapital(F, P1), S > P1 -> default(F).
beta:  default(D), debts(D, C, V), E = sum(V) -> risk(C, E).
gamma: hasCapital(C, P2), risk(C, E), P2 < E -> default(C).
@goal(default).
shock("A", 6). hasCapital("A", 5). hasCapital("B", 2). hasCapital("C", 10).
debts("A", "B", 7). debts("A", "C", 3). debts("B", "C", 8).
|}
  in
  check bool' "all defaults derived" true
    (actives res "default" = [ {|default("A")|}; {|default("B")|}; {|default("C")|} ]);
  check bool' "only final aggregates active" true
    (actives res "risk" = [ {|risk("B", 7)|}; {|risk("C", 11)|} ]);
  (* the superseded risk("C", 3) is still in the chase graph *)
  let all_risk = Database.all_of_pred res.db "risk" |> List.map Fact.to_string in
  check bool' "stale aggregate kept for provenance" true
    (List.mem {|risk("C", 3)|} all_risk);
  let stale =
    Database.all_of_pred res.db "risk"
    |> List.find (fun f -> Fact.to_string f = {|risk("C", 3)|})
  in
  (match Provenance.superseded_by res.prov stale.id with
  | Some newer ->
    check string' "superseded by the full sum" {|risk("C", 11)|}
      (Fact.to_string (Database.fact res.db newer))
  | None -> Alcotest.fail "stale aggregate not marked superseded")

let test_chase_agg_condition_on_result () =
  let res =
    run_exn
      {|
own(X, Y, S), TS = sum(S), TS > 0.5 -> jointly(X, Y).
@goal(jointly).
own("a", "t", 0.3). own("a", "t", 0.3). own("b", "t", 0.3).
|}
  in
  (* the two 0.3 facts for "a" collapse under set semantics: 0.3 each *)
  check bool' "set semantics dedups equal tuples" true (actives res "jointly" = [])

let test_chase_agg_multi_contributors () =
  let res =
    run_exn
      {|
own(X, Y, S), TS = sum(S), TS > 0.5 -> jointly(X, Y).
@goal(jointly).
own("a", "t", 0.3). own("a", "t", 0.31). own("b", "t", 0.3).
|}
  in
  check bool' "0.3 + 0.31 > 0.5" true (actives res "jointly" = [ {|jointly("a", "t")|} ]);
  let f = List.hd (Database.active res.db "jointly") in
  match Provenance.derivation res.prov f.id with
  | Some d -> check int' "two contributors recorded" 2 (List.length d.contributors)
  | None -> Alcotest.fail "no derivation for aggregated fact"

let test_chase_agg_fold_order_independent () =
  (* 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit, on
     either side of 0.6: the fold must not depend on fact order *)
  let src facts =
    "own(X, T, S), TS = sum(S), TS > 0.6 -> held(T).\n@goal(held).\n" ^ facts
  in
  let a = run_exn (src {|own("a", "t", 0.1). own("b", "t", 0.2). own("c", "t", 0.3).|})
  and b = run_exn (src {|own("c", "t", 0.3). own("b", "t", 0.2). own("a", "t", 0.1).|}) in
  check string' "same instance in either fact order"
    (Database.fingerprint a.Chase.db) (Database.fingerprint b.Chase.db)

let test_chase_agg_body_vars_in_deferred_condition () =
  (* σ7-style: the deferred condition mentions a body variable (P)
     constant across the group *)
  let res =
    run_exn
      {|
exposure(C, E), capital(C, P), L = sum(E), L > P -> fail(C).
@goal(fail).
exposure("b", 4). exposure("b", 3). capital("b", 6).
exposure("s", 2). capital("s", 6).
|}
  in
  check bool' "4+3 > 6 fails b only" true (actives res "fail" = [ {|fail("b")|} ])

(* --- negation -------------------------------------------------------------------- *)

let test_chase_stratified_negation () =
  let res =
    run_exn
      {|
node(X), not hasEdge(X) -> isolated(X).
edge(X, Y) -> hasEdge(X).
@goal(isolated).
node("a"). node("b"). edge("a", "c").
|}
  in
  check bool' "only b isolated" true (actives res "isolated" = [ {|isolated("b")|} ])

let test_chase_three_strata () =
  (* negation over negation: needs three strata *)
  let res =
    run_exn
      {|
edge(X, Y) -> linked(X).
node(X), not linked(X) -> isolated(X).
node(X), not isolated(X) -> connected(X).
@goal(connected).
node("a"). node("b"). edge("a", "z").
|}
  in
  check bool' "a connected" true (actives res "connected" = [ {|connected("a")|} ]);
  check bool' "b isolated" true (actives res "isolated" = [ {|isolated("b")|} ])

let test_chase_unstratifiable_rejected () =
  let { Parser.program; facts } =
    parse_exn {|
p(X), not q(X) -> q(X).
@goal(q).
p("a").
|}
  in
  match Chase.run program facts with
  | Error msg ->
    check bool' "mentions stratification" true
      (Textutil.contains_word msg "stratifiable"
      || Textutil.contains_word msg "negation")
  | Ok _ -> Alcotest.fail "recursion through negation accepted"

(* --- existentials ------------------------------------------------------------------ *)

let test_chase_existential_nulls () =
  let res =
    run_exn {|
person(X) -> hasParent(X, Y).
@goal(hasParent).
person("a").
|}
  in
  match Database.active res.db "hasParent" with
  | [ f ] -> check bool' "second arg is a null" true (Value.is_null (Fact.arg f 1))
  | other -> Alcotest.failf "expected one fact, got %d" (List.length other)

let test_chase_isomorphism_preemption () =
  (* the recursive existential would run forever without preemption *)
  let res =
    run_exn
      {|
person(X) -> hasParent(X, Y).
hasParent(X, Y) -> person(Y).
@goal(hasParent).
person("a").
|}
  in
  (* a gets a parent ν0; ν0 is a person; ν0's parent is pre-empted by…
     itself being isomorphic to the existing hasParent(ν0, ·)? No: the
     preemption is per non-existential prefix, so hasParent(ν0, ν1) is
     blocked only when a hasParent(ν0, _) already exists.  The chain
     stops after one extra level. *)
  check bool' "terminates" true (res.rounds < 100);
  check bool' "bounded materialization" true (Database.size res.db < 20)

let test_chase_existential_satisfied_by_data () =
  let res =
    run_exn
      {|
person(X) -> hasParent(X, Y).
@goal(hasParent).
person("a"). hasParent("a", "b").
|}
  in
  (* a parent is already known: the chase step is pre-empted *)
  check int' "no null introduced" 1 (List.length (Database.active res.db "hasParent"))

(* --- termination guard --------------------------------------------------------------- *)

let test_chase_max_rounds () =
  let { Parser.program; facts } =
    parse_exn
      {|
n(X), Y = X + 1, Y < 1000000 -> n(Y).
@goal(n).
n(0).
|}
  in
  match Chase.run ~max_rounds:50 program facts with
  | Error msg -> check bool' "guard fired" true (Textutil.contains_word msg "50")
  | Ok _ -> Alcotest.fail "expected max_rounds error"

(* --- provenance and proofs ------------------------------------------------------------- *)

let example_economy =
  {|
alpha: shock(F, S), hasCapital(F, P1), S > P1 -> default(F).
beta:  default(D), debts(D, C, V), E = sum(V) -> risk(C, E).
gamma: hasCapital(C, P2), risk(C, E), P2 < E -> default(C).
@goal(default).
shock("A", 6). hasCapital("A", 5). hasCapital("B", 2). hasCapital("C", 10).
debts("A", "B", 7). debts("B", "C", 2). debts("B", "C", 9).
|}

let test_provenance_well_formed () =
  let res = run_exn example_economy in
  List.iter
    (fun id ->
      match Provenance.derivation res.prov id with
      | None -> Alcotest.fail "derived id without derivation"
      | Some d ->
        (* premises must exist and precede the conclusion *)
        List.iter
          (fun p ->
            if p >= id then Alcotest.failf "premise %d does not precede fact %d" p id)
          d.premises)
    (Provenance.derived_ids res.prov)

let test_proof_tau_order () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|default("C")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "default(C) missing"
  in
  match Proof.of_fact res.db res.prov f with
  | None -> Alcotest.fail "no proof"
  | Some proof ->
    check bool' "tau = alpha beta gamma beta gamma" true
      (Proof.rule_sequence proof = [ "alpha"; "beta"; "gamma"; "beta"; "gamma" ]);
    check int' "five chase steps" 5 (Proof.length proof);
    let multi_steps = List.filter (fun (s : Proof.step) -> s.multi) proof.steps in
    check int' "exactly one multi-contributor step" 1 (List.length multi_steps);
    (* premises precede conclusions in tau *)
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (s : Proof.step) ->
        List.iter
          (fun (p : Fact.t) ->
            match Provenance.derivation res.prov p.id with
            | Some _ when not (Hashtbl.mem seen p.id) ->
              Alcotest.fail "premise appears after its use"
            | _ -> ())
          s.premises;
        Hashtbl.replace seen s.fact.id ())
      proof.steps

let test_proof_constants () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|default("C")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "default(C) missing"
  in
  let proof = Option.get (Proof.of_fact res.db res.prov f) in
  let constants = List.map Value.to_display (Proof.constants proof) in
  List.iter
    (fun c ->
      check bool' ("proof mentions " ^ c) true (List.mem c constants))
    [ "A"; "B"; "C"; "6"; "5"; "2"; "10"; "7"; "9"; "11" ]

let test_alternative_derivations_recorded () =
  (* the goal is derivable both through a chain and directly; the
     later-arriving derivation is kept as an alternative *)
  let res =
    run_exn
      {|
chain1: a(X) -> m(X).
chain2: m(X) -> goal(X).
direct: a(X), z(X) -> goal(X).
@goal(goal).
a("k"). z("k").
|}
  in
  let f =
    match Query.parse_and_ask res.db {|goal("k")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "goal missing"
  in
  check bool' "at least two derivations" true
    (List.length (Provenance.alternatives res.prov f.id) >= 2)

let test_shortest_proof_selection () =
  (* the goal has a wide 5-step derivation (four parallel w-facts feed
     [direct]) and a narrow 3-step chain.  The wide one completes a
     round earlier — rounds match against the pre-round database, so
     the chain needs three rounds while the w-facts all land in round
     one — making it the primary; shortest-proof selection must then
     recover the chain *)
  let res =
    run_exn
      {|
chain1: a(X) -> m1(X).
chain2: m1(X) -> m2(X).
chain3: m2(X) -> goal(X).
w1: a(X) -> wa(X).
w2: a(X) -> wb(X).
w3: a(X) -> wc(X).
w4: a(X) -> wd(X).
direct: wa(X), wb(X), wc(X), wd(X) -> goal(X).
@goal(goal).
a("k").
|}
  in
  let f =
    match Query.parse_and_ask res.db {|goal("k")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "goal missing"
  in
  let primary = Option.get (Proof.of_fact res.db res.prov f) in
  let shortest = Option.get (Proof.shortest_of_fact res.db res.prov f) in
  check int' "primary is the wide derivation" 5 (Proof.length primary);
  check bool' "primary uses the direct rule" true
    (List.mem "direct" (Proof.rule_sequence primary));
  check int' "shortest follows the chain" 3 (Proof.length shortest);
  check bool' "shortest is the chain" true
    (Proof.rule_sequence shortest = [ "chain1"; "chain2"; "chain3" ])

let test_shortest_equals_primary_when_unique () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|default("C")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "default(C) missing"
  in
  let primary = Option.get (Proof.of_fact res.db res.prov f) in
  let shortest = Option.get (Proof.shortest_of_fact res.db res.prov f) in
  check bool' "identical when derivations are unique" true
    (Proof.rule_sequence primary = Proof.rule_sequence shortest)

let test_proof_truncate () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|default("C")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "default(C) missing"
  in
  let proof = Option.get (Proof.of_fact res.db res.prov f) in
  (* horizon 2: keep default(C) <- risk(C,11) <- default(B); default(B)'s
     own derivation (risk(B,7), default(A)) falls outside *)
  let truncated, assumed = Proof.truncate proof ~horizon:2 in
  check bool' "kept the last two hops" true
    (Proof.rule_sequence truncated = [ "beta"; "gamma" ]);
  check bool' "default(B) is assumed" true
    (List.exists (fun (a : Fact.t) -> Fact.to_string a = {|default("B")|}) assumed);
  (* a wide horizon is the identity *)
  let full, none = Proof.truncate proof ~horizon:100 in
  check int' "identity beyond depth" (Proof.length proof) (Proof.length full);
  check bool' "no assumptions" true (none = []);
  Alcotest.check_raises "horizon must be positive"
    (Invalid_argument "Proof.truncate: horizon must be >= 1") (fun () ->
      ignore (Proof.truncate proof ~horizon:0))

let test_proof_edb_fact_has_none () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|shock("A", 6)|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "shock missing"
  in
  check bool' "EDB facts have no proof" true (Proof.of_fact res.db res.prov f = None)

(* --- negative constraints ------------------------------------------------------------ *)

let test_constraint_violation () =
  let { Parser.program; facts } =
    parse_exn
      {|
r1: employee(X) -> person(X).
c1: person(X), robot(X) -> false.
@goal(person).
employee("ada"). robot("ada").
|}
  in
  match Chase.run program facts with
  | Error msg ->
    check bool' "names the constraint" true (Textutil.contains_word msg "c1");
    check bool' "names a triggering fact" true (Textutil.contains_word msg "robot")
  | Ok _ -> Alcotest.fail "violated constraint accepted"

let test_constraint_satisfied () =
  let { Parser.program; facts } =
    parse_exn
      {|
r1: employee(X) -> person(X).
c1: person(X), robot(X) -> false.
@goal(person).
employee("ada"). robot("hal").
|}
  in
  match Chase.run program facts with
  | Ok res -> check int' "person derived" 1 (List.length (Database.active res.db "person"))
  | Error e -> Alcotest.failf "consistent instance rejected: %s" e

let test_constraint_with_negation () =
  let { Parser.program; facts } =
    parse_exn
      {|
g: approved(X), not reviewed(X) -> false.
r: request(X) -> pending(X).
@goal(pending).
request("a"). approved("a").
|}
  in
  match Chase.run program facts with
  | Error msg -> check bool' "negation-guarded constraint fires" true (Textutil.contains_word msg "g")
  | Ok _ -> Alcotest.fail "unreviewed approval accepted"

(* --- exports --------------------------------------------------------------------------- *)

let test_export_proof_dot () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|default("C")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "default(C) missing"
  in
  let proof = Option.get (Proof.of_fact res.db res.prov f) in
  let dot = Export.proof_dot res.db proof in
  check bool' "dot header" true (Textutil.starts_with ~prefix:"digraph proof" dot);
  (* DOT escapes the inner quotes of fact renderings *)
  check bool' "mentions the goal" true
    (List.length (Textutil.split_on_string ~sep:{|default(\"C\")|} dot) > 1);
  check bool' "mentions rule labels" true
    (List.length (Textutil.split_on_string ~sep:"gamma" dot) > 1)

let test_export_chase_graph_dot () =
  (* staggered contributions so a superseded aggregate exists *)
  let res =
    run_exn
      {|
alpha: shock(F, S), hasCapital(F, P1), S > P1 -> default(F).
beta:  default(D), debts(D, C, V), E = sum(V) -> risk(C, E).
gamma: hasCapital(C, P2), risk(C, E), P2 < E -> default(C).
@goal(default).
shock("A", 6). hasCapital("A", 5). hasCapital("B", 2). hasCapital("C", 10).
debts("A", "B", 7). debts("A", "C", 3). debts("B", "C", 8).
|}
  in
  let dot = Export.chase_graph_dot res in
  check bool' "contains superseded aggregate too" true
    (List.length (Textutil.split_on_string ~sep:{|risk(\"C\", 3)|} dot) > 1);
  check bool' "contains the final aggregate" true
    (List.length (Textutil.split_on_string ~sep:{|risk(\"C\", 11)|} dot) > 1)

let test_export_instance_dot () =
  let res = run_exn example_economy in
  let dot = Export.instance_dot ~preds:[ "debts" ] res.db in
  check bool' "binary-with-value edge" true
    (List.length (Textutil.split_on_string ~sep:"debts(7)" dot) > 1
    || List.length (Textutil.split_on_string ~sep:"debts" dot) > 1);
  check bool' "filtered predicates only" true
    (List.length (Textutil.split_on_string ~sep:"hasCapital" dot) = 1)

(* --- why-provenance -------------------------------------------------------------------- *)

let test_why_single_witness () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|default("C")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "default(C) missing"
  in
  match Why.why res.db res.prov f with
  | [ witness ] ->
    (* the single witness is exactly the proof's extensional support *)
    let names = List.map Fact.to_string witness in
    List.iter
      (fun w -> check bool' ("witness contains " ^ w) true (List.mem w names))
      [ {|shock("A", 6)|}; {|debts("A", "B", 7)|}; {|hasCapital("C", 10)|} ];
    check bool' "only extensional facts" true
      (List.for_all (fun (w : Fact.t) -> Provenance.is_edb res.prov w.id) witness)
  | ws -> Alcotest.failf "expected one witness, got %d" (List.length ws)

let test_why_alternative_witnesses () =
  let res =
    run_exn
      {|
chain1: a(X) -> m(X).
chain2: m(X) -> goal(X).
direct: b(X) -> goal(X).
@goal(goal).
a("k"). b("k").
|}
  in
  let f =
    match Query.parse_and_ask res.db {|goal("k")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "goal missing"
  in
  let witnesses = Why.why res.db res.prov f in
  check int' "two independent witnesses" 2 (List.length witnesses);
  let poly = Why.polynomial res.db res.prov f in
  check bool' "polynomial is a sum" true
    (List.length (Textutil.split_on_string ~sep:" + " poly) = 2)

let test_why_minimality () =
  (* goal via b alone and via a·b: only the minimal witness {b} remains *)
  let res =
    run_exn
      {|
both: a(X), b(X) -> goal(X).
single: b(X) -> goal(X).
@goal(goal).
a("k"). b("k").
|}
  in
  let f =
    match Query.parse_and_ask res.db {|goal("k")|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "goal missing"
  in
  match Why.why res.db res.prov f with
  | [ [ w ] ] -> check string' "minimal witness is b" {|b("k")|} (Fact.to_string w)
  | ws -> Alcotest.failf "expected the single minimal witness, got %d" (List.length ws)

let test_why_edb_is_itself () =
  let res = run_exn example_economy in
  let f =
    match Query.parse_and_ask res.db {|shock("A", 6)|} with
    | Ok ((f, _) :: _) -> f
    | _ -> Alcotest.fail "shock missing"
  in
  match Why.why res.db res.prov f with
  | [ [ w ] ] -> check int' "its own witness" f.id w.id
  | _ -> Alcotest.fail "EDB fact must be its own single witness"

(* --- magic sets ----------------------------------------------------------------------- *)

let tc_program =
  {|
base: e(X, Y) -> path(X, Y).
step: path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
|}

let chain_edb n =
  List.init n (fun i ->
      Atom.make "e"
        [
          Term.str (Printf.sprintf "n%d" i); Term.str (Printf.sprintf "n%d" (i + 1));
        ])

let test_magic_prunes () =
  let { Parser.program; _ } = parse_exn tc_program in
  let edb = chain_edb 20 in
  let q =
    Atom.make "path" [ Term.str "n0"; Term.var "Y" ]
  in
  match Magic.answer program edb q, Chase.run program edb with
  | Ok a, Ok full ->
    check bool' "goal-directed path taken" true a.pruned;
    check int' "answers match the full chase" 20 (List.length a.facts);
    check bool' "fewer facts materialized" true (a.derived_count < full.derived_count)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_magic_adornments () =
  check Alcotest.string "bf" "bf"
    (Magic.adornment (Atom.make "p" [ Term.str "c"; Term.var "X" ]));
  check Alcotest.string "ff" "ff"
    (Magic.adornment (Atom.make "p" [ Term.var "X"; Term.var "Y" ]));
  check Alcotest.string "bb" "bb"
    (Magic.adornment (Atom.make "p" [ Term.int 1; Term.str "c" ]))

let test_magic_rejects_bad_queries () =
  let { Parser.program; _ } = parse_exn tc_program in
  (match Magic.rewrite program (Atom.make "nosuch" [ Term.var "X" ]) with
  | Error msg -> check bool' "unknown predicate" true (Textutil.contains_word msg "nosuch")
  | Ok _ -> Alcotest.fail "unknown predicate accepted");
  match Magic.rewrite program (Atom.make "e" [ Term.var "X"; Term.var "Y" ]) with
  | Error msg -> check bool' "extensional query" true (Textutil.contains_word msg "extensional")
  | Ok _ -> Alcotest.fail "extensional query rewritten"

let test_magic_prunes_aggregation () =
  let { Parser.program; facts } =
    parse_exn
      {|
sale(Shop, V), T = sum(V) -> revenue(Shop, T).
@goal(revenue).
sale("x", 1). sale("x", 2). sale("y", 5).
|}
  in
  (match Magic.answer program facts (Atom.make "revenue" [ Term.str "x"; Term.var "T" ]) with
  | Ok a ->
    check bool' "aggregation is in the magic fragment now" true a.pruned;
    (match a.facts with
    | [ f ] -> check string' "sum restricted to the demanded group" {|revenue("x", 3)|} (Fact.to_string f)
    | fs -> Alcotest.failf "expected one answer, got %d" (List.length fs))
  | Error e -> Alcotest.fail e);
  (* binding the aggregate result itself is outside the fragment *)
  match Magic.answer program facts (Atom.make "revenue" [ Term.str "x"; Term.int 3 ]) with
  | Ok a ->
    check bool' "bound aggregate result falls back" true (not a.pruned);
    check int' "still answers" 1 (List.length a.facts)
  | Error e -> Alcotest.fail e

let gp_program =
  {|
g1: acquisition(B, T, S), strategic(T), S > 0.1, not euEntity(B) -> goldenPower(B, T).
g2: goldenPower(B, T), not vetted(B, T) -> blockedDeal(B, T).
c1: vetted(B, T), not goldenPower(B, T) -> false.
@goal(blockedDeal).
|}

let gp_edb =
  (* a crowd of unrelated buyers: the full chase derives a golden-power
     and blocked-deal fact per buyer, the buyerA-scoped chase only its
     own slice *)
  List.concat
    (List.init 20 (fun i ->
         let b = Printf.sprintf "crowd%d" i in
         [
           Atom.make "acquisition" [ Term.str b; Term.str "gridCo"; Term.num 0.2 ];
         ]))
  @ [
      Atom.make "acquisition" [ Term.str "buyerA"; Term.str "gridCo"; Term.num 0.2 ];
      Atom.make "acquisition" [ Term.str "buyerB"; Term.str "gridCo"; Term.num 0.3 ];
      Atom.make "acquisition" [ Term.str "buyerC"; Term.str "railCo"; Term.num 0.4 ];
      Atom.make "strategic" [ Term.str "gridCo" ];
      Atom.make "strategic" [ Term.str "railCo" ];
      Atom.make "euEntity" [ Term.str "buyerB" ];
      Atom.make "vetted" [ Term.str "buyerC"; Term.str "railCo" ];
    ]

let test_magic_negation () =
  let { Parser.program; _ } = parse_exn gp_program in
  let q = Atom.make "blockedDeal" [ Term.str "buyerA"; Term.var "T" ] in
  match Magic.answer program gp_edb q, Chase.run program gp_edb with
  | Ok a, Ok full ->
    check bool' "negation is in the magic fragment now" true a.pruned;
    let magic_answers = List.map Fact.to_string a.facts |> List.sort String.compare in
    let full_answers =
      Query.ask full.db q |> List.map (fun (f, _) -> Fact.to_string f)
      |> List.sort String.compare
    in
    check Alcotest.(list string) "answers match the full chase" full_answers magic_answers;
    check bool' "fewer facts materialized" true (a.derived_count < full.derived_count)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_magic_detects_inconsistency () =
  let { Parser.program; _ } = parse_exn gp_program in
  (* vetted without golden power: c1 fires on the full instance even
     though the queried slice (buyerA) never touches it *)
  let bad =
    Atom.make "vetted" [ Term.str "buyerD"; Term.str "gridCo" ] :: gp_edb
  in
  let q = Atom.make "blockedDeal" [ Term.str "buyerA"; Term.var "T" ] in
  (match Chase.run program bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "full chase accepted an inconsistent base");
  match Magic.answer program bad q with
  | Error e ->
    check bool' "scoped chase reports the same inconsistency" true
      (Ekg_kernel.Textutil.contains_word e "constraint"
      || Ekg_kernel.Textutil.contains_word e "inconsistent")
  | Ok _ -> Alcotest.fail "scoped chase missed the constraint violation"

let test_magic_free_mask () =
  let { Parser.program; _ } = parse_exn tc_program in
  let edb = chain_edb 8 in
  let q = Atom.make "path" [ Term.var "X"; Term.var "Y" ] in
  match Magic.answer program edb q, Chase.run program edb with
  | Ok a, Ok full ->
    check bool' "all-free mask still rewrites (0-ary demand)" true a.pruned;
    check int' "same answers as the full chase"
      (List.length (Query.ask full.db q))
      (List.length a.facts)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_magic_existential_falls_back () =
  let { Parser.program; facts } =
    parse_exn
      {|
company(X) -> keyPerson(X, P).
@goal(keyPerson).
company("a").
|}
  in
  match Magic.answer program facts (Atom.make "keyPerson" [ Term.str "a"; Term.var "P" ]) with
  | Ok a ->
    check bool' "existential heads fall back" true (not a.pruned);
    check int' "still answers" 1 (List.length a.facts)
  | Error e -> Alcotest.fail e

let test_magic_unadorn_proof () =
  let { Parser.program; _ } = parse_exn tc_program in
  let edb = chain_edb 6 in
  let q = Atom.make "path" [ Term.str "n0"; Term.str "n3" ] in
  match Magic.specialize program ~pred:"path" ~mask:"bb" with
  | Error e -> Alcotest.fail e
  | Ok sp -> (
    match Chase.run sp.Magic.sp_program (edb @ Magic.seeds sp q) with
    | Error e -> Alcotest.fail e
    | Ok res -> (
      match Query.ask res.db (Magic.goal_atom sp q) with
      | [] -> Alcotest.fail "no scoped answer"
      | (f, _) :: _ -> (
        match Proof.of_fact res.db res.prov f with
        | None -> Alcotest.fail "scoped answer has no proof"
        | Some proof ->
          let plain = Magic.unadorn_proof sp proof in
          check string' "goal renamed" {|path("n0", "n3")|}
            (Fact.to_string plain.Proof.goal);
          let ids = Program.rule_ids program in
          List.iteri
            (fun i (s : Proof.step) ->
              check int' "steps re-indexed" i s.Proof.index;
              check bool'
                ("rule id restored: " ^ s.Proof.rule_id)
                true (List.mem s.Proof.rule_id ids);
              List.iter
                (fun (p : Fact.t) ->
                  check bool' "no magic premises" false
                    (List.mem p.Fact.pred sp.Magic.sp_magic_preds))
                (s.Proof.fact :: s.Proof.premises))
            plain.Proof.steps)))

let prop_magic_equals_full_chase =
  QCheck2.Test.make ~name:"magic answers = full-chase answers" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 15) (pair (int_range 0 5) (int_range 0 5)))
        (int_range 0 5))
    (fun (raw, start) ->
      let edb =
        List.map
          (fun (i, j) ->
            Atom.make "e"
              [ Term.str (Printf.sprintf "n%d" i); Term.str (Printf.sprintf "n%d" j) ])
          raw
      in
      let { Parser.program; _ } = parse_exn tc_program in
      let q =
        Atom.make "path" [ Term.str (Printf.sprintf "n%d" start); Term.var "Y" ]
      in
      match Magic.answer program edb q, Chase.run program edb with
      | Ok a, Ok full ->
        let magic_answers =
          List.map Fact.to_string a.facts |> List.sort String.compare
        in
        let full_answers =
          Query.ask full.db q
          |> List.map (fun (f, _) -> Fact.to_string f)
          |> List.sort String.compare
        in
        a.pruned && magic_answers = full_answers
        && a.derived_count <= full.derived_count
      | _ -> false)

(* The serving property behind the query lane: specializing for a
   bound/free pattern, seeding with the query constants and chasing the
   rewritten program answers exactly what filtering
   the full materialization answers — for plain, negated and
   aggregating programs alike, inconsistency detection included. *)
let ql_plain =
  {|
base: e(X, Y) -> path(X, Y).
step: path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
|}

let ql_negation =
  {|
n1: e(X, Y) -> path(X, Y).
n2: path(X, Z), e(Z, Y) -> path(X, Y).
n3: node(X), node(Y), not path(X, Y) -> unreachable(X, Y).
@goal(unreachable).
|}

let ql_aggregation =
  {|
a1: e(X, Y) -> reach(X, Y).
a2: reach(X, Z), e(Z, Y) -> reach(X, Y).
a3: reach(X, Y), w(Y, V), T = sum(V) -> inflow(X, T).
@goal(inflow).
|}

let prop_query_lane_equals_materialization =
  QCheck2.Test.make
    ~name:"query lane = filtered materialization (plain/neg/agg, any mask)"
    ~count:120
    QCheck2.Gen.(
      tup4 (int_range 0 2)
        (list_size (int_range 0 12) (pair (int_range 0 4) (int_range 0 4)))
        (pair bool bool)
        (pair (int_range 0 4) (int_range 0 4)))
    (fun (which, raw, (b1, b2), (c1, c2)) ->
      let node i = Printf.sprintf "n%d" i in
      let edb =
        List.concat_map
          (fun (i, j) ->
            [
              Atom.make "e" [ Term.str (node i); Term.str (node j) ];
              Atom.make "w" [ Term.str (node j); Term.int (1 + ((i + j) mod 3)) ];
            ])
          raw
        @ List.init 5 (fun i -> Atom.make "node" [ Term.str (node i) ])
      in
      let source, pred =
        match which with
        | 0 -> ql_plain, "path"
        | 1 -> ql_negation, "unreachable"
        | _ -> ql_aggregation, "inflow"
      in
      let { Parser.program; _ } = parse_exn source in
      let arg bound c name = if bound then Term.str (node c) else Term.var name in
      let q =
        if which = 2 then
          (* inflow's second column is the aggregate result: only its
             first column admits a bound position *)
          Atom.make pred [ arg b1 c1 "X"; Term.var "T" ]
        else Atom.make pred [ arg b1 c1 "X"; arg b2 c2 "Y" ]
      in
      let full = Chase.run_checked program edb in
      let scoped =
        match Magic.specialize program ~pred ~mask:(Magic.adornment q) with
        | Error e -> Error ("specialize: " ^ e)
        | Ok sp -> (
          match
            Chase.run_checked sp.Magic.sp_program (edb @ Magic.seeds sp q)
          with
          | Error err -> Error (Chase.error_to_string err)
          | Ok res ->
            Ok
              (Query.ask res.db (Magic.goal_atom sp q)
              |> List.map (fun (f, _) ->
                     Fact.to_string (Magic.original_fact sp f))
              |> List.sort String.compare))
      in
      match full, scoped with
      | Error _, Error _ -> true
      | Ok full, Ok scoped ->
        let filtered =
          Query.ask full.db q
          |> List.map (fun (f, _) -> Fact.to_string f)
          |> List.sort String.compare
        in
        scoped = filtered
      | Ok _, Error e -> QCheck2.Test.fail_reportf "scoped failed: %s" e
      | Error e, Ok _ ->
        QCheck2.Test.fail_reportf "full failed where scoped succeeded: %s"
          (Chase.error_to_string e))

(* --- io ---------------------------------------------------------------------------- *)

let test_csv_parsing () =
  let csv = {|# comment
"A",14000000
"B, Inc.",2.5
"quote""inside",true
|} in
  match Io.facts_of_csv ~pred:"p" csv with
  | Error e -> Alcotest.fail e
  | Ok facts ->
    check int' "three facts" 3 (List.length facts);
    (match facts with
    | [ a; b; c ] ->
      check string' "plain string + int" {|p("A", 14000000)|} (Atom.to_string a);
      check string' "comma inside quotes" {|p("B, Inc.", 2.5)|} (Atom.to_string b);
      check string' "escaped quote + bool" {|p("quote\"inside", true)|} (Atom.to_string c)
    | _ -> Alcotest.fail "unexpected shape")

let test_csv_arity_mismatch () =
  match Io.facts_of_csv ~pred:"p" "\"A\",1\n\"B\"\n" with
  | Error msg -> check bool' "line reported" true (Textutil.contains_word msg "2")
  | Ok _ -> Alcotest.fail "ragged CSV accepted"

let test_csv_roundtrip () =
  let res = run_exn example_economy in
  let facts = Database.active res.db "debts" in
  let csv = Io.facts_to_csv facts in
  match Io.facts_of_csv ~pred:"debts" csv with
  | Error e -> Alcotest.fail e
  | Ok atoms ->
    check bool' "round-trip preserves facts" true
      (List.map Atom.to_string atoms
      = List.map (fun f -> Fact.to_string f) facts)

let test_load_directory () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "ekg_io_test" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name content =
    let oc = open_out (Filename.concat dir name) in
    output_string oc content;
    close_out oc
  in
  write "shock.csv" "\"A\",6\n";
  write "hasCapital.csv" "\"A\",5\n\"B\",2\n";
  write "ignored.txt" "not csv";
  (match Io.load_directory dir with
  | Error e -> Alcotest.fail e
  | Ok facts ->
    check int' "three facts from two files" 3 (List.length facts);
    check bool' "predicate from file name" true
      (List.exists (fun (a : Atom.t) -> a.pred = "shock") facts));
  Sys.remove (Filename.concat dir "shock.csv");
  Sys.remove (Filename.concat dir "hasCapital.csv");
  Sys.remove (Filename.concat dir "ignored.txt");
  Sys.rmdir dir

let test_json_export () =
  let res = run_exn example_economy in
  let json = Io.result_to_json res in
  check bool' "facts array" true (Textutil.starts_with ~prefix:"{\"facts\": [" json);
  check bool' "derived facts carry their rule" true
    (List.length (Textutil.split_on_string ~sep:{|"rule": "gamma"|} json) > 1);
  check bool' "premise ids present" true
    (List.length (Textutil.split_on_string ~sep:{|"premises"|} json) > 1);
  (* escaping: a value with a quote must stay valid *)
  let f = { Fact.id = 0; pred = "p"; args = [| Value.str {|a"b|} |] } in
  check bool' "quotes escaped" true
    (List.length (Textutil.split_on_string ~sep:{|a\"b|} (Io.fact_to_json f)) > 1)

(* --- queries ------------------------------------------------------------------------ *)

let test_query_patterns () =
  let res = run_exn example_economy in
  (match Query.parse_and_ask res.db "default(X)" with
  | Ok matches -> check int' "three defaults" 3 (List.length matches)
  | Error e -> Alcotest.fail e);
  check bool' "holds" true (Query.holds res.db (Atom.make "default" [ Term.str "B" ]));
  check bool' "not holds" false
    (Query.holds res.db (Atom.make "default" [ Term.str "Z" ]))

(* --- properties ----------------------------------------------------------------------- *)

(* reference transitive closure *)
module SPair = Set.Make (struct
  type t = string * string

  let compare = compare
end)

let ref_closure edges =
  let step set =
    SPair.fold
      (fun (x, z) acc ->
        List.fold_left
          (fun acc (z', y) -> if z = z' then SPair.add (x, y) acc else acc)
          acc edges)
      set set
  in
  let rec fix set =
    let set' = step set in
    if SPair.equal set set' then set else fix set'
  in
  fix (SPair.of_list edges)

let edges_gen =
  QCheck2.Gen.(list_size (int_range 0 15) (pair (int_range 0 5) (int_range 0 5)))

let prop_closure_matches_reference =
  QCheck2.Test.make ~name:"chase computes reference transitive closure" ~count:100
    edges_gen (fun raw ->
      let edges =
        List.map (fun (i, j) -> (Printf.sprintf "n%d" i, Printf.sprintf "n%d" j)) raw
      in
      let facts =
        List.map (fun (x, y) -> Atom.make "e" [ Term.str x; Term.str y ]) edges
      in
      let { Parser.program; _ } =
        parse_exn {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
|}
      in
      match Chase.run program facts with
      | Error _ -> false
      | Ok res ->
        let got =
          Database.active res.db "path"
          |> List.map (fun (f : Fact.t) ->
                 (Value.to_display f.args.(0), Value.to_display f.args.(1)))
          |> List.sort compare
        in
        got = SPair.elements (ref_closure edges))

let prop_chase_deterministic =
  QCheck2.Test.make ~name:"chase is deterministic" ~count:50 edges_gen (fun raw ->
      let facts =
        List.map
          (fun (i, j) ->
            Atom.make "e" [ Term.str (string_of_int i); Term.str (string_of_int j) ])
          raw
      in
      let { Parser.program; _ } =
        parse_exn {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
|}
      in
      match Chase.run program facts, Chase.run program facts with
      | Ok a, Ok b ->
        let dump r =
          Database.active_all r.Chase.db |> List.map Fact.to_string
        in
        dump a = dump b
      | _ -> false)

(* --- join planning and interning ------------------------------------------- *)

let test_symtab () =
  let t = Symtab.create () in
  let a = Symtab.intern t "own" in
  let b = Symtab.intern t "control" in
  check bool' "distinct symbols" true (a <> b);
  check int' "re-interning is stable" a (Symtab.intern t "own");
  check int' "size" 2 (Symtab.size t);
  check string' "name round-trip" "control" (Symtab.name t b);
  check bool' "find known" true (Symtab.find t "own" = Some a);
  check bool' "find unknown" true (Symtab.find t "missing" = None)

let test_plan_ordering () =
  let rule src =
    match Parser.parse_rule src with
    | Ok r -> r
    | Error e -> Alcotest.failf "parse_rule: %s" e
  in
  let card = function "big" -> 1000 | "small" -> 5 | _ -> 0 in
  let r = rule "r: big(X, Y), small(Y, Z) -> out(X, Z)." in
  let plan = Plan.compile ~card r in
  check bool' "small atom seeds the join" true (plan.Plan.order = [| 1; 0 |]);
  check bool' "reordered flag" true plan.Plan.reordered;
  (* equal cardinalities: ties keep textual order *)
  let tie = Plan.compile ~card:(fun _ -> 7) r in
  check bool' "ties keep textual order" true (tie.Plan.order = [| 0; 1 |]);
  check bool' "identity not reordered" false tie.Plan.reordered;
  (* a bound variable makes a huge predicate cheap: after small(Y,Z),
     big(Y,W) has one bound position and beats an unbound mid(..) *)
  let r3 = rule "r3: big(Y, W), mid(A, B), small(Y, Z) -> out(W, A)." in
  let card3 = function "big" -> 1000 | "mid" -> 600 | "small" -> 5 | _ -> 0 in
  let plan3 = Plan.compile ~card:card3 r3 in
  check bool' "bound-variable discount orders big before mid" true
    (plan3.Plan.order = [| 2; 0; 1 |])

let test_exists_matching () =
  let db = Database.create () in
  ignore (Database.add db "e" [| Value.str "a"; Value.str "b" |]);
  ignore (Database.add db "e" [| Value.str "b"; Value.str "c" |]);
  let pat args = Atom.make "e" args in
  check bool' "ground hit" true
    (Database.exists_matching db (pat [ Term.str "a"; Term.str "b" ]) Subst.empty);
  check bool' "variable hit" true
    (Database.exists_matching db (pat [ Term.var "X"; Term.str "c" ]) Subst.empty);
  check bool' "miss" false
    (Database.exists_matching db (pat [ Term.str "c"; Term.var "X" ]) Subst.empty);
  check bool' "unknown predicate" false
    (Database.exists_matching db (Atom.make "q" [ Term.var "X" ]) Subst.empty);
  (* agrees with [matching] on emptiness *)
  let probe = pat [ Term.var "X"; Term.var "Y" ] in
  check bool' "consistent with matching" true
    (Database.exists_matching db probe Subst.empty
    = (Database.matching db probe Subst.empty <> []))

let test_pred_card () =
  let db = Database.create () in
  check int' "unknown predicate" 0 (Database.pred_card db "p");
  let id =
    match Database.add db "p" [| Value.int 1 |] with
    | `Added id -> id
    | `Existing _ -> Alcotest.fail "fresh"
  in
  ignore (Database.add db "p" [| Value.int 2 |]);
  ignore (Database.add db "q" [| Value.int 3 |]);
  check int' "counts facts" 2 (Database.pred_card db "p");
  Database.deactivate db id;
  check int' "deactivation does not shrink the estimate" 2
    (Database.pred_card db "p")

(* the full externally visible result: facts, ids, provenance and the
   chase graph — byte equality is the determinism contract *)
let chase_fingerprint (r : Chase.result) =
  Io.result_to_json r ^ Export.chase_graph_dot r

let test_naive_matches_seminaive_under_planner () =
  (* multi-predicate joins so the planner actually reorders; negation
     and an aggregate so every evaluation path is covered *)
  let src = {|
base1: e(X, Y) -> path(X, Y).
step: path(X, Z), e(Z, Y) -> path(X, Y).
tag: path(X, Y), label(Y, L), not blocked(X) -> tagged(X, L).
score: path(X, Y), weight(Y, W), T = sum(W) -> total(X, T).
@goal(tagged).
e("a", "b"). e("b", "c"). e("c", "d"). e("a", "c").
label("c", "mid"). label("d", "end").
weight("b", 2). weight("c", 3). weight("d", 5).
blocked("b").
|}
  in
  let { Parser.program; facts } = parse_exn src in
  let semi = Chase.run_exn program facts in
  let naive = Chase.run_exn ~naive:true program facts in
  let dump (r : Chase.result) =
    Database.active_all r.db |> List.map Fact.to_string
    |> List.sort String.compare
  in
  check bool' "same fixpoint" true (dump semi = dump naive)

(* --- the reference evaluator -------------------------------------------------

   The engine against [Reference] (reference.ml), a naive nested-loop
   evaluator that shares no evaluation code with it: both must leave
   the same active instance, labelled nulls aside, or both find the
   program inconsistent.  The properties keep their historical names:
   the hash-join engine against a nested-loop evaluator. *)

let engine_facts (r : Chase.result) =
  List.map
    (fun (f : Fact.t) -> (f.Fact.pred, Array.to_list f.Fact.args))
    (Database.active_all r.Chase.db)

let agrees_with_reference program edb (outcome : (Chase.result, Chase.error) result) =
  match outcome, Reference.run program edb with
  | Ok r, Ok facts -> Reference.canonical (engine_facts r) = Reference.canonical facts
  | Error (Chase.Inconsistent _), Error Reference.Inconsistent -> true
  | _ -> false

let check_reference msg program edb (r : Chase.result) =
  match Reference.run program edb with
  | Ok facts ->
    check string' msg (Reference.canonical facts) (Reference.canonical (engine_facts r))
  | Error _ -> Alcotest.failf "%s: the reference evaluator failed" msg

let test_reference_all_features () =
  (* negation, aggregation, arithmetic conditions and an existential
     head in one program: every matcher path in a single fixpoint *)
  let src = {|
base: e(X, Y) -> path(X, Y).
step: path(X, Z), e(Z, Y) -> path(X, Y).
tag: path(X, Y), label(Y, L), not blocked(X) -> tagged(X, L).
score: path(X, Y), weight(Y, W), T = sum(W) -> total(X, T).
spawn: tagged(X, L) -> handler(X, H).
@goal(tagged).
e("a", "b"). e("b", "c"). e("c", "d"). e("a", "c"). e("d", "a").
label("c", "mid"). label("d", "end").
weight("b", 2). weight("c", 3). weight("d", 5).
blocked("b").
|}
  in
  let { Parser.program; facts } = parse_exn src in
  List.iter
    (fun naive ->
      check_reference (Printf.sprintf "naive %b = reference" naive) program facts
        (Chase.run_exn ~naive program facts))
    [ false; true ]

(* An EDB may use a predicate at two arities: preemption compares an
   existential head only with facts of its own arity, as the reference
   does. *)
let check_preemption msg src =
  let { Parser.program; facts } = parse_exn src in
  match Chase.run_checked program facts with
  | Ok r -> check_reference msg program facts r
  | Error e -> Alcotest.failf "%s: %s" msg (Chase.error_to_string e)

let test_preemption_ignores_a_shorter_fact () =
  (* hasParent("a") covers no hasParent("a", ν) *)
  check_preemption "arity-1 fact preempts nothing"
    {|
person(X) -> hasParent(X, Y).
@goal(hasParent).
person("a"). hasParent("a").
|}

let test_preemption_beside_a_shorter_fact () =
  (* the head's second position is bound: no arity-1 fact has one *)
  check_preemption "arity-1 fact beside a binary head"
    {|
person(X) -> hasParent(Y, X).
@goal(hasParent).
person("a"). hasParent("z").
|}

let bundled_app app =
  match Ekg_apps.Bundled.load app with
  | Ok { Ekg_apps.Apps_util.pipeline; edb } -> (pipeline, edb)
  | Error e -> Alcotest.failf "%s: %s" app e

let test_reference_bundled_apps () =
  List.iter
    (fun app ->
      let pipeline, edb = bundled_app app in
      let program = pipeline.Ekg_core.Pipeline.program in
      check_reference app program edb (Chase.run_exn program edb))
    Ekg_apps.Bundled.names

(* The cold chase's output bytes (what [profile APP --fingerprint]
   prints) and the text of every goal explanation under both proof
   strategies, pinned per bundled app.  A change that moves them on
   purpose records the new digests, and why, in CHANGES.md. *)
let pinned_digests =
  [
    ( "company-control", 19, "06d605798e09d92f2dec9ac0bb5f700b",
      "046ac78a81aa761ee56a53862324abd4", "046ac78a81aa761ee56a53862324abd4" );
    ( "stress-test", 4, "8d3feae6656b709cf8f620b55fa5c098",
      "bbb95e9332a052bdae8c44fbf0feab19", "bbb95e9332a052bdae8c44fbf0feab19" );
    ( "close-link", 4, "bea5782cff97f2fb012a6ad6f8633ffa",
      "ce6ef4dacbe0277d8141fb62cbd3e4ea", "ce6ef4dacbe0277d8141fb62cbd3e4ea" );
    ( "golden-power", 2, "f038631ca1d42d5a1d551ae64f670477",
      "11984eeab7f7556df62903fb415464ec", "11984eeab7f7556df62903fb415464ec" );
  ]

let test_pinned_digests () =
  List.iter
    (fun (app, goals, output, primary, shortest) ->
      let pipeline, edb = bundled_app app in
      let res = Chase.run_exn pipeline.Ekg_core.Pipeline.program edb in
      check string' (app ^ ": output") output
        (Digest.to_hex (Digest.string (chase_fingerprint res)));
      let derived =
        List.filter
          (fun (f : Fact.t) -> not (Provenance.is_edb res.Chase.prov f.Fact.id))
          (Database.active res.Chase.db pipeline.Ekg_core.Pipeline.program.Program.goal)
      in
      check int' (app ^ ": goal explanations") goals (List.length derived);
      let texts strategy =
        List.map
          (fun f ->
            match Ekg_core.Pipeline.explain ~strategy pipeline res f with
            | Ok e -> e.Ekg_core.Pipeline.text ^ "\n" ^ e.Ekg_core.Pipeline.deterministic_text
            | Error e -> Alcotest.failf "%s: %s" app e)
          derived
        |> String.concat "\n" |> Digest.string |> Digest.to_hex
      in
      check string' (app ^ ": primary explanations") primary (texts `Primary);
      check string' (app ^ ": shortest explanations") shortest (texts `Shortest))
    pinned_digests

let generated_kg entities =
  snd
    (Ekg_datagen.Kg.atoms
       { (Ekg_datagen.Kg.default ~entities) with Ekg_datagen.Kg.exponent = 2.5; max_out_degree = 12 })

let control_program = Ekg_apps.Apps_util.parse_program_exn Ekg_datagen.Kg.program_source

let test_reference_generated_kgs () =
  let kg = generated_kg 60 in
  List.iter
    (fun (name, program) -> check_reference name program kg (Chase.run_exn program kg))
    [ ("generated control", control_program);
      ("generated close link", Ekg_apps.Close_link.program) ]

let join_program_plain = {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
|}

(* negation across strata plus a join inside the negated stratum *)
let join_program_negation = {|
e(X, Y) -> reach(X, Y).
reach(X, Z), e(Z, Y) -> reach(X, Y).
e(X, Y), not reach(Y, X) -> oneway(X, Y).
@goal(oneway).
|}

let edge_facts raw =
  List.map
    (fun (i, j) -> Atom.make "e" [ Term.str (string_of_int i); Term.str (string_of_int j) ])
    raw

let prop_join_engines_agree program_src name =
  QCheck2.Test.make ~name ~count:60 edges_gen (fun raw ->
      let facts = edge_facts raw in
      let { Parser.program; _ } = parse_exn program_src in
      agrees_with_reference program facts (Chase.run_checked program facts))

let prop_join_engines_agree_plain =
  prop_join_engines_agree join_program_plain
    "hash join = nested loop (recursive closure, semi-naive deltas)"

let prop_join_engines_agree_negation =
  prop_join_engines_agree join_program_negation
    "hash join = nested loop (stratified negation)"

let prop_join_engines_agree_naive =
  (* naive mode disables delta seeding: every round re-runs full
     passes, covering the non-delta probe path *)
  QCheck2.Test.make ~name:"hash join = nested loop (naive full passes)"
    ~count:30 edges_gen (fun raw ->
      let facts = edge_facts raw in
      List.for_all
        (fun src ->
          let { Parser.program; _ } = parse_exn src in
          agrees_with_reference program facts (Chase.run_checked ~naive:true program facts))
        [ join_program_plain; join_program_negation ])

(* Match order, which fact ids depend on.  On the programs above, over
   a cold chase of random edges: for every plain rule, under its
   cost-based plan and under a random one, the semi-naive passes over a
   random delta must return the full pass's matches that use a delta
   fact, ordered by the first plan position holding one, then by their
   fact-id tuple in plan order; and head-bound probes must return, key
   by key in the order the keys first occur, the full pass's matches
   with that key. *)
let prop_match_order =
  let gen = QCheck2.Gen.(pair edges_gen (int_range 0 1_000_000)) in
  QCheck2.Test.make ~name:"seed passes and head probes keep the full pass's order" ~count:60
    gen (fun (raw, seed) ->
      let rng = Random.State.make [| seed |] in
      let facts = edge_facts raw in
      let shape (m : Matcher.match_result) = (m.used_facts, Subst.to_list m.binding) in
      List.for_all
        (fun src ->
          let { Parser.program; _ } = parse_exn src in
          let res = Chase.run_exn program facts in
          let db = res.Chase.db in
          let delta_ids =
            List.filter (fun _ -> Random.State.int rng 3 = 0) (List.init (Database.size db) Fun.id)
          in
          let in_delta = Hashtbl.create 16 in
          List.iter (fun id -> Hashtbl.replace in_delta id ()) delta_ids;
          let delta = Matcher.delta db delta_ids in
          List.for_all
            (fun (r : Rule.t) ->
              let n = List.length (Rule.positive_atoms r) in
              let shuffled =
                let a = Array.init n Fun.id in
                for i = n - 1 downto 1 do
                  let j = Random.State.int rng (i + 1) in
                  let t = a.(i) in
                  a.(i) <- a.(j);
                  a.(j) <- t
                done;
                { Plan.order = a; reordered = true }
              in
              List.for_all
                (fun (plan : Plan.t) ->
                  let vars = Matcher.head_bound_vars r in
                  ignore (Matcher.prepare ~bound:vars ~delta db r plan);
                  let full = Matcher.match_rule ~plan db r in
                  let tuple (m : Matcher.match_result) =
                    let used = Array.of_list m.used_facts in
                    Array.to_list (Array.map (fun b -> used.(b)) plan.Plan.order)
                  in
                  let first_delta m =
                    let rec go k = function
                      | [] -> None
                      | id :: rest -> if Hashtbl.mem in_delta id then Some k else go (k + 1) rest
                    in
                    go 0 (tuple m)
                  in
                  let expected =
                    List.filter_map
                      (fun m -> Option.map (fun k -> ((k, tuple m), m)) (first_delta m))
                      full
                    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
                    |> List.map snd
                  in
                  let seeded = Matcher.match_rule ~delta ~plan db r in
                  let heads =
                    List.filter
                      (fun _ -> Random.State.bool rng)
                      (Database.active db (Rule.head_pred r))
                  in
                  let keys =
                    List.fold_left
                      (fun acc (f : Fact.t) ->
                        match Subst.match_atom Subst.empty ~pattern:r.head f.Fact.args with
                        | Some s ->
                          let k = Matcher.group_key vars s in
                          if List.mem k acc then acc else acc @ [ k ]
                        | None -> acc)
                      [] heads
                  in
                  let probed_expected =
                    List.concat_map
                      (fun k ->
                        List.filter
                          (fun (m : Matcher.match_result) -> Matcher.group_key vars m.binding = k)
                          full)
                      keys
                  in
                  let probed = Matcher.head_probe_matches ~plan ~heads db r in
                  List.map shape seeded = List.map shape expected
                  && (vars = [] || List.map shape probed = List.map shape probed_expected))
                [ Plan.compile ~card:(Database.pred_card db) r; shuffled ])
            program.Program.rules)
        [ join_program_plain; join_program_negation ])

(* --- budgets and cooperative cancellation ----------------------------------- *)

(* one new fact per round, for a million rounds: the shape a runaway
   recursive program takes in production *)
let divergent_src = {|
n(X), Y = X + 1, Y < 1000000 -> n(Y).
@goal(n).
n(0).
|}

let test_budget_rounds () =
  let { Parser.program; facts } = parse_exn divergent_src in
  match Chase.run_checked ~budget:(Chase.budget ~rounds:5 ()) program facts with
  | Error (Chase.Budget_exceeded (`Rounds, p)) ->
    check int' "stopped at the round budget" 5 p.Chase.partial_rounds;
    check int' "one fact per round" 5 p.Chase.partial_derived;
    check bool' "diagnostic names the resource" true
      (Textutil.contains_word
         (Chase.error_to_string (Chase.Budget_exceeded (`Rounds, p)))
         "budget")
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "divergent program converged?"

let test_budget_facts () =
  let { Parser.program; facts } = parse_exn divergent_src in
  match Chase.run_checked ~budget:(Chase.budget ~facts:10 ()) program facts with
  | Error (Chase.Budget_exceeded (`Facts, p)) ->
    check bool' "at least the budgeted facts" true (p.Chase.partial_derived >= 10);
    (* checked at round boundaries: one round's worth of overshoot max *)
    check bool' "no runaway overshoot" true (p.Chase.partial_derived <= 11);
    check bool' "resource exhaustion is not a client error" false
      (Chase.client_error (Chase.Budget_exceeded (`Facts, p)))
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "divergent program converged?"

let test_budget_cancel () =
  let { Parser.program; facts } = parse_exn divergent_src in
  let polls = ref 0 in
  let cancel () =
    incr polls;
    !polls > 3
  in
  match Chase.run_checked ~budget:(Chase.budget ~cancel ()) program facts with
  | Error (Chase.Cancelled p) ->
    check bool' "made some progress first" true (p.Chase.partial_rounds > 0);
    check bool' "partial stats stringify" true
      (String.length (Chase.partial_to_string p) > 0)
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "cancel hook ignored"

let test_budget_deadline_trips_mid_match () =
  (* a single cross-join round too big to finish: only the in-match
     interrupt (polled every few thousand join nodes) can stop it *)
  let n = 150 in
  let facts =
    List.concat_map
      (fun i ->
        let v = Value.int i in
        [ Atom.make "a" [ Term.Cst v ]; Atom.make "b" [ Term.Cst v ];
          Atom.make "c" [ Term.Cst v ] ])
      (List.init n (fun i -> i))
  in
  let { Parser.program; _ } =
    parse_exn {|
a(X), b(Y), c(Z) -> t(X, Y, Z).
@goal(t).
|}
  in
  let t0 = Unix.gettimeofday () in
  match
    Chase.run_checked ~budget:(Chase.within_ms 30.) program facts
  with
  | Error (Chase.Budget_exceeded (`Deadline, p)) ->
    let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    (* 150^3 insertions would take far longer than the deadline; the
       interrupt must fire well before the round completes *)
    check bool' "stopped promptly (within ~2x deadline or so)" true
      (elapsed_ms < 1000.);
    check bool' "partial wall-clock recorded" true (p.Chase.partial_wall_s > 0.)
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "join finished under an immediate deadline?"

let test_budget_converging_run_unaffected () =
  let src = {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
e("a", "b"). e("b", "c").
|}
  in
  let { Parser.program; facts } = parse_exn src in
  let far = Ekg_obs.Clock.now_s () +. 3600. in
  match
    Chase.run_checked
      ~budget:(Chase.budget ~deadline_s:far ~rounds:1000 ~facts:100000 ())
      program facts
  with
  | Ok r -> check int' "full closure derived" 3 r.Chase.derived_count
  | Error e -> Alcotest.failf "roomy budget tripped: %s" (Chase.error_to_string e)

(* the tentpole invariant: an unlimited budget is free — byte-identical
   output (facts, ids, nulls, provenance, chase graph) to no budget *)
let prop_unlimited_budget_is_identity =
  QCheck2.Test.make ~name:"unlimited budget is byte-identical to no budget"
    ~count:50 edges_gen (fun raw ->
      let facts =
        List.map
          (fun (i, j) ->
            Atom.make "e" [ Term.str (string_of_int i); Term.str (string_of_int j) ])
          raw
      in
      let { Parser.program; _ } =
        parse_exn {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
|}
      in
      match
        Chase.run program facts, Chase.run ~budget:Chase.unlimited program facts
      with
      | Ok a, Ok b -> chase_fingerprint a = chase_fingerprint b
      | _ -> false)

(* --- incremental maintenance ----------------------------------------------- *)

let tc_src = {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
@goal(path).
|}

let edge x y = Atom.make "e" [ Term.str x; Term.str y ]

let run_atoms src facts =
  let { Parser.program; _ } = parse_exn src in
  match Chase.run program facts with
  | Ok r -> (program, r)
  | Error e -> Alcotest.failf "chase: %s" e

let update_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "update: %s" (Chase.error_to_string e)

(* content identity with an independently cold-chased fact base *)
let check_matches_cold msg program res base =
  match Chase.run program base with
  | Error e -> Alcotest.failf "cold reference chase: %s" e
  | Ok cold ->
    check string' msg
      (Database.fingerprint cold.Chase.db)
      (Database.fingerprint res.Chase.db)

let test_incr_add_warm_start () =
  let program, res = run_atoms tc_src [ edge "a" "b"; edge "b" "c" ] in
  let res', upd = update_exn (Chase.add_facts program res [ edge "c" "d" ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check bool' "ran at least one round" true (upd.Chase.upd_rounds >= 1);
  check bool' "path pred reported changed" true
    (List.mem "path" upd.Chase.upd_changed_preds);
  check_matches_cold "addition = cold chase" program res'
    [ edge "a" "b"; edge "b" "c"; edge "c" "d" ];
  check bool' "new closure fact present" true
    (List.mem {|path("a", "d")|} (actives res' "path"))

let test_incr_retract_cone () =
  let program, res = run_atoms tc_src [ edge "a" "b"; edge "b" "c"; edge "c" "d" ] in
  let res', upd = update_exn (Chase.retract_facts program res [ edge "b" "c" ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check bool' "cone retracted" true (upd.Chase.upd_retracted >= 3);
  check_matches_cold "retraction = cold chase" program res'
    [ edge "a" "b"; edge "c" "d" ];
  check bool' "downstream closure gone" true
    (not (List.mem {|path("a", "d")|} (actives res' "path")))

let test_incr_retract_alternative_derivation_survives () =
  (* two disjoint supports for reach("a"): losing one must not lose the fact *)
  let src = {|
e1(X) -> reach(X).
e2(X) -> reach(X).
reach(X) -> seen(X).
@goal(seen).
|}
  in
  let a1 = Atom.make "e1" [ Term.str "a" ] and a2 = Atom.make "e2" [ Term.str "a" ] in
  let program, res = run_atoms src [ a1; a2 ] in
  let res', upd = update_exn (Chase.retract_facts program res [ a1 ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check bool' "over-deleted facts re-derived" true (upd.Chase.upd_rederived >= 1);
  check bool' "reach survives via e2" true (List.mem {|reach("a")|} (actives res' "reach"));
  check bool' "downstream seen survives" true (List.mem {|seen("a")|} (actives res' "seen"));
  check_matches_cold "survival = cold chase" program res' [ a2 ];
  (* the surviving fact's proof must now bottom out in e2, not the
     retracted e1 *)
  match Database.find_exact res'.Chase.db "reach" [| Value.str "a" |] with
  | None -> Alcotest.fail "reach(a) lost"
  | Some f -> (
    match Proof.of_fact res'.Chase.db res'.Chase.prov f with
    | None -> Alcotest.fail "no proof for surviving fact"
    | Some p ->
      let leaves = Proof.facts_used p |> List.map Fact.to_string in
      check bool' "proof grounded in surviving support" true
        (List.mem {|e2("a")|} leaves && not (List.mem {|e1("a")|} leaves)))

let test_incr_retraction_enables_negation () =
  (* deleting blocker(x) must enable the later-stratum candidate *)
  let src = {|
cand(X), not blocked(X) -> winner(X).
block(X) -> blocked(X).
@goal(winner).
|}
  in
  let cand = Atom.make "cand" [ Term.str "x" ]
  and block = Atom.make "block" [ Term.str "x" ] in
  let program, res = run_atoms src [ cand; block ] in
  check int' "blocked initially" 0 (List.length (actives res "winner"));
  let res', upd = update_exn (Chase.retract_facts program res [ block ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check bool' "winner now derived" true (List.mem {|winner("x")|} (actives res' "winner"));
  check_matches_cold "negation enablement = cold chase" program res' [ cand ]

let test_incr_addition_disables_negation () =
  let src = {|
cand(X), not blocked(X) -> winner(X).
block(X) -> blocked(X).
@goal(winner).
|}
  in
  let cand = Atom.make "cand" [ Term.str "x" ]
  and block = Atom.make "block" [ Term.str "x" ] in
  let program, res = run_atoms src [ cand ] in
  check bool' "winner before" true (List.mem {|winner("x")|} (actives res "winner"));
  let res', upd = update_exn (Chase.add_facts program res [ block ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check int' "winner withdrawn" 0 (List.length (actives res' "winner"));
  check_matches_cold "negation disablement = cold chase" program res' [ cand; block ]

(* An update that asserts a derived fact below a negation while making
   that negation fail: the asserted fact is extensional from then on,
   so the negated rule's over-deletion must not take it with the
   conclusion it used to be derived from. *)
let test_incr_asserted_fact_outlives_negation_cone () =
  let src = {|
a(X) -> q(X).
b(X), not q(X) -> r(X).
r(X) -> s(X).
@goal(s).
|}
  in
  let b = Atom.make "b" [ Term.str "1" ]
  and s = Atom.make "s" [ Term.str "1" ]
  and a = Atom.make "a" [ Term.str "1" ] in
  let program, res = run_atoms src [ b ] in
  check bool' "s derived before" true (List.mem {|s("1")|} (actives res "s"));
  let res', upd = update_exn (Chase.add_facts program res [ s; a ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check int' "r withdrawn" 0 (List.length (actives res' "r"));
  check bool' "asserted s stays" true (List.mem {|s("1")|} (actives res' "s"));
  check_matches_cold "assertion under a negation cone = cold chase" program res' [ b; s; a ]

let test_incr_add_then_retract_roundtrip () =
  let base = [ edge "a" "b"; edge "b" "c" ] in
  let program, res = run_atoms tc_src base in
  let original = Database.fingerprint res.Chase.db in
  let res', _ = update_exn (Chase.add_facts program res [ edge "c" "a"; edge "b" "d" ]) in
  check bool' "grew" true (Database.fingerprint res'.Chase.db <> original);
  let res'', _ =
    update_exn (Chase.retract_facts program res' [ edge "c" "a"; edge "b" "d" ])
  in
  check string' "exact original fingerprint restored" original
    (Database.fingerprint res''.Chase.db)

let test_incr_retract_unknown_fact () =
  let program, res = run_atoms tc_src [ edge "a" "b" ] in
  let before = Database.fingerprint res.Chase.db in
  (match Chase.retract_facts program res [ edge "z" "q" ] with
  | Error (Chase.Unknown_fact _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "retracting an absent fact succeeded");
  check string' "state untouched by rejected update" before
    (Database.fingerprint res.Chase.db)

let test_incr_retract_derived_rejected () =
  let program, res = run_atoms tc_src [ edge "a" "b" ] in
  match Chase.retract_facts program res [ Atom.make "path" [ Term.str "a"; Term.str "b" ] ] with
  | Error (Chase.Unknown_fact _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "retracting a derived fact succeeded"

let own x y w = Atom.make "own" [ Term.str x; Term.str y; Term.num w ]

let test_incr_aggregation_incremental () =
  let src = {|
own(X, Y, W), T = sum(W) -> total(Y, T).
@goal(total).
|}
  in
  let program, res = run_atoms src [ own "a" "c" 0.3; own "b" "c" 0.4 ] in
  let res', upd = update_exn (Chase.retract_facts program res [ own "b" "c" 0.4 ]) in
  check bool' "aggregation maintained incrementally" true upd.Chase.upd_incremental;
  check_matches_cold "retraction = cold chase" program res' [ own "a" "c" 0.3 ];
  check bool' "group re-aggregated" true
    (actives res' "total" = [ {|total("c", 0.3)|} ])

let test_incr_existential_falls_back () =
  (* labelled-null identity is chase-order-dependent: existential heads
     keep the full re-chase, which leaves its input untouched *)
  let src = {|
emp(X) -> worksFor(X, D).
worksFor(X, D) -> staffed(X).
@goal(staffed).
|}
  in
  let emp x = Atom.make "emp" [ Term.str x ] in
  let program, res = run_atoms src [ emp "a"; emp "b" ] in
  let before = Database.fingerprint res.Chase.db in
  let res', upd = update_exn (Chase.retract_facts program res [ emp "b" ]) in
  check bool' "fell back to full recompute" false upd.Chase.upd_incremental;
  check string' "input result untouched by fallback" before
    (Database.fingerprint res.Chase.db);
  check_matches_cold "fallback = cold chase" program res' [ emp "a" ]

(* every premise and contributor of a fact's primary derivation is
   active *)
let derivation_cites_active (res : Chase.result) (f : Fact.t) =
  match Provenance.derivation res.Chase.prov f.Fact.id with
  | None -> false
  | Some d ->
    List.for_all (Database.is_active res.Chase.db) d.Provenance.premises
    && List.for_all
         (fun (c : Provenance.contributor) ->
           List.for_all (Database.is_active res.Chase.db) c.Provenance.facts)
         d.Provenance.contributors

let test_incr_sum_round_trip () =
  (* adding a contributor supersedes the group's fact; retracting it
     brings the sum back to its earlier value, which revives the
     superseded fact under its original id *)
  let src = {|
own(X, Y, W), T = sum(W) -> total(Y, T).
@goal(total).
|}
  in
  let program, res = run_atoms src [ own "a" "c" 0.3; own "b" "c" 0.4 ] in
  let original = Database.fingerprint res.Chase.db in
  let total_id (r : Chase.result) =
    match Database.find_exact r.Chase.db "total" [| Value.str "c"; Value.num 0.7 |] with
    | Some f -> f.Fact.id
    | None -> Alcotest.fail "total(c, 0.7) missing"
  in
  let id = total_id res in
  let res', upd = update_exn (Chase.add_facts program res [ own "d" "c" 0.2 ]) in
  check bool' "addition incremental" true upd.Chase.upd_incremental;
  check bool' "earlier sum superseded" false (Database.is_active res'.Chase.db id);
  check_matches_cold "addition = cold chase" program res'
    [ own "a" "c" 0.3; own "b" "c" 0.4; own "d" "c" 0.2 ];
  let res'', upd = update_exn (Chase.retract_facts program res' [ own "d" "c" 0.2 ]) in
  check bool' "retraction incremental" true upd.Chase.upd_incremental;
  check string' "original fingerprint restored" original
    (Database.fingerprint res''.Chase.db);
  check int' "same fact revived" id (total_id res'');
  check bool' "revived fact active" true (Database.is_active res''.Chase.db id);
  check bool' "its derivation cites only active facts" true
    (derivation_cites_active res'' (Database.fact res''.Chase.db id))

let company_control_src = {|
sigma1: own(X, Y, S), S > 0.5 -> control(X, Y).
sigma2: company(X) -> control(X, X).
sigma3: control(X, Z), own(Z, Y, S), TS = sum(S), TS > 0.5 -> control(X, Y).
@goal(control).
|}

let test_incr_control_survives_other_owner () =
  (* A controls B1, B2 and B3, which jointly own 0.9 of C: losing B1's
     stake leaves 0.6, so control(A, C) survives — re-derived from the
     remaining owners, never citing the retracted stake *)
  let company x = Atom.make "company" [ Term.str x ] in
  let base =
    List.map company [ "A"; "B1"; "B2"; "B3"; "C" ]
    @ [ own "A" "B1" 0.6; own "A" "B2" 0.6; own "A" "B3" 0.6;
        own "B1" "C" 0.3; own "B2" "C" 0.3; own "B3" "C" 0.3 ]
  in
  let program, res = run_atoms company_control_src base in
  let control_ac (r : Chase.result) =
    Database.find_exact r.Chase.db "control" [| Value.str "A"; Value.str "C" |]
  in
  (match control_ac res with
  | Some f ->
    check bool' "recorded contributors include B1's stake" true
      (match Provenance.derivation res.Chase.prov f.Fact.id with
      | Some d -> List.length d.Provenance.contributors = 3
      | None -> false)
  | None -> Alcotest.fail "control(A, C) not derived");
  let res', upd = update_exn (Chase.retract_facts program res [ own "B1" "C" 0.3 ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check_matches_cold "retraction = cold chase" program res'
    (List.filter (fun a -> not (Atom.equal a (own "B1" "C" 0.3))) base);
  match control_ac res' with
  | Some f when Database.is_active res'.Chase.db f.Fact.id ->
    check bool' "derivation cites only active facts" true
      (derivation_cites_active res' f);
    check bool' "two remaining owners contribute" true
      (match Provenance.derivation res'.Chase.prov f.Fact.id with
      | Some d -> List.length d.Provenance.contributors = 2
      | None -> false)
  | Some _ | None -> Alcotest.fail "control(A, C) lost"

let test_incr_readd_makes_extensional () =
  (* asserting a tuple that is currently derived turns it extensional:
     retracting its former support no longer deletes it *)
  let program, res = run_atoms tc_src [ edge "a" "b"; edge "b" "c" ] in
  let path_ac = Atom.make "path" [ Term.str "a"; Term.str "c" ] in
  let res', _ = update_exn (Chase.add_facts program res [ path_ac ]) in
  let res'', _ = update_exn (Chase.retract_facts program res' [ edge "a" "b" ]) in
  check bool' "asserted fact survives support loss" true
    (List.mem {|path("a", "c")|} (actives res'' "path"));
  check bool' "dependent closure gone" true
    (not (List.mem {|path("a", "b")|} (actives res'' "path")))

let test_incr_update_budget_respected () =
  let program, res = run_atoms tc_src [ edge "a" "b" ] in
  let chain = List.init 60 (fun i -> edge (string_of_int i) (string_of_int (i + 1))) in
  match
    Chase.add_facts ~budget:(Chase.budget ~rounds:2 ()) program res chain
  with
  | Error (Chase.Budget_exceeded (`Rounds, p)) ->
    check bool' "partial rounds recorded" true (p.Chase.partial_rounds >= 1)
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "2-round budget survived a 60-edge chain closure"

let test_incr_inconsistent_detected () =
  let src = {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
path(X, X) -> false.
@goal(path).
|}
  in
  let program, res = run_atoms src [ edge "a" "b" ] in
  match Chase.add_facts program res [ edge "b" "a"; edge "b" "c" ] with
  | Error (Chase.Inconsistent _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "cycle admitted despite acyclicity constraint"

(* the snapshot bytes of a result: every fact, id, activation bit,
   derivation and superseded entry *)
let encoded (r : Chase.result) =
  let b = Buffer.create 4096 in
  Database.encode b r.Chase.db;
  Provenance.encode b r.Chase.prov;
  Buffer.contents b

let test_copy_result_isolated () =
  (* the copy-on-write primitive the concurrent server builds on:
     updates through either side never show through the other *)
  let program, res = run_atoms tc_src [ edge "a" "b"; edge "b" "c" ] in
  let before = encoded res in
  let copy = Chase.copy_result res in
  check string' "copy starts byte-identical" before (encoded copy);
  let copy', _ = update_exn (Chase.add_facts program copy [ edge "c" "d" ]) in
  check bool' "update visible through the copy" true
    (List.mem {|path("a", "d")|} (actives copy' "path"));
  check string' "original untouched by the copy's update" before (encoded res);
  let copy_bytes = encoded copy' in
  let idle = Chase.copy_result res in
  let res', _ = update_exn (Chase.retract_facts program res [ edge "b" "c" ]) in
  check string' "copy untouched by the original's update" copy_bytes (encoded copy');
  check string' "unwritten copy untouched by the original's update" before (encoded idle);
  check_matches_cold "original's update = cold chase" program res'
    [ edge "a" "b" ];
  check_matches_cold "copy's update = cold chase" program copy'
    [ edge "a" "b"; edge "b" "c"; edge "c" "d" ]

let test_copy_result_isolates_inconsistency () =
  (* Inconsistent is detected only after mutation — the copy absorbs
     that mutation, the original stays servable *)
  let src = {|
e(X, Y) -> path(X, Y).
path(X, Z), e(Z, Y) -> path(X, Y).
path(X, X) -> false.
@goal(path).
|}
  in
  let program, res = run_atoms src [ edge "a" "b" ] in
  let before = encoded res in
  (match Chase.add_facts program (Chase.copy_result res) [ edge "b" "a" ] with
  | Error (Chase.Inconsistent _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Chase.error_to_string e)
  | Ok _ -> Alcotest.fail "cycle admitted despite acyclicity constraint");
  check string' "original untouched by the rejected update" before (encoded res)

let test_copy_costs_page_tables () =
  (* a copy shares every page: it allocates page tables, not the KG *)
  let res =
    match Chase.run control_program (generated_kg 4000) with
    | Ok r -> r
    | Error e -> Alcotest.failf "cold chase: %s" e
  in
  let reachable = Obj.reachable_words (Obj.repr res) in
  Gc.minor ();
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let copy = Chase.copy_result res in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  ignore (Sys.opaque_identity copy);
  let allocated = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0) in
  check bool'
    (Printf.sprintf "copy allocated %.0f words of a %d-word result" allocated reachable)
    true
    (allocated <= 0.02 *. float_of_int reachable)

let test_bytes_per_fact () =
  (* each fact is stored once, in its column group: interned ids, one
     int locating it, its activation bit and its provenance *)
  let res =
    match Chase.run control_program (generated_kg 4000) with
    | Ok r -> r
    | Error e -> Alcotest.failf "cold chase: %s" e
  in
  let per_fact = Obj.reachable_words (Obj.repr res) * 8 / Database.size res.Chase.db in
  check bool'
    (Printf.sprintf "%d bytes reachable per fact (at most 460)" per_fact)
    true (per_fact <= 460)

let test_reader_on_shared_pages () =
  (* one domain re-reads a published result while another writes
     successive copies descended from it: nothing the writer does shows
     through the shared pages *)
  let check_app name pipeline goal =
    let program = pipeline.Ekg_core.Pipeline.program in
    let edb = generated_kg 60 in
    let published =
      match Chase.run program edb with Ok r -> r | Error e -> Alcotest.failf "%s: %s" name e
    in
    let goals =
      List.filteri (fun i _ -> i < 4) (Database.active published.Chase.db goal)
    in
    let read () =
      ( encoded published,
        Database.fingerprint published.Chase.db,
        List.map
          (fun f ->
            match Ekg_core.Pipeline.explain pipeline published f with
            | Ok e -> e.Ekg_core.Pipeline.text
            | Error e -> e)
          goals )
    in
    let first = read () in
    let reads = Atomic.make 0 and stop = Atomic.make false in
    let reader =
      Domain.spawn (fun () ->
          let same = ref true in
          while not (Atomic.get stop) do
            if read () <> first then same := false;
            Atomic.incr reads
          done;
          !same)
    in
    while Atomic.get reads = 0 do
      Domain.cpu_relax ()
    done;
    (* retract and re-add base facts: the writes land on pages the
       published result shares *)
    let owns =
      List.filteri (fun i _ -> i < 50) (List.filter (fun (a : Atom.t) -> a.Atom.pred = "own") edb)
    in
    let cur = ref published and updates = ref 0 and moved = ref false in
    let step update fact =
      cur := fst (update_exn (update program (Chase.copy_result !cur) [ fact ]));
      incr updates;
      if not !moved then moved := encoded !cur <> encoded published
    in
    List.iter
      (fun fact ->
        step (fun p r a -> Chase.retract_facts p r a) fact;
        step (fun p r a -> Chase.add_facts p r a) fact)
      owns;
    Atomic.set stop true;
    let same = Domain.join reader in
    check bool' (name ^ ": at least 100 updates") true (!updates >= 100);
    check bool' (name ^ ": goals explained") true (goals <> []);
    check bool' (Printf.sprintf "%s: %d reads equal the first" name (Atomic.get reads)) true same;
    check bool' (name ^ ": the writer changed the facts") true !moved
  in
  check_app "close link" (Ekg_apps.Close_link.pipeline ()) "closeLink";
  check_app "company control" (Ekg_apps.Company_control.pipeline ()) "control"

(* --- re-derivation by head-bound probes ------------------------------------

   DRed re-derives an over-deleted fact by probing the rules deriving
   it with their head bound to its values.  Each test checks content
   identity with a cold chase, and that no rule ran a full pass. *)

let check_no_full_pass msg (upd : Chase.update) = check int' msg 0 upd.Chase.upd_full_passes

let test_rederive_through_second_rule () =
  let src = {|
r1: e1(X, Y) -> link(X, Y).
r2: e2(X, Z), e3(Z, Y) -> link(X, Y).
r3: link(X, Y) -> seen(X, Y).
@goal(seen).
|}
  in
  let f p x y = Atom.make p [ Term.str x; Term.str y ] in
  let base = [ f "e1" "a" "b"; f "e2" "a" "m"; f "e3" "m" "b"; f "e1" "c" "d" ] in
  let program, res = run_atoms src base in
  let res', upd = update_exn (Chase.retract_facts program res [ f "e1" "a" "b" ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check int' "e1, link and seen over-deleted" 3 upd.Chase.upd_overdeleted;
  check int' "link and seen re-derived" 2 upd.Chase.upd_rederived;
  check int' "only the retracted fact is gone" 1 upd.Chase.upd_retracted;
  check_no_full_pass "re-derived by probes" upd;
  check bool' "link(a, b) back through r2" true
    (List.mem {|link("a", "b")|} (actives res' "link"));
  check_matches_cold "re-derivation = cold chase" program res'
    (List.tl base)

let test_rederive_second_round () =
  (* path(a, c) has one derivation, through path(a, b), which falls
     with e(a, b) and comes back through e(a, x), e(x, b) on the first
     round; path(a, c) returns only on the second, from that delta *)
  let base = [ edge "a" "b"; edge "b" "c"; edge "a" "x"; edge "x" "b" ] in
  let program, res = run_atoms tc_src base in
  let res', upd = update_exn (Chase.retract_facts program res [ edge "a" "b" ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check bool' "path(a, b) and path(a, c) re-derived" true (upd.Chase.upd_rederived >= 2);
  check bool' "a second round ran" true (upd.Chase.upd_rounds >= 2);
  check_no_full_pass "re-derived by probes" upd;
  check bool' "path(a, c) restored" true
    (List.mem {|path("a", "c")|} (actives res' "path"));
  check_matches_cold "second-round re-derivation = cold chase" program res'
    (List.tl base)

let test_rederive_repeated_head_variable () =
  let src = {|
sigma1: own(X, Y) -> control(X, Y).
sigma2: company(X) -> control(X, X).
@goal(control).
|}
  in
  let own x y = Atom.make "own" [ Term.str x; Term.str y ] in
  let company x = Atom.make "company" [ Term.str x ] in
  let base = [ company "a"; own "a" "b"; own "a" "a" ] in
  let program, res = run_atoms src base in
  let sigma2 = List.find (fun (r : Rule.t) -> r.Rule.id = "sigma2") program.Program.rules in
  let fact x y =
    match Database.find_exact res.Chase.db "control" [| Value.str x; Value.str y |] with
    | Some f -> f
    | None -> Alcotest.failf "control(%s, %s) missing" x y
  in
  check int' "control(a, b) does not unify with control(X, X): no probe, no match" 0
    (List.length (Matcher.head_probe_matches ~heads:[ fact "a" "b" ] res.Chase.db sigma2));
  check int' "control(a, a) does: one probe, matching company(a)" 1
    (List.length (Matcher.head_probe_matches ~heads:[ fact "a" "a" ] res.Chase.db sigma2));
  let res', upd = update_exn (Chase.retract_facts program res [ own "a" "b" ]) in
  check int' "control(a, b) not re-derived" 0 upd.Chase.upd_rederived;
  check_no_full_pass "no full pass" upd;
  check_matches_cold "retraction = cold chase" program res' [ company "a"; own "a" "a" ];
  let res'', upd = update_exn (Chase.retract_facts program res' [ own "a" "a" ]) in
  check int' "control(a, a) back through sigma2" 1 upd.Chase.upd_rederived;
  check_no_full_pass "re-derived by a probe" upd;
  check_matches_cold "second retraction = cold chase" program res'' [ company "a" ]

let test_rederive_unbound_head_keeps_full_pass () =
  (* V is bound only by the assignment: no probe can key on it *)
  let src = {|
e(X, W), V = W + 1 -> next(V).
@goal(next).
|}
  in
  let e x w = Atom.make "e" [ Term.str x; Term.int w ] in
  let program, res = run_atoms src [ e "a" 1; e "b" 1 ] in
  let res', upd = update_exn (Chase.retract_facts program res [ e "a" 1 ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check bool' "full pass kept" true (upd.Chase.upd_full_passes >= 1);
  check int' "next(2) back through e(b, 1)" 1 upd.Chase.upd_rederived;
  check_matches_cold "retraction = cold chase" program res' [ e "b" 1 ]

(* the recorded chase graph, alternative derivations included, has no
   cycle: {!Proof.shortest_of_fact}'s cost recursion ends only then *)
let chase_graph_acyclic (res : Chase.result) =
  let state = Hashtbl.create 64 in
  let rec visit id =
    match Hashtbl.find_opt state id with
    | Some `Done -> true
    | Some `Open -> false
    | None ->
      Hashtbl.replace state id `Open;
      let ok =
        List.for_all
          (fun (d : Provenance.derivation) -> List.for_all visit d.Provenance.premises)
          (Provenance.alternatives res.Chase.prov id)
      in
      Hashtbl.replace state id `Done;
      ok
  in
  List.for_all visit (Provenance.derived_ids res.Chase.prov)

(* every active derived fact of a result must carry a well-founded proof
   over active facts, grounded in the EDB — its primary one and its
   shortest one alike: each step's premises are concluded by an earlier
   step or are active EDB facts.  The one inactive fact a proof may use
   is a superseded aggregate: monotonic aggregation keeps it in the
   chase graph as a value its group has since exceeded (a cold chase
   cites it too), and an earlier step must conclude it, so its own
   support is checked in turn *)
let proofs_well_founded (res : Chase.result) =
  let db = res.Chase.db and prov = res.Chase.prov in
  let ordered (p : Proof.t) =
    let concluded = Hashtbl.create 16 in
    List.for_all
      (fun (s : Proof.step) ->
        let ok =
          List.for_all
            (fun (used : Fact.t) ->
              let id = used.Fact.id in
              if Database.is_active db id then
                Hashtbl.mem concluded id || Provenance.is_edb prov id
              else Provenance.superseded_by prov id <> None && Hashtbl.mem concluded id)
            s.Proof.premises
        in
        Hashtbl.replace concluded s.Proof.fact.Fact.id ();
        ok)
      p.Proof.steps
    && Hashtbl.mem concluded p.Proof.goal.Fact.id
  in
  chase_graph_acyclic res
  && List.for_all
       (fun (f : Fact.t) ->
         Provenance.is_edb prov f.Fact.id
         ||
         match Proof.of_fact db prov f, Proof.shortest_of_fact db prov f with
         | Some p, Some s -> ordered p && ordered s
         | _ -> false)
       (Database.active_all db)

let test_incr_plain_rule_revives_superseded () =
  (* t("b", 2) is the sum's first value for b, superseded once the link
     adds e("b", 1); the f-chain derives the same tuple afterwards.  A
     plain rule that re-derives an inactive tuple reactivates it, in an
     update and in a cold chase alike *)
  let src = {|
e0(X, W) -> e(X, W).
e(X, W), S = sum(W) -> t(X, S).
t(X, S), link(X, Y, V) -> e(Y, V).
f0(X, W) -> f1(X, W).
f1(X, W) -> f2(X, W).
f2(X, W) -> f3(X, W).
f3(X, W) -> t(X, W).
@goal(t).
|}
  in
  let pair p x w = Atom.make p [ Term.str x; Term.int w ] in
  let base =
    [
      pair "e0" "a" 1;
      pair "e0" "b" 2;
      Atom.make "link" [ Term.str "a"; Term.str "b"; Term.int 1 ];
    ]
  in
  let program, res = run_atoms src base in
  let res', upd = update_exn (Chase.add_facts program res [ pair "f0" "b" 2 ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check Alcotest.(list string) "t after the update"
    [ {|t("a", 1)|}; {|t("b", 2)|}; {|t("b", 3)|} ]
    (actives res' "t");
  check_matches_cold "addition = cold chase" program res' (base @ [ pair "f0" "b" 2 ]);
  check bool' "cold chase: proofs well-founded" true
    (proofs_well_founded (snd (run_atoms src (base @ [ pair "f0" "b" 2 ]))));
  check bool' "update: proofs well-founded" true (proofs_well_founded res')

(* t("b", 3), the sum's first value for b, derives e("b", 3) through the
   self-link; the sum then moves to 6.  e("b", 3) and g("b") derive
   t("b", 3) again, but by way of itself: reviving it would close a
   cycle in the chase graph, so it stays superseded *)
let test_incr_no_circular_revival () =
  let src = {|
e0(X, W) -> e(X, W).
e(X, W), S = sum(W) -> t(X, S).
t(X, S), link(X, Y, V) -> e(Y, V).
e(X, W), g(X) -> t(X, W).
@goal(t).
|}
  in
  let pair p x w = Atom.make p [ Term.str x; Term.int w ] in
  let link = Atom.make "link" [ Term.str "b"; Term.str "b"; Term.int 3 ] in
  let g = Atom.make "g" [ Term.str "b" ] in
  let base = [ pair "e0" "b" 1; pair "e0" "b" 2; link ] in
  let program, cold = run_atoms src (base @ [ g ]) in
  check bool' "incrementable" true (Chase.incrementable program);
  check Alcotest.(list string) "t after a cold chase"
    [ {|t("b", 1)|}; {|t("b", 2)|}; {|t("b", 6)|} ]
    (actives cold "t");
  check bool' "cold chase: proofs well-founded" true (proofs_well_founded cold);
  let _, res = run_atoms src base in
  let res', upd = update_exn (Chase.add_facts program res [ g ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check_matches_cold "addition = cold chase" program res' (base @ [ g ]);
  check bool' "update: proofs well-founded" true (proofs_well_founded res');
  (* without e0("b", 2) a cold chase supersedes t("b", 1), the sum's
     first value, which the update keeps as g's conclusion: the open
     aggregate/plain overlap of ROADMAP item 6, so only the provenance
     is checked here *)
  let res'', _ = update_exn (Chase.retract_facts program res' [ pair "e0" "b" 2 ]) in
  check bool' "retraction: proofs well-founded" true (proofs_well_founded res'')

(* t("b", 1), the sum's first value, derives c("b", 1) and through it
   e("b", 2); the sum moves to 3, which derives e("b", -2), and returns
   to 1.  The group's value is t("b", 1) again, so the aggregate must
   reactivate it, and its contributors cite it through c("b", 1): a
   cycle in the chase graph (ROADMAP item 6).  Explanations still end *)
let test_explanations_end_on_cyclic_revival () =
  let src = {|
e0(X, W) -> e(X, W).
e(X, W), S = sum(W) -> t(X, S).
t(X, S) -> c(X, S).
c(X, S), k(X, V) -> e(X, V).
c(X, S), m(X, V), S > 2 -> e(X, V).
@goal(t).
|}
  in
  let pair p x w = Atom.make p [ Term.str x; Term.int w ] in
  let _, res = run_atoms src [ pair "e0" "b" 1; pair "k" "b" 2; pair "m" "b" (-2) ] in
  check Alcotest.(list string) "t" [ {|t("b", 1)|} ] (actives res "t");
  check bool' "the revival closes a cycle" false (chase_graph_acyclic res);
  List.iter
    (fun (f : Fact.t) ->
      ignore (Proof.shortest_of_fact res.Chase.db res.Chase.prov f);
      ignore (Why.why res.Chase.db res.Chase.prov f))
    (Database.active_all res.Chase.db)

(* path("0", "0") loses e("0", "0") and comes back through
   path("0", "1"), itself re-derived this update from e("0", "1"); then
   path("0", "0"), e("0", "1") derives path("0", "1") once more.  The
   lower id of path("0", "0") must not let that alternative in: it would
   close a cycle between the two *)
let test_incr_rederivation_no_cycle () =
  let program, res = run_atoms tc_src [ edge "0" "0"; edge "1" "0" ] in
  let res, _ = update_exn (Chase.add_facts program res [ edge "0" "1" ]) in
  let res', upd = update_exn (Chase.retract_facts program res [ edge "0" "0" ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check_matches_cold "retraction = cold chase" program res' [ edge "1" "0"; edge "0" "1" ];
  check bool' "proofs well-founded" true (proofs_well_founded res')

let active_derived (r : Chase.result) =
  List.length
    (List.filter
       (fun (f : Fact.t) -> not (Provenance.is_edb r.Chase.prov f.Fact.id))
       (Database.active_all r.Chase.db))

(* [derived_count] is the number of active derived facts, whichever
   path made the instance: the cold chase's superseded t("b", 2) does
   not count *)
let test_incr_derived_count () =
  let src = {|
e0(X, W) -> e(X, W).
e(X, W), S = sum(W) -> t(X, S).
t(X, S), link(X, Y, V) -> e(Y, V).
@goal(t).
|}
  in
  let e0 x w = Atom.make "e0" [ Term.str x; Term.int w ] in
  let link = Atom.make "link" [ Term.str "a"; Term.str "b"; Term.int 1 ] in
  let base = [ e0 "a" 1; e0 "b" 2; link ] in
  let program, cold = run_atoms src base in
  check int' "cold chase" 5 cold.Chase.derived_count;
  check int' "cold chase counts the active derived facts" (active_derived cold)
    cold.Chase.derived_count;
  let retracted, _ =
    update_exn (Chase.retract_facts program (Chase.copy_result cold) [ e0 "a" 1 ])
  in
  check int' "after the retraction" (active_derived retracted) retracted.Chase.derived_count;
  let readded, _ = update_exn (Chase.add_facts program retracted [ e0 "a" 1 ]) in
  check_matches_cold "re-added = cold chase" program readded base;
  check int' "re-added = cold chase" cold.Chase.derived_count readded.Chase.derived_count

(* the paper's own programs: retract each scenario EDB fact in turn from
   a copy of the cold materialization, then re-add it.  After each step
   the maintained state equals a cold chase of the same base, with
   well-founded provenance, and an update fails exactly when that cold
   chase does: golden power's constraint c1 fires without the
   acquisition it screens or the strategic flag that makes it
   screened.  A seeded sample of the steps also meets the reference
   evaluator. *)
let test_incr_bundled_apps_retract_readd () =
  let failed = ref [] in
  let sample = Random.State.make [| 19 |] in
  List.iter
    (fun app ->
      let program, edb =
        match Ekg_apps.Bundled.load app with
        | Ok { Ekg_apps.Apps_util.pipeline; edb } ->
          (pipeline.Ekg_core.Pipeline.program, edb)
        | Error e -> Alcotest.failf "%s: %s" app e
      in
      let cold =
        match Chase.run program edb with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s: cold chase: %s" app e
      in
      let step msg base update =
        match update, Chase.run_checked program base with
        | Ok (res, _), Ok cold ->
          check string' msg
            (Database.fingerprint cold.Chase.db)
            (Database.fingerprint res.Chase.db);
          check bool' (msg ^ ": proofs well-founded") true (proofs_well_founded res);
          check int' (msg ^ ": derived count") (active_derived res) res.Chase.derived_count;
          if Random.State.int sample 16 = 0 then check_reference msg program base res;
          Some res
        | Error (Chase.Inconsistent _), Error (Chase.Inconsistent _) ->
          failed := msg :: !failed;
          None
        | Ok _, Error e ->
          Alcotest.failf "%s: only the cold chase failed: %s" msg (Chase.error_to_string e)
        | Error e, _ -> Alcotest.failf "%s: update failed: %s" msg (Chase.error_to_string e)
      in
      List.iter
        (fun fact ->
          let msg = Printf.sprintf "%s: retract %s" app (Atom.to_string fact) in
          let rest = List.filter (fun a -> not (Atom.equal a fact)) edb in
          let retracted = Chase.retract_facts program (Chase.copy_result cold) [ fact ] in
          match step msg rest retracted with
          | None -> ()
          | Some res ->
            ignore (step (msg ^ ", re-add") edb (Chase.add_facts program res [ fact ])))
        edb)
    Ekg_apps.Bundled.names;
  check Alcotest.(list string) "updates failing with their cold chase"
    [
      {|golden-power: retract acquisition("ForeignBank", "TelecomCo", 0.3)|};
      {|golden-power: retract strategic("TelecomCo")|};
    ]
    (List.sort String.compare !failed)

(* random edge set, then a random add/retract sequence: the maintained
   state must stay byte-identical (content fingerprint) to a cold chase
   of the final fact base, with well-founded provenance throughout, and
   equal the reference evaluator's instance of the current base after
   every step *)
let prop_incremental_equals_cold =
  let gen =
    QCheck2.Gen.(pair edges_gen (list_size (int_range 1 6) (pair bool (pair (int_range 0 5) (int_range 0 5)))))
  in
  let print (raw, ops) =
    Printf.sprintf "base=[%s] ops=[%s]"
      (String.concat ";" (List.map (fun (i, j) -> Printf.sprintf "(%d,%d)" i j) raw))
      (String.concat ";"
         (List.map
            (fun (b, (i, j)) ->
              Printf.sprintf "%s(%d,%d)" (if b then "add" else "del") i j)
            ops))
  in
  QCheck2.Test.make ~print
    ~name:"incremental updates are byte-identical to cold chase"
    ~count:60 gen (fun (raw, ops) ->
      let atom (i, j) = edge (string_of_int i) (string_of_int j) in
      let { Parser.program; _ } = parse_exn tc_src in
      let base = List.map atom raw in
      match Chase.run program base with
      | Error _ -> false
      | Ok res ->
        let keys = Hashtbl.create 16 in
        List.iter (fun (i, j) -> Hashtbl.replace keys (i, j) ()) raw;
        let current () = Hashtbl.fold (fun ij () acc -> atom ij :: acc) keys [] in
        let res = ref res and ok = ref true in
        List.iter
          (fun (is_add, ij) ->
            if !ok then begin
              let update =
                if is_add || not (Hashtbl.mem keys ij) then begin
                  Hashtbl.replace keys ij ();
                  Chase.add_facts program !res [ atom ij ]
                end
                else begin
                  Hashtbl.remove keys ij;
                  Chase.retract_facts program !res [ atom ij ]
                end
              in
              match update with
              | Ok (r, _) ->
                res := r;
                ok := agrees_with_reference program (current ()) (Ok r)
              | Error _ -> ok := false
            end)
          ops;
        !ok
        &&
        let final_base = current () in
        match Chase.run program final_base with
        | Error _ -> false
        | Ok cold ->
          Database.fingerprint cold.Chase.db = Database.fingerprint !res.Chase.db
          && proofs_well_founded !res)

(* same invariant through the stratified-negation path, with a rule
   below the negation: batches of up to three atoms, asserted or
   retracted in one update, derived predicates' atoms included (an
   assertion makes the fact extensional); after every update the state
   equals a cold chase and the reference evaluator's instance of the
   current base *)
let prop_incremental_negation_equals_cold =
  let gen =
    QCheck2.Gen.(
      pair edges_gen
        (list_size (int_range 1 5)
           (pair bool (list_size (int_range 1 3) (pair (int_range 0 3) (int_range 0 5))))))
  in
  let atom_of (kind, i) =
    match kind with
    | 0 -> edge (string_of_int i) (string_of_int ((i + 1) mod 6))
    | 1 -> Atom.make "linked" [ Term.str (string_of_int i) ]
    | 2 -> Atom.make "isolated" [ Term.str (string_of_int i) ]
    | _ -> Atom.make "lonely" [ Term.str (string_of_int i) ]
  in
  let print (raw, batches) =
    Printf.sprintf "base=[%s] batches=[%s]"
      (String.concat ";" (List.map (fun (i, j) -> Printf.sprintf "(%d,%d)" i j) raw))
      (String.concat "; "
         (List.map
            (fun (is_add, atoms) ->
              (if is_add then "add " else "del ")
              ^ String.concat "," (List.map (fun a -> Atom.to_string (atom_of a)) atoms))
            batches))
  in
  QCheck2.Test.make ~print
    ~name:"incremental updates respect stratified negation" ~count:60 gen
    (fun (raw, batches) ->
      let src = {|
e(X, Y) -> linked(X).
node(X), not linked(X) -> isolated(X).
isolated(X) -> lonely(X).
@goal(lonely).
|}
      in
      let { Parser.program; _ } = parse_exn src in
      let nodes = List.init 6 (fun i -> Atom.make "node" [ Term.str (string_of_int i) ]) in
      let base =
        ref
          (List.sort_uniq Atom.compare
             (List.map (fun (i, j) -> edge (string_of_int i) (string_of_int j)) raw))
      in
      match Chase.run program (nodes @ !base) with
      | Error _ -> false
      | Ok res ->
        let res = ref res and ok = ref true in
        List.iter
          (fun (is_add, batch) ->
            if !ok then begin
              let atoms = List.sort_uniq Atom.compare (List.map atom_of batch) in
              let held = List.filter (fun a -> List.exists (Atom.equal a) !base) atoms in
              let update =
                if is_add || held = [] then begin
                  base := List.sort_uniq Atom.compare (atoms @ !base);
                  Chase.add_facts program !res atoms
                end
                else begin
                  base := List.filter (fun a -> not (List.exists (Atom.equal a) held)) !base;
                  Chase.retract_facts program !res held
                end
              in
              match update, Chase.run program (nodes @ !base) with
              | Ok (r, _), Ok cold ->
                res := r;
                ok :=
                  Database.fingerprint cold.Chase.db = Database.fingerprint r.Chase.db
                  && agrees_with_reference program (nodes @ !base) (Ok r)
              | _ -> ok := false
            end)
          batches;
        !ok)

(* --- aggregation: engine ≡ reference, incremental ≡ cold -------------------

   Three kinds of aggregation program, each over a random pool of
   facts.  A scenario is fixed facts, a base (a subset of the pool)
   and a sequence of toggles: each toggle adds a pool fact when it is
   absent and retracts it when present, one update at a time.  A cold
   chase, semi-naive or naive, must leave the reference evaluator's
   instance, and the incrementally maintained state must equal a cold
   chase of the current base, and the reference's, after every
   update. *)

type agg_scenario = {
  fixed : Atom.t list;
  pool : Atom.t array;  (* distinct *)
  base : bool array;
  toggles : int list;
}

let print_scenario s =
  let facts l = String.concat " " (List.map Atom.to_string l) in
  Printf.sprintf "fixed: %s\npool: %s\nbase: %s\ntoggles: %s" (facts s.fixed)
    (String.concat " "
       (Array.to_list (Array.mapi (fun i a -> Printf.sprintf "%d=%s" i (Atom.to_string a)) s.pool)))
    (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") s.base)))
    (String.concat "," (List.map string_of_int s.toggles))

let scenario_gen fixed_gen pool_gen =
  QCheck2.Gen.(
    triple fixed_gen pool_gen (list_size (int_range 1 6) (int_range 0 1000))
    >>= fun (fixed, pool, raw_toggles) ->
    let pool = Array.of_list (List.sort_uniq Atom.compare pool) in
    let n = Array.length pool in
    map
      (fun base ->
        { fixed; pool; base = Array.of_list base;
          toggles = (if n = 0 then [] else List.map (fun t -> t mod n) raw_toggles) })
      (list_repeat (Array.length pool) bool))

let str_i i = Term.str (Printf.sprintf "e%d" i)

(* company control on random ownership graphs: cycles and joint-control
   diamonds arise freely among 6 companies; shares on a 0.1 grid, so
   sums of exactly 0.5 occur *)
let control_scenario_gen =
  scenario_gen
    (QCheck2.Gen.pure (List.init 6 (fun i -> Atom.make "company" [ str_i i ])))
    QCheck2.Gen.(
      list_size (int_range 2 12)
        (triple (int_range 0 5) (int_range 0 5) (int_range 1 9))
      >|= List.filter_map (fun (x, y, s) ->
              if x = y then None
              else
                Some
                  (Atom.make "own"
                     [ str_i x; str_i y; Term.num (float_of_int s /. 10.) ])))

(* the stress test's σ4–σ7: value-in-head sums over defaulted debtors
   are superseded as more debtors default, and consumed by σ7 *)
let stress_src = {|
sigma4: shock(F, S), hasCapital(F, P1), S > P1 -> default(F).
sigma5: default(D), longTermDebts(D, C, V), E = sum(V) -> risk(C, E, "long").
sigma6: default(D), shortTermDebts(D, C, V), E = sum(V) -> risk(C, E, "short").
sigma7: risk(C, E, T), hasCapital(C, P2), L = sum(E), L > P2 -> default(C).
@goal(default).
|}

let stress_scenario_gen =
  scenario_gen
    QCheck2.Gen.(
      list_repeat 5 (int_range 2 9)
      >|= List.mapi (fun i p -> Atom.make "hasCapital" [ str_i i; Term.int p ]))
    QCheck2.Gen.(
      list_size (int_range 2 12)
        (quad (int_range 0 2) (int_range 0 4) (int_range 0 4) (int_range 1 6))
      >|= List.filter_map (fun (kind, d, c, v) ->
              match kind with
              | 0 -> Some (Atom.make "shock" [ str_i d; Term.int (2 * v) ])
              | _ when d = c -> None
              | 1 -> Some (Atom.make "longTermDebts" [ str_i d; str_i c; Term.int v ])
              | _ -> Some (Atom.make "shortTermDebts" [ str_i d; str_i c; Term.int v ])))

(* min, max and count over a recursive reachability relation: groups
   gain contributors round by round and their value-carrying facts are
   superseded *)
let reach_prefix = {|
start(X) -> reach(X).
reach(X), e(X, Y, W) -> reach(Y).
@goal(reach).
|}

let min_src = reach_prefix ^ "reach(X), e(X, Y, W), M = min(W) -> cheapest(Y, M).\n"
let max_src = reach_prefix ^ "reach(X), e(X, Y, W), M = max(W) -> dearest(Y, M).\n"

let count_src =
  reach_prefix ^ "reach(X), e(X, Y, W), N = count(X), N >= 2 -> popular(Y, N).\n"

let weighted_edges lo hi =
  scenario_gen
    (QCheck2.Gen.pure [ Atom.make "start" [ str_i 0 ] ])
    QCheck2.Gen.(
      list_size (int_range 2 10)
        (triple (int_range 0 4) (int_range 0 4) (int_range lo hi))
      >|= List.map (fun (x, y, w) -> Atom.make "e" [ str_i x; str_i y; Term.int w ]))

let edge_scenario_gen = weighted_edges 1 5

(* Values that can stop satisfying what reads them as contributors join,
   on groups a cold chase evaluates once (extensional bodies), so the
   cold chase does not depend on arrival order and an update must match
   it exactly: a min tested from below, a min value tested by a plain
   rule (both outside the fragment, so they re-chase), and a sum of
   signed inputs (inside it: an update re-chases only when it meets a
   group that fell back below its threshold) *)
let min_above_src = "e(X, Y, W), M = min(W), M > 2 -> ok(Y).\n@goal(ok).\n"

let pricey_src =
  "e(X, Y, W), M = min(W) -> cheapest(Y, M).\n\
   cheapest(Y, M), M > 3 -> pricey(Y).\n@goal(pricey).\n"

let signed_sum_src =
  "e(X, Y, W), S = sum(W), S > 0 -> pos(Y).\npos(Y) -> flagged(Y).\n@goal(flagged).\n"

let scenario_facts s present =
  s.fixed @ List.filteri (fun i _ -> present.(i)) (Array.to_list s.pool)

let prop_agg_engines_agree name src gen =
  QCheck2.Test.make ~name:("hash join = nested loop (" ^ name ^ ")") ~count:40
    ~print:print_scenario gen (fun s ->
      let { Parser.program; _ } = parse_exn src in
      let facts = scenario_facts s s.base in
      List.for_all
        (fun naive -> agrees_with_reference program facts (Chase.run_checked ~naive program facts))
        [ false; true ])

(* [path]: which update path every toggle must take *)
let prop_agg_incremental_equals_cold name src gen path =
  QCheck2.Test.make ~name:("incremental aggregation = cold chase (" ^ name ^ ")")
    ~count:60 ~print:print_scenario gen (fun s ->
      let { Parser.program; _ } = parse_exn src in
      let present = Array.copy s.base in
      match Chase.run program (scenario_facts s present) with
      | Error _ -> false
      | Ok res ->
        let res = ref res in
        List.for_all
          (fun i ->
            let update =
              if present.(i) then Chase.retract_facts else Chase.add_facts
            in
            present.(i) <- not present.(i);
            match update program !res [ s.pool.(i) ] with
            | Error _ -> false
            | Ok (r, upd) -> (
              res := r;
              (match path with
              | `Incremental -> upd.Chase.upd_incremental
              | `Rechase -> not upd.Chase.upd_incremental
              | `Either -> true)
              &&
              let base = scenario_facts s present in
              match Chase.run program base with
              | Error _ -> false
              | Ok cold ->
                Database.fingerprint cold.Chase.db = Database.fingerprint r.Chase.db
                && proofs_well_founded r
                && r.Chase.derived_count = active_derived r
                && agrees_with_reference program base (Ok r)))
          s.toggles)

let test_incr_retract_under_superseded_sum () =
  (* C defaults on A's debt alone (risk 6 > capital 5); B defaults
     later and raises C's long-term risk to 8, superseding the 6 that
     C's default cites.  Retracting A's debt must take C's default —
     and everything that followed from it — down with the superseded
     sum, not just with the sum that replaced it. *)
  let fact p args = Atom.make p args in
  let s = Term.str and i = Term.int in
  let base =
    [ fact "shock" [ s "A"; i 10 ];
      fact "hasCapital" [ s "A"; i 1 ];
      fact "hasCapital" [ s "B"; i 1 ];
      fact "hasCapital" [ s "C"; i 5 ];
      fact "longTermDebts" [ s "A"; s "C"; i 6 ];
      fact "longTermDebts" [ s "C"; s "B"; i 3 ];
      fact "longTermDebts" [ s "B"; s "C"; i 2 ] ]
  in
  let program, res = run_atoms stress_src base in
  check bool' "C's default cites a superseded sum" true
    (match Database.find_exact res.Chase.db "default" [| Value.str "C" |] with
    | Some f -> (
      match Provenance.derivation res.Chase.prov f.Fact.id with
      | Some d ->
        List.exists
          (fun p -> Provenance.superseded_by res.Chase.prov p <> None)
          d.Provenance.premises
      | None -> false)
    | None -> false);
  let debt = fact "longTermDebts" [ s "A"; s "C"; i 6 ] in
  let res', upd = update_exn (Chase.retract_facts program res [ debt ]) in
  check bool' "incremental path taken" true upd.Chase.upd_incremental;
  check_matches_cold "retraction = cold chase" program res'
    (List.filter (fun a -> not (Atom.equal a debt)) base);
  check bool' "only A still defaults" true
    (actives res' "default" = [ {|default("A")|} ]);
  check bool' "proofs well-founded" true (proofs_well_founded res')

let test_incr_min_threshold_rechases () =
  (* a min tested from below can turn false as contributors join: an
     update could not take ok(y) back, so the program re-chases *)
  let src = {|
e(X, Y, W), M = min(W), M > 2 -> ok(Y).
@goal(ok).
|}
  in
  let e x y w = Atom.make "e" [ Term.str x; Term.str y; Term.int w ] in
  let program, res = run_atoms src [ e "a" "y" 1; e "b" "y" 5 ] in
  check bool' "outside the fragment" false (Chase.incrementable program);
  check int' "min 1 blocks ok(y)" 0 (List.length (actives res "ok"));
  let res', upd = update_exn (Chase.retract_facts program res [ e "a" "y" 1 ]) in
  check bool' "retraction re-chased" false upd.Chase.upd_incremental;
  check bool' "min 5 admits ok(y)" true (actives res' "ok" = [ {|ok("y")|} ]);
  check_matches_cold "retraction = cold chase" program res' [ e "b" "y" 5 ];
  let res'', upd = update_exn (Chase.add_facts program res' [ e "a" "y" 1 ]) in
  check bool' "re-addition re-chased" false upd.Chase.upd_incremental;
  check int' "min 1 blocks ok(y) again" 0 (List.length (actives res'' "ok"));
  check_matches_cold "re-addition = cold chase" program res''
    [ e "b" "y" 5; e "a" "y" 1 ]

let test_incrementable_fragment () =
  let agg = "e(X, Y, W), " in
  let cases =
    [ ("company control", company_control_src, true);
      ("stress test", stress_src, true);
      ("sum above", agg ^ "S = sum(W), S > 1 -> ok(Y).", true);
      ("count at least, either way round", agg ^ "N = count(X), 2 <= N -> ok(Y).", true);
      ("max above", agg ^ "M = max(W), M >= 3 -> ok(Y).", true);
      ("min below", agg ^ "M = min(W), M < 3 -> ok(Y).", true);
      ("value read by nothing", agg ^ "M = min(W) -> low(Y, M).", true);
      ("sum of a superseded sum",
       agg ^ "S = sum(W) -> t(Y, S).\nt(Y, S), U = sum(S), U > 4 -> hot(Y).", true);
      ("value dropped by its reader", agg ^ "S = sum(W) -> t(Y, S).\nt(Y, _) -> seen(Y).", true);
      ("sum below", agg ^ "S = sum(W), S < 1 -> ok(Y).", false);
      ("count at most", agg ^ "N = count(X), N <= 2 -> ok(Y).", false);
      ("max below", agg ^ "M = max(W), M < 3 -> ok(Y).", false);
      ("min above", agg ^ "M = min(W), M > 2 -> ok(Y).", false);
      ("min above, either way round", agg ^ "M = min(W), 2 < M -> ok(Y).", false);
      ("equality", agg ^ "S = sum(W), S == 1 -> ok(Y).", false);
      ("product", agg ^ "P = prod(W), P > 1 -> ok(Y).", false);
      ("reader tests the value",
       agg ^ "M = min(W) -> cheapest(Y, M).\ncheapest(Y, M), M > 3 -> pricey(Y).", false);
      ("reader carries the value",
       agg ^ "M = min(W) -> cheapest(Y, M).\ncheapest(Y, M) -> price(Y, M).", false);
      ("reader matches a constant", agg ^ "S = sum(W) -> t(Y, S).\nt(Y, 3) -> three(Y).", false);
      ("sum of a min",
       agg ^ "M = min(W) -> low(Y, M).\nlow(Y, M), U = sum(M), U > 4 -> hot(Y).", false);
      ("existential head", "emp(X) -> worksFor(X, D).", false) ]
  in
  List.iter
    (fun (name, src, expected) ->
      let { Parser.program; _ } = parse_exn src in
      check bool' name expected (Chase.incrementable program))
    cases

let test_incr_signed_sum_rechases () =
  (* a sum over signed inputs can fall back below its threshold: the
     update finds the group it cannot maintain and re-chases, reporting
     against the instance it started from *)
  let src = {|
e(X, Y, W), S = sum(W), S > 0.5 -> ok(Y).
ok(Y) -> flagged(Y).
@goal(flagged).
|}
  in
  let e x w = Atom.make "e" [ Term.str x; Term.str "y"; Term.num w ] in
  let program, res = run_atoms src [ e "a" 0.6 ] in
  check bool' "inside the fragment" true (Chase.incrementable program);
  let res', upd = update_exn (Chase.add_facts program res [ e "b" (-0.3) ]) in
  check bool' "negative input re-chased" false upd.Chase.upd_incremental;
  check int' "one fact added" 1 upd.Chase.upd_added;
  check int' "ok(y) and flagged(y) retracted" 2 upd.Chase.upd_retracted;
  check bool' "changed predicates reported" true
    (List.for_all (fun p -> List.mem p upd.Chase.upd_changed_preds) [ "e"; "ok"; "flagged" ]);
  check_matches_cold "addition = cold chase" program res' [ e "a" 0.6; e "b" (-0.3) ];
  (* ok(y) cites the stakes it was first derived from; later ones join
     its group uncited, so retracting one leaves ok(y) standing until
     the group is re-aggregated and found below the threshold *)
  let res2, upd = update_exn (Chase.add_facts program res' [ e "c" 0.5 ]) in
  check bool' "rising sum maintained" true upd.Chase.upd_incremental;
  check bool' "ok(y) at 0.8" true (actives res2 "ok" = [ {|ok("y")|} ]);
  let res3, upd = update_exn (Chase.add_facts program res2 [ e "d" 0.4 ]) in
  check bool' "uncited stake added incrementally" true upd.Chase.upd_incremental;
  let res4, upd = update_exn (Chase.add_facts program res3 [ e "f" (-0.5) ]) in
  check bool' "sum still above the threshold" true upd.Chase.upd_incremental;
  check_matches_cold "falling sum = cold chase" program res4
    [ e "a" 0.6; e "b" (-0.3); e "c" 0.5; e "d" 0.4; e "f" (-0.5) ];
  let res5, upd = update_exn (Chase.retract_facts program res4 [ e "d" 0.4 ]) in
  check bool' "retraction re-chased" false upd.Chase.upd_incremental;
  check int' "ok(y) gone" 0 (List.length (actives res5 "ok"));
  check_matches_cold "retraction = cold chase" program res5
    [ e "a" 0.6; e "b" (-0.3); e "c" 0.5; e "f" (-0.5) ]

(* Close link under retraction-heavy traffic: W = W1 * W2 binds a head
   variable only through an assignment, and W >= 0.01 and W >= 0.2 cut.
   Random ownership graphs over at most 8 companies, cycles allowed,
   stakes on a 0.1 grid up to 0.5 so product chains stay short; most
   of the pool starts present, so toggles mostly retract.  After every
   update the instance equals a cold chase and the reference
   evaluator's, every proof is well-founded, and no rule ran a full
   pass. *)
let prop_close_link_rederivation =
  let own x y s =
    Atom.make "own" [ str_i x; str_i y; Term.num (float_of_int s /. 10.) ]
  in
  let gen =
    QCheck2.Gen.(
      list_size (int_range 2 14) (triple (int_range 0 7) (int_range 0 7) (int_range 1 5))
      >>= fun raw ->
      let pool =
        Array.of_list
          (List.sort_uniq Atom.compare
             (List.filter_map (fun (x, y, s) -> if x = y then None else Some (own x y s)) raw))
      in
      let n = Array.length pool in
      map2
        (fun base toggles ->
          { fixed = []; pool; base = Array.of_list base;
            toggles = (if n = 0 then [] else List.map (fun t -> t mod n) toggles) })
        (list_repeat n (frequency [ (4, pure true); (1, pure false) ]))
        (list_size (int_range 1 8) (int_range 0 1000)))
  in
  QCheck2.Test.make ~name:"close-link re-derivation by head-bound probes = cold chase"
    ~count:60 ~print:print_scenario gen (fun s ->
      let program = Ekg_apps.Close_link.program in
      let present = Array.copy s.base in
      match Chase.run program (scenario_facts s present) with
      | Error _ -> false
      | Ok res ->
        let res = ref res in
        List.for_all
          (fun i ->
            let update = if present.(i) then Chase.retract_facts else Chase.add_facts in
            present.(i) <- not present.(i);
            match update program !res [ s.pool.(i) ] with
            | Error _ -> false
            | Ok (r, upd) -> (
              res := r;
              upd.Chase.upd_incremental
              && upd.Chase.upd_full_passes = 0
              &&
              let base = scenario_facts s present in
              match Chase.run program base with
              | Error _ -> false
              | Ok cold ->
                Database.fingerprint cold.Chase.db = Database.fingerprint r.Chase.db
                && proofs_well_founded r
                && agrees_with_reference program base (Ok r)))
          s.toggles)

(* Copy-on-write against in place, byte for byte.  Lineage A applies
   every update to a fresh [copy_result] of its previous version;
   lineage B applies it in place to one result that is never copied.
   After every step both encode to the same bytes, and every earlier
   version of A still encodes to the bytes it had when it was made —
   including a parent whose update failed on its copy.  B skips an
   update that failed on A: a failure leaves a result half-applied.
   Forced opening steps guarantee the failing updates: golden power's
   inconsistent retractions, a fact budget tripped by a re-addition,
   and the signed sum's re-chase. *)
type copy_case = {
  c_name : string;
  c_program : Program.t;
  c_pool : Atom.t array;
  c_base : bool array;
  c_prefix : (int * bool * [ `Fails | `Rechases ]) list;  (* pool index, zero fact budget *)
}

let copy_cases =
  lazy
    (let all_of name program pool prefix =
       { c_name = name; c_program = program; c_pool = Array.of_list pool;
         c_base = Array.make (List.length pool) true; c_prefix = prefix }
     in
     let bundled =
       List.map
         (fun app ->
           match Ekg_apps.Bundled.load app with
           | Error e -> failwith e
           | Ok { Ekg_apps.Apps_util.pipeline; edb } ->
             let index a =
               let rec go i = function
                 | [] -> failwith ("not in the EDB: " ^ a)
                 | x :: rest -> if Atom.to_string x = a then i else go (i + 1) rest
               in
               go 0 edb
             in
             let prefix =
               match app with
               | "golden-power" ->
                 [ (index {|acquisition("ForeignBank", "TelecomCo", 0.3)|}, false, `Fails);
                   (index {|strategic("TelecomCo")|}, false, `Fails) ]
               | "close-link" -> [ (0, true, `Fails) ]
               | _ -> []
             in
             let c = all_of app pipeline.Ekg_core.Pipeline.program edb prefix in
             (* close link's budget trip re-adds a fact it first retracts *)
             if app = "close-link" then c.c_base.(0) <- false;
             c)
         Ekg_apps.Bundled.names
     in
     let kg = generated_kg 16 in
     let e x w = Atom.make "e" [ Term.str x; Term.str "y"; Term.num w ] in
     let signed =
       {
         c_name = "signed sum";
         c_program =
           Ekg_apps.Apps_util.parse_program_exn
             "e(X, Y, W), S = sum(W), S > 0.5 -> ok(Y).\nok(Y) -> flagged(Y).\n@goal(flagged).\n";
         c_pool = [| e "a" 0.6; e "b" (-0.3); e "c" 0.5; e "d" 0.4; e "f" (-0.5) |];
         c_base = [| true; false; false; false; false |];
         c_prefix = [ (1, false, `Rechases) ];
       }
     in
     bundled
     @ [ all_of "generated control" control_program kg [];
         all_of "generated close link" Ekg_apps.Close_link.program kg [];
         signed ])

let prop_copy_equals_in_place =
  let cases = List.length (Lazy.force copy_cases) in
  let gen =
    QCheck2.Gen.(
      triple (int_bound (cases - 1)) (list_size (int_range 1 6) (int_bound 1000)) (int_range (-1) 5))
  in
  let print (ci, raw, budget_at) =
    Printf.sprintf "%s; toggles %s; zero budget at %d"
      (List.nth (Lazy.force copy_cases) ci).c_name
      (String.concat "," (List.map string_of_int raw)) budget_at
  in
  QCheck2.Test.make ~name:"copy-on-write = in place, byte for byte" ~count:40 ~print gen
    (fun (ci, raw, budget_at) ->
      let c = List.nth (Lazy.force copy_cases) ci in
      let n = Array.length c.c_pool in
      let steps =
        List.map (fun (i, zero, expect) -> (i, zero, Some expect)) c.c_prefix
        @ List.mapi (fun k t -> (t mod n, k = budget_at, None)) raw
      in
      let present = Array.copy c.c_base in
      let cold () =
        match Chase.run c.c_program (List.filteri (fun i _ -> present.(i)) (Array.to_list c.c_pool)) with
        | Ok r -> r
        | Error e -> QCheck2.Test.fail_reportf "cold chase: %s" e
      in
      let versions = ref [ (let r = cold () in (r, encoded r)) ] in
      let in_place = ref (cold ()) in
      List.iter
        (fun (i, zero, expect) ->
          let fact = c.c_pool.(i) in
          let budget = if zero then Some (Chase.budget ~facts:0 ()) else None in
          let update res =
            if present.(i) then Chase.retract_facts ?budget c.c_program res [ fact ]
            else Chase.add_facts ?budget c.c_program res [ fact ]
          in
          let parent, _ = List.hd !versions in
          (match update (Chase.copy_result parent), expect with
          | Error _, (None | Some `Fails) -> ()
          | Error e, Some `Rechases ->
            QCheck2.Test.fail_reportf "%s: expected a re-chase, got %s" (Atom.to_string fact)
              (Chase.error_to_string e)
          | Ok _, Some `Fails ->
            QCheck2.Test.fail_reportf "%s: expected a failure" (Atom.to_string fact)
          | Ok (_, u), Some `Rechases when u.Chase.upd_incremental ->
            QCheck2.Test.fail_reportf "%s: expected a re-chase" (Atom.to_string fact)
          | Ok (copied, _), (None | Some `Rechases) -> (
            match update !in_place with
            | Error e ->
              QCheck2.Test.fail_reportf "%s: in place failed: %s" (Atom.to_string fact)
                (Chase.error_to_string e)
            | Ok (r, _) ->
              present.(i) <- not present.(i);
              in_place := r;
              let bytes = encoded copied in
              if encoded r <> bytes then
                QCheck2.Test.fail_reportf "%s: copied and in-place results differ"
                  (Atom.to_string fact);
              versions := (copied, bytes) :: !versions));
          List.iteri
            (fun k (v, bytes) ->
              if encoded v <> bytes then
                QCheck2.Test.fail_reportf "version %d changed after updating %s"
                  (List.length !versions - 1 - k) (Atom.to_string fact))
            !versions)
        steps;
      true)

let agg_programs =
  [
    ("company control", company_control_src, control_scenario_gen, `Incremental);
    ("stress test", stress_src, stress_scenario_gen, `Incremental);
    ("min", min_src, edge_scenario_gen, `Incremental);
    ("max", max_src, edge_scenario_gen, `Incremental);
    ("count", count_src, edge_scenario_gen, `Incremental);
    ("min above a threshold", min_above_src, edge_scenario_gen, `Rechase);
    ("min read from below", pricey_src, edge_scenario_gen, `Rechase);
    ("signed sum", signed_sum_src, weighted_edges (-3) 3, `Either);
  ]

let agg_properties =
  List.concat_map
    (fun (name, src, gen, path) ->
      [ prop_agg_engines_agree name src gen;
        prop_agg_incremental_equals_cold name src gen path ])
    agg_programs

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_closure_matches_reference;
      prop_chase_deterministic;
      prop_magic_equals_full_chase;
      prop_query_lane_equals_materialization;
      prop_join_engines_agree_plain;
      prop_join_engines_agree_negation;
      prop_join_engines_agree_naive;
      prop_match_order;
      prop_unlimited_budget_is_identity;
      prop_incremental_equals_cold;
      prop_incremental_negation_equals_cold;
      prop_close_link_rederivation;
      prop_copy_equals_in_place;
    ]
  @ List.map QCheck_alcotest.to_alcotest agg_properties

let () =
  Alcotest.run "engine"
    [
      ( "database",
        [
          Alcotest.test_case "dedup" `Quick test_database_dedup;
          Alcotest.test_case "numeric key equality" `Quick
            test_database_numeric_key_equality;
          Alcotest.test_case "deactivation" `Quick test_database_deactivation;
          Alcotest.test_case "matching" `Quick test_database_matching;
          Alcotest.test_case "columnar layout" `Quick
            test_database_columnar_layout;
          Alcotest.test_case "index build and probe" `Quick
            test_database_index_probe;
          Alcotest.test_case "all-active fast path" `Quick
            test_database_all_active;
          QCheck_alcotest.to_alcotest prop_database_readers_match_model;
        ] );
      ( "chase",
        [
          Alcotest.test_case "transitive closure" `Quick test_chase_transitive_closure;
          Alcotest.test_case "set semantics" `Quick test_chase_set_semantics;
          Alcotest.test_case "joins and conditions" `Quick test_chase_joins_and_conditions;
          Alcotest.test_case "arithmetic assignment" `Quick
            test_chase_arithmetic_assignment;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "grouped sums" `Quick test_chase_sum_groups;
          Alcotest.test_case "all functions" `Quick test_chase_agg_functions;
          Alcotest.test_case "monotonic supersession" `Quick
            test_chase_monotonic_aggregation_supersedes;
          Alcotest.test_case "condition on result" `Quick
            test_chase_agg_condition_on_result;
          Alcotest.test_case "multiple contributors" `Quick
            test_chase_agg_multi_contributors;
          Alcotest.test_case "deferred condition body vars" `Quick
            test_chase_agg_body_vars_in_deferred_condition;
          Alcotest.test_case "fold independent of fact order" `Quick
            test_chase_agg_fold_order_independent;
        ] );
      ( "negation",
        [
          Alcotest.test_case "stratified" `Quick test_chase_stratified_negation;
          Alcotest.test_case "three strata" `Quick test_chase_three_strata;
          Alcotest.test_case "unstratifiable rejected" `Quick
            test_chase_unstratifiable_rejected;
        ] );
      ( "existentials",
        [
          Alcotest.test_case "labelled nulls" `Quick test_chase_existential_nulls;
          Alcotest.test_case "isomorphism preemption" `Quick
            test_chase_isomorphism_preemption;
          Alcotest.test_case "satisfied by data" `Quick
            test_chase_existential_satisfied_by_data;
          Alcotest.test_case "a shorter fact preempts nothing" `Quick
            test_preemption_ignores_a_shorter_fact;
          Alcotest.test_case "a shorter fact beside a bound position" `Quick
            test_preemption_beside_a_shorter_fact;
        ] );
      ( "termination",
        [ Alcotest.test_case "max rounds guard" `Quick test_chase_max_rounds ] );
      ( "budgets",
        [
          Alcotest.test_case "round budget" `Quick test_budget_rounds;
          Alcotest.test_case "fact budget" `Quick test_budget_facts;
          Alcotest.test_case "cancel hook" `Quick test_budget_cancel;
          Alcotest.test_case "deadline trips mid-match" `Quick
            test_budget_deadline_trips_mid_match;
          Alcotest.test_case "converging run unaffected" `Quick
            test_budget_converging_run_unaffected;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "add warm-starts semi-naive" `Quick
            test_incr_add_warm_start;
          Alcotest.test_case "retract deletes the cone" `Quick test_incr_retract_cone;
          Alcotest.test_case "alternative derivation survives" `Quick
            test_incr_retract_alternative_derivation_survives;
          Alcotest.test_case "retraction enables negation" `Quick
            test_incr_retraction_enables_negation;
          Alcotest.test_case "addition disables negation" `Quick
            test_incr_addition_disables_negation;
          Alcotest.test_case "asserted fact outlives a negation cone" `Quick
            test_incr_asserted_fact_outlives_negation_cone;
          Alcotest.test_case "add-then-retract round trip" `Quick
            test_incr_add_then_retract_roundtrip;
          Alcotest.test_case "unknown fact rejected" `Quick
            test_incr_retract_unknown_fact;
          Alcotest.test_case "derived fact rejected" `Quick
            test_incr_retract_derived_rejected;
          Alcotest.test_case "aggregation maintained" `Quick
            test_incr_aggregation_incremental;
          Alcotest.test_case "existential heads fall back" `Quick
            test_incr_existential_falls_back;
          Alcotest.test_case "sum returns to an earlier value" `Quick
            test_incr_sum_round_trip;
          Alcotest.test_case "control survives through another owner" `Quick
            test_incr_control_survives_other_owner;
          Alcotest.test_case "retraction under a superseded sum" `Quick
            test_incr_retract_under_superseded_sum;
          Alcotest.test_case "min above a threshold re-chases" `Quick
            test_incr_min_threshold_rechases;
          Alcotest.test_case "incrementable fragment" `Quick test_incrementable_fragment;
          Alcotest.test_case "signed sum re-chases" `Quick test_incr_signed_sum_rechases;
          Alcotest.test_case "re-add makes extensional" `Quick
            test_incr_readd_makes_extensional;
          Alcotest.test_case "update budget respected" `Quick
            test_incr_update_budget_respected;
          Alcotest.test_case "inconsistency detected" `Quick
            test_incr_inconsistent_detected;
          Alcotest.test_case "copy_result isolates updates" `Quick
            test_copy_result_isolated;
          Alcotest.test_case "copy_result isolates inconsistency" `Quick
            test_copy_result_isolates_inconsistency;
          Alcotest.test_case "copy_result costs page tables" `Quick
            test_copy_costs_page_tables;
          Alcotest.test_case "a fact costs at most 460 bytes" `Quick test_bytes_per_fact;
          Alcotest.test_case "a version stays intact beside its descendants" `Quick
            test_reader_on_shared_pages;
          Alcotest.test_case "re-derived through a second rule" `Quick
            test_rederive_through_second_rule;
          Alcotest.test_case "re-derived on the second round" `Quick
            test_rederive_second_round;
          Alcotest.test_case "repeated head variable skips the probe" `Quick
            test_rederive_repeated_head_variable;
          Alcotest.test_case "unbound head keeps the full pass" `Quick
            test_rederive_unbound_head_keeps_full_pass;
          Alcotest.test_case "plain rule revives a superseded sum" `Quick
            test_incr_plain_rule_revives_superseded;
          Alcotest.test_case "no revival through the fact itself" `Quick
            test_incr_no_circular_revival;
          Alcotest.test_case "re-derivation closes no cycle" `Quick
            test_incr_rederivation_no_cycle;
          Alcotest.test_case "derived count counts active facts" `Quick
            test_incr_derived_count;
          Alcotest.test_case "bundled apps retract and re-add each fact" `Quick
            test_incr_bundled_apps_retract_readd;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "violation rejected" `Quick test_constraint_violation;
          Alcotest.test_case "satisfied accepted" `Quick test_constraint_satisfied;
          Alcotest.test_case "with negation" `Quick test_constraint_with_negation;
        ] );
      ( "export",
        [
          Alcotest.test_case "proof dot" `Quick test_export_proof_dot;
          Alcotest.test_case "chase graph dot" `Quick test_export_chase_graph_dot;
          Alcotest.test_case "instance dot" `Quick test_export_instance_dot;
        ] );
      ( "why-provenance",
        [
          Alcotest.test_case "single witness" `Quick test_why_single_witness;
          Alcotest.test_case "alternative witnesses" `Quick
            test_why_alternative_witnesses;
          Alcotest.test_case "minimality" `Quick test_why_minimality;
          Alcotest.test_case "EDB is its own witness" `Quick test_why_edb_is_itself;
        ] );
      ( "magic",
        [
          Alcotest.test_case "prunes" `Quick test_magic_prunes;
          Alcotest.test_case "adornments" `Quick test_magic_adornments;
          Alcotest.test_case "bad queries rejected" `Quick test_magic_rejects_bad_queries;
          Alcotest.test_case "aggregation prunes" `Quick test_magic_prunes_aggregation;
          Alcotest.test_case "negation prunes" `Quick test_magic_negation;
          Alcotest.test_case "constraints fire on the scoped instance" `Quick
            test_magic_detects_inconsistency;
          Alcotest.test_case "all-free mask" `Quick test_magic_free_mask;
          Alcotest.test_case "existential heads fall back" `Quick
            test_magic_existential_falls_back;
          Alcotest.test_case "unadorn proof" `Quick test_magic_unadorn_proof;
        ] );
      ( "io",
        [
          Alcotest.test_case "csv parsing" `Quick test_csv_parsing;
          Alcotest.test_case "csv arity mismatch" `Quick test_csv_arity_mismatch;
          Alcotest.test_case "csv round-trip" `Quick test_csv_roundtrip;
          Alcotest.test_case "load directory" `Quick test_load_directory;
          Alcotest.test_case "json export" `Quick test_json_export;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "well-formed" `Quick test_provenance_well_formed;
          Alcotest.test_case "tau order" `Quick test_proof_tau_order;
          Alcotest.test_case "constants" `Quick test_proof_constants;
          Alcotest.test_case "alternative derivations" `Quick
            test_alternative_derivations_recorded;
          Alcotest.test_case "shortest proof selection" `Quick
            test_shortest_proof_selection;
          Alcotest.test_case "shortest = primary when unique" `Quick
            test_shortest_equals_primary_when_unique;
          Alcotest.test_case "truncate" `Quick test_proof_truncate;
          Alcotest.test_case "EDB has no proof" `Quick test_proof_edb_fact_has_none;
          Alcotest.test_case "explanations end on a cyclic revival" `Quick
            test_explanations_end_on_cyclic_revival;
        ] );
      ("query", [ Alcotest.test_case "patterns" `Quick test_query_patterns ]);
      ( "parallel",
        [
          Alcotest.test_case "symtab" `Quick test_symtab;
          Alcotest.test_case "plan ordering" `Quick test_plan_ordering;
          Alcotest.test_case "exists_matching" `Quick test_exists_matching;
          Alcotest.test_case "pred_card" `Quick test_pred_card;
          Alcotest.test_case "naive = semi-naive under planner" `Quick
            test_naive_matches_seminaive_under_planner;
        ] );
      ( "reference",
        [
          Alcotest.test_case "all features, existentials" `Quick
            test_reference_all_features;
          Alcotest.test_case "bundled apps" `Quick test_reference_bundled_apps;
          Alcotest.test_case "generated KGs" `Quick test_reference_generated_kgs;
          Alcotest.test_case "pinned digests" `Quick test_pinned_digests;
        ] );
      ("properties", qsuite);
    ]
