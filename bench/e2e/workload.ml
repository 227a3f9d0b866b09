(* The benchmark's workloads and the inputs each one derives from its
   seed.

   Every workload runs the same four operations against one server —
   cold set-up (create a session, first explanation), CDC writes, point
   queries and explanations — and differs in program, KG size and the
   cycle its one closed-loop client repeats, so that each ROADMAP layer
   does most of its work in one workload and little in another
   (README.md has the map).  Everything random beyond the KG flows from
   [--seed]: one benchmark-side PRNG is split once per consumer (CDC
   stream, target order), so a seed names one set of inputs forever. *)

open Ekg_datalog
open Ekg_engine
module Kg = Ekg_datagen.Kg
module Cdc = Ekg_datagen.Cdc
module Prng = Ekg_kernel.Prng

type program = Control | Closelink

type mix =
  | Cdc_stream  (** one CDC batch, then a query and an explanation — repeated *)
  | Cold_load  (** create, backlog write, reads, drop — repeated *)

type t = { name : string; program : program; entities : int; mix : mix }

(* The cdc-* KGs are small so that a window holds several hundred
   write-read cycles, enough for every target to be read more than
   once: a run's medians then cover the same targets whatever its seed. *)
let all =
  [
    { name = "cdc-control"; program = Control; entities = 200; mix = Cdc_stream };
    { name = "cdc-closelink"; program = Closelink; entities = 200; mix = Cdc_stream };
    { name = "cold-load"; program = Control; entities = 8_000; mix = Cold_load };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* --- programs ---------------------------------------------------------------

   Each session root carries its program and glossary as files, as an
   operator would deploy them.  The close-link program is the paper's
   cl1-cl3 (no aggregation, so updates take the incremental path); the
   company-control program is the generator's own sigma1-sigma3. *)

let control_glossary =
  "own(x, y, s:percent) :: <x> owns <s> of the shares of <y>\n\
   control(x, y) :: <x> exercises control over <y>\n\
   company(x) :: <x> is a business corporation\n"

let closelink_source =
  "cl1: own(X, Y, W) -> pathOwn(X, Y, W).\n\
   cl2: pathOwn(X, Z, W1), own(Z, Y, W2), W = W1 * W2, W >= 0.01 -> \
   pathOwn(X, Y, W).\n\
   cl3: pathOwn(X, Y, W), W >= 0.2 -> closeLink(X, Y).\n\
   @goal(closeLink).\n"

let closelink_glossary =
  "own(x, y, w:percent) :: <x> owns <w> of the shares of <y>\n\
   pathOwn(x, y, w:percent) :: <x> holds an integrated participation of <w> \
   in <y>\n\
   closeLink(x, y) :: <x> is closely linked to <y>\n"

let goal_pred = function Control -> "control" | Closelink -> "closeLink"

(* The KG: a thinner degree tail than the generator's registry-scale
   default (exponent 2.2, cap 500), so that no single hub dominates a
   small graph, and the same generator seed for every run seed — the
   run seed picks the CDC stream and the order of the read targets.
   KGs from different generator seeds differ in cost by more
   than a regression bound (close link's materialization spans
   3.5k-5.1k facts over ten seeds at 200 entities), so a varying KG
   would make the run-to-run spread measure the generator instead of
   the program. *)
let exponent = 2.5
let max_out_degree = 12
let kg_seed = 1

(* CDC batches: 20 operations, half of them (from the second batch on)
   retractions of facts the stream added earlier, no fresh entities, so
   the KG keeps its size.  A cdc-* epoch streams 20 batches into a fresh
   session, long enough that its set-up is a small part of it.
   cold-load's backlog is 4 batches of 50 operations, enough that
   folding each into the dormant session's EDB mirror is a measurable
   operation, and several write samples per load. *)
let batch_size = function Cold_load -> 50 | Cdc_stream -> 20
let epoch_batches = 20
let backlog_batches = 4

(* the traced run's shadow pass replays the log's first batches *)
let shadow_batches = 3

type inputs = {
  workload : t;
  kg : Kg.t;
  pipeline : Ekg_core.Pipeline.t;
  base : Atom.t list;  (** the EDB exactly as the server loads it *)
  reference : Chase.result;  (** cold chase of [base] *)
  goals : Atom.t array;  (** non-trivial derived goal facts, shuffled *)
  sources : string array;  (** companies that reach another entity, shuffled *)
  log : Cdc.batch array;
}

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

let ok_or what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let digest (r : Chase.result) = Digest.to_hex (Digest.string (Database.fingerprint r.Chase.db))

let chase pipeline edb = ok_or "reference chase" (Ekg_core.Pipeline.reason pipeline edb)

(* Write the server root [dir] (CSV facts, program.vada, glossary.dict)
   and derive everything else the run needs from [seed]. *)
let prepare w ~seed ~entities ~dir =
  let kg =
    Kg.to_csv_dir { (Kg.default ~entities) with Kg.seed = kg_seed; exponent; max_out_degree } ~dir
  in
  let source, glossary =
    match w.program with
    | Control -> Kg.program_source, control_glossary
    | Closelink -> closelink_source, closelink_glossary
  in
  write_file (Filename.concat dir "program.vada") source;
  write_file (Filename.concat dir "glossary.dict") glossary;
  (* load through the server's own loader so fact order — and with it
     proof choice and explanation text — matches the served session *)
  let loaded =
    ok_or "load"
      (Result.bind
         (Ekg_apps.Apps_util.load_program_files
            ~program_file:(Filename.concat dir "program.vada")
            ~glossary_file:(Some (Filename.concat dir "glossary.dict"))
            ())
         (fun l -> Ekg_apps.Apps_util.with_facts_dir l dir))
  in
  let pipeline = loaded.Ekg_apps.Apps_util.pipeline in
  let base = loaded.Ekg_apps.Apps_util.edb in
  let reference = chase pipeline base in
  let master = Prng.create (Hashtbl.hash ("ekgbench", seed)) in
  let rng_cdc = Prng.split master in
  let rng_targets = Prng.split master in
  let batches = match w.mix with Cdc_stream -> epoch_batches | Cold_load -> backlog_batches in
  let log =
    Cdc.generate rng_cdc ~kg
      {
        Cdc.batches;
        batch_size = batch_size w.mix;
        retract_fraction = 0.5;
        new_entity_fraction = 0.0;
      }
  in
  (* goals: derived facts relating two distinct entities, so every
     explanation walks a real proof (self-control is one sigma2 step) *)
  let goals =
    Database.active reference.Chase.db (goal_pred w.program)
    |> List.filter (fun (f : Fact.t) -> not (Ekg_kernel.Value.equal f.args.(0) f.args.(1)))
    |> List.map Fact.atom
    |> Prng.shuffle rng_targets
    |> Array.of_list
  in
  if Array.length goals = 0 then failwith "the generated KG derives no goal facts";
  let name_of (a : Atom.t) =
    match a.Atom.args with
    | Term.Cst (Ekg_kernel.Value.Str s) :: _ -> s
    | _ -> failwith ("unexpected goal shape: " ^ Atom.to_string a)
  in
  let sources =
    Array.to_list goals |> List.map name_of |> List.sort_uniq String.compare
    |> Prng.shuffle rng_targets |> Array.of_list
  in
  { workload = w; kg; pipeline; base; reference; goals; sources; log = Array.of_list log }

let goal_pred_of inp = goal_pred inp.workload.program

(* the point query asking what a source reaches, e.g. control("c7", Y) *)
let query_atom inp source = Printf.sprintf "%s(%S, Y)" (goal_pred_of inp) source

(* Read targets in turn: the seed fixes the order, and a window reads
   each target about equally often, so that which targets a run happens
   to draw does not move its medians. *)
let nth (a : 'a array) i = a.(i mod Array.length a)

(* --- reference answers for the correctness gates ------------------------------ *)

let query_limit = 20

(* what GET /query?limit=20 must answer for [source]: the total and the
   first page, in the service's canonical (rendered-fact) order *)
let expected_answers inp (r : Chase.result) source =
  let facts =
    Database.active r.Chase.db (goal_pred_of inp)
    |> List.filter (fun (f : Fact.t) ->
           Ekg_kernel.Value.equal f.args.(0) (Ekg_kernel.Value.Str source))
    |> List.map Fact.to_string |> List.sort String.compare
  in
  List.length facts, List.filteri (fun i _ -> i < query_limit) facts

let expected_texts inp (r : Chase.result) goal =
  ok_or "reference explanation" (Ekg_core.Pipeline.explain_atom inp.pipeline r goal)
  |> List.map (fun (e : Ekg_core.Pipeline.explanation) -> e.Ekg_core.Pipeline.text)
