open Ekg_datalog
open Ekg_engine

type t = {
  program : Program.t;
  glossary : Glossary.t;
  analysis : Reasoning_path.analysis;
  deterministic : (string * Template.t) list;
  enhanced : (string * Template.t) list;
}

let build ?(style = 0) ?obs ?parent program glossary =
  Ekg_obs.Trace.with_span_opt obs ?parent "pipeline-build" @@ fun parent ->
  let span name f = Ekg_obs.Trace.with_span_opt obs ?parent name (fun _ -> f ()) in
  let analysis = Reasoning_path.analyze ?obs ?parent program in
  let paths = analysis.simple_paths @ analysis.cycles in
  let deterministic =
    span "verbalization" @@ fun () ->
    List.map
      (fun p -> (p.Reasoning_path.name, Template.of_path glossary p))
      paths
  in
  let enhanced =
    span "enhancement" @@ fun () ->
    List.map
      (fun (name, det) -> (name, (Enhancer.enhance ~style glossary det).template))
      deterministic
  in
  { program; glossary; analysis; deterministic; enhanced }

let template_for t ~enhanced (path : Reasoning_path.t) =
  let table = if enhanced then t.enhanced else t.deterministic in
  match List.assoc_opt path.name table with
  | Some tpl -> tpl
  | None ->
    (* ad-hoc path synthesized by the mapper *)
    let det = Template.of_path t.glossary path in
    if enhanced then (Enhancer.enhance t.glossary det).template else det

type explanation = {
  fact : Fact.t;
  proof : Proof.t;
  mapping : Proof_mapper.mapping;
  text : string;
  deterministic_text : string;
  paths_used : string list;
}

let reason ?stats ?budget ?obs ?parent t edb =
  Chase.run ?stats ?budget ?obs ?parent t.program edb

let incrementable t = Chase.incrementable t.program

let add_facts ?budget t result atoms =
  Chase.add_facts ?budget t.program result atoms

let retract_facts ?budget t result atoms =
  Chase.retract_facts ?budget t.program result atoms

let extractor = function
  | `Primary -> Proof.of_fact
  | `Shortest -> Proof.shortest_of_fact

(* stage-span scoper, polymorphic in the stage's result *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let spanner obs parent =
  { span = (fun name f -> Ekg_obs.Trace.with_span_opt obs ?parent name (fun _ -> f ())) }

(* the shared tail of every explanation: map the (already extracted,
   possibly truncated or un-adorned) proof onto the reasoning paths and
   instantiate the templates.  [span] scopes the stage spans under the
   caller's "explain" span. *)
let finish_explanation ~span:{ span } ~degraded t fact (proof, assumed) =
  let mapping =
      span "proof-mapping" (fun () -> Proof_mapper.map_proof t.analysis proof)
    in
    let preamble =
      if assumed = [] then ""
      else begin
        let verbalized =
          List.map
            (fun (f : Fact.t) ->
              Verbalizer.chunks_to_text
                ~resolve:(fun sl -> "<" ^ sl.Verbalizer.var ^ ">")
                (Verbalizer.verbalize_atom t.glossary (Fact.atom f)))
            assumed
        in
        "Taking as already established that "
        ^ Ekg_kernel.Textutil.join_and verbalized
        ^ ". "
      end
    in
    let render enhanced =
      preamble
      ^ Instantiate.render_mapping ~template_for:(template_for t ~enhanced) mapping
      |> Instantiate.cleanup
    in
    let paths_used = Proof_mapper.paths_used mapping in
    let text, deterministic_text =
      if degraded then begin
        (* Verbalization budget exhausted: fall back to the pre-computed
           template skeletons of the paths the proof mapped onto.  No
           instantiation work, but the caller still learns which
           reasoning steps fired and in what shape. *)
        let skeletons =
          List.filter_map
            (fun name ->
              Option.map Template.skeleton (List.assoc_opt name t.deterministic))
            paths_used
        in
        let sk = preamble ^ String.concat " " skeletons in
        (sk, sk)
      end
      else span "instantiation" (fun () -> (render true, render false))
    in
    Ok { fact; proof; mapping; text; deterministic_text; paths_used }

let explain ?(strategy = `Primary) ?horizon ?(degraded = false) ?obs ?parent t
    (result : Chase.result) fact =
  Ekg_obs.Trace.with_span_opt obs ?parent "explain" @@ fun parent ->
  let span = spanner obs parent in
  match
    span.span "proof-extraction" (fun () ->
        extractor strategy result.db result.prov fact)
  with
  | None -> Error (Fact.to_string fact ^ " is an extensional fact: nothing to explain")
  | Some full_proof ->
    let pair =
      match horizon with
      | None -> (full_proof, [])
      | Some h -> Proof.truncate full_proof ~horizon:h
    in
    finish_explanation ~span ~degraded t fact pair

let explain_atom_budgeted ?strategy ?(degrade = fun () -> false) ?obs ?parent t
    (result : Chase.result) atom =
  let matches = Query.ask result.db atom in
  if matches = [] then Error ("no derived fact matches " ^ Atom.to_string atom)
  else begin
    let degraded_any = ref false in
    let explanations =
      List.filter_map
        (fun (f, _) ->
          let degraded = degrade () in
          if degraded then degraded_any := true;
          match explain ?strategy ~degraded ?obs ?parent t result f with
          | Ok e -> Some e
          | Error _ -> None (* extensional matches are skipped *))
        matches
    in
    if explanations = [] then
      Error ("all facts matching " ^ Atom.to_string atom ^ " are extensional")
    else Ok (explanations, !degraded_any)
  end

let explain_atom ?strategy ?obs ?parent t (result : Chase.result) atom =
  Result.map fst (explain_atom_budgeted ?strategy ?obs ?parent t result atom)

let explain_query ?strategy ?obs ?parent t result source =
  match Parser.parse_atom source with
  | Error e -> Error e
  | Ok atom -> explain_atom ?strategy ?obs ?parent t result atom

(* --- the query lane --------------------------------------------------------- *)

type specialization =
  | Sp_magic of Magic.specialized
  | Sp_full of string
  | Sp_edb

let unknown_pred t pred =
  if List.mem pred (Program.preds t.program) then None
  else Some ("unknown predicate: " ^ pred)

let specialize t ~pred ~mask =
  match unknown_pred t pred with
  | Some e -> Error e
  | None when not (Program.is_intensional t.program pred) -> Ok Sp_edb
  | None -> (
    match Magic.specialize t.program ~pred ~mask with
    | Ok sp -> Ok (Sp_magic sp)
    | Error reason -> Ok (Sp_full reason))

type query_answer = {
  qa_fact : Fact.t;
  qa_internal : Fact.t;
  qa_binding : Subst.t;
}

type query_mode = [ `Materialized | `Magic | `Full | `Edb ]

let mode_name : query_mode -> string = function
  | `Materialized -> "materialized"
  | `Magic -> "magic"
  | `Full -> "full"
  | `Edb -> "edb"

type query_result = {
  q_answers : query_answer list;
  q_mode : query_mode;
  q_fallback : string option;
  q_scoped : Chase.result option;
  q_sp : Magic.specialized option;
  q_rounds : int;
  q_derived : int;
}

(* answers ordered by their rendering: canonical for paging, and equal
   between the magic and full paths by construction *)
let sort_answers answers =
  List.sort
    (fun a b -> String.compare (Fact.to_string a.qa_fact) (Fact.to_string b.qa_fact))
    answers

(* the answers [atom] matches in a completed instance: one indexed
   lookup, in the source vocabulary, ordered canonically *)
let answers_in (res : Chase.result) atom =
  Query.ask res.Chase.db atom
  |> List.map (fun (f, binding) ->
         { qa_fact = f; qa_internal = f; qa_binding = binding })
  |> sort_answers

let query_materialized t (res : Chase.result) (atom : Atom.t) =
  match unknown_pred t atom.Atom.pred with
  | Some e -> Error e
  | None ->
    Ok
      {
        q_answers = answers_in res atom;
        q_mode = `Materialized;
        q_fallback = None;
        q_scoped = Some res;
        q_sp = None;
        q_rounds = 0;
        q_derived = 0;
      }

let edb_scan edb (atom : Atom.t) =
  let answers =
    List.filteri (fun _ (a : Atom.t) -> a.Atom.pred = atom.Atom.pred) edb
    |> List.mapi (fun i (a : Atom.t) ->
           let args =
             Array.of_list
               (List.map
                  (function
                    | Term.Cst v -> v
                    | Term.Var v ->
                      (* the EDB mirror holds ground atoms only *)
                      invalid_arg ("non-ground extensional atom: " ^ v))
                  a.Atom.args)
           in
           (i, args))
    |> List.filter_map (fun (i, args) ->
           match Subst.match_atom Subst.empty ~pattern:atom args with
           | None -> None
           | Some binding ->
             let fact = { Fact.id = i; pred = atom.Atom.pred; args } in
             Some { qa_fact = fact; qa_internal = fact; qa_binding = binding })
  in
  {
    q_answers = sort_answers answers;
    q_mode = `Edb;
    q_fallback = None;
    q_scoped = None;
    q_sp = None;
    q_rounds = 0;
    q_derived = 0;
  }

let query ?stats ?budget ?obs ?parent t spec edb (atom : Atom.t) =
  let scoped_full reason =
    match Chase.run_checked ?stats ?budget ?obs ?parent t.program edb with
    | Error _ as e -> e
    | Ok res ->
      Ok
        {
          q_answers = answers_in res atom;
          q_mode = `Full;
          q_fallback = Some reason;
          q_scoped = Some res;
          q_sp = None;
          q_rounds = res.Chase.rounds;
          q_derived = res.Chase.derived_count;
        }
  in
  match spec with
  | Sp_edb -> Ok (edb_scan edb atom)
  | Sp_full reason -> scoped_full reason
  | Sp_magic sp -> (
    match
      Chase.run_checked ?stats ?budget ?obs ?parent sp.Magic.sp_program
        (edb @ Magic.seeds sp atom)
    with
    | Error (Chase.Unstratifiable _) ->
      (* the rewrite broke the stratification the source program had *)
      scoped_full "rewritten program does not stratify"
    | Error _ as e -> e
    | Ok res ->
      let answers =
        Query.ask res.db (Magic.goal_atom sp atom)
        |> List.map (fun (f, binding) ->
               {
                 qa_fact = Magic.original_fact sp f;
                 qa_internal = f;
                 qa_binding = binding;
               })
      in
      Ok
        {
          q_answers = sort_answers answers;
          q_mode = `Magic;
          q_fallback = None;
          q_scoped = Some res;
          q_sp = Some sp;
          q_rounds = res.Chase.rounds;
          q_derived = res.Chase.derived_count;
        })

let explain_answer ?(strategy = `Primary) ?(degraded = false) ?obs ?parent t
    (qr : query_result) (qa : query_answer) =
  match qr.q_scoped with
  | None ->
    Error
      (Fact.to_string qa.qa_fact ^ " is an extensional fact: nothing to explain")
  | Some result -> (
    Ekg_obs.Trace.with_span_opt obs ?parent "explain" @@ fun parent ->
    let span = spanner obs parent in
    match
      span.span "proof-extraction" (fun () ->
          extractor strategy result.Chase.db result.Chase.prov qa.qa_internal)
    with
    | None ->
      Error
        (Fact.to_string qa.qa_fact ^ " is an extensional fact: nothing to explain")
    | Some proof ->
      let proof =
        match qr.q_sp with
        | Some sp -> Magic.unadorn_proof sp proof
        | None -> proof
      in
      finish_explanation ~span ~degraded t qa.qa_fact (proof, []))

let identity t =
  (* stable across processes: the program's canonical rendering, the
     glossary spec and the engine revision are everything that shapes a
     materialization and its explanations; compilation artifacts
     (analysis, templates) are derived from these deterministically *)
  Digest.to_hex
    (Digest.string
       (Program.to_string t.program ^ "\x00" ^ Glossary.to_string t.glossary ^ "\x00"
      ^ string_of_int Chase.revision))
