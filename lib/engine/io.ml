open Ekg_kernel
open Ekg_datalog

(* --- CSV ----------------------------------------------------------------- *)

type csv_field =
  | Quoted of string
  | Bare of string

let parse_csv_line line =
  let n = String.length line in
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let i = ref 0 in
  let error = ref None in
  let flush quoted =
    fields := (if quoted then Quoted (Buffer.contents buf) else Bare (String.trim (Buffer.contents buf))) :: !fields;
    Buffer.clear buf
  in
  let in_quotes = ref false in
  let was_quoted = ref false in
  while !i < n && !error = None do
    let c = line.[!i] in
    if !in_quotes then begin
      if c = '"' then
        if !i + 1 < n && line.[!i + 1] = '"' then begin
          Buffer.add_char buf '"';
          i := !i + 2
        end
        else begin
          in_quotes := false;
          incr i
        end
      else begin
        Buffer.add_char buf c;
        incr i
      end
    end
    else begin
      match c with
      | '"' when String.trim (Buffer.contents buf) = "" ->
        in_quotes := true;
        was_quoted := true;
        Buffer.clear buf;
        incr i
      | ',' ->
        flush !was_quoted;
        was_quoted := false;
        incr i
      | _ ->
        Buffer.add_char buf c;
        incr i
    end
  done;
  if !in_quotes then Error "unterminated quoted field"
  else begin
    flush !was_quoted;
    Ok (List.rev !fields)
  end

let value_of_field = function
  | Quoted s -> Value.str s
  | Bare s -> (
    match int_of_string_opt s with
    | Some i -> Value.int i
    | None -> (
      match float_of_string_opt s with
      | Some f -> Value.num f
      | None -> (
        match s with
        | "true" -> Value.bool true
        | "false" -> Value.bool false
        | _ -> Value.str s)))

let facts_of_csv ~pred content =
  let lines = String.split_on_char '\n' content in
  let rec go lineno arity acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || Textutil.starts_with ~prefix:"#" trimmed then
        go (lineno + 1) arity acc rest
      else begin
        match parse_csv_line trimmed with
        | Error e -> Error (Printf.sprintf "%s.csv line %d: %s" pred lineno e)
        | Ok fields -> (
          let values = List.map value_of_field fields in
          match arity with
          | Some a when a <> List.length values ->
            Error
              (Printf.sprintf "%s.csv line %d: expected %d fields, found %d" pred lineno
                 a (List.length values))
          | _ ->
            let atom = Atom.make pred (List.map Term.cst values) in
            go (lineno + 1) (Some (List.length values)) (atom :: acc) rest)
      end
  in
  go 1 None [] lines

let csv_field v =
  match v with
  | Value.Str s -> "\"" ^ Textutil.replace_all s ~pattern:"\"" ~by:"\"\"" ^ "\""
  | Value.Int _ | Value.Num _ | Value.Bool _ | Value.Null _ -> Value.to_display v

let facts_to_csv facts =
  facts
  |> List.map (fun (f : Fact.t) ->
         String.concat "," (Array.to_list (Array.map csv_field f.args)))
  |> String.concat "\n"

let load_directory dir =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | entries ->
    let csvs =
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".csv")
      |> List.sort String.compare
    in
    let read_file path =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    List.fold_left
      (fun acc file ->
        match acc with
        | Error _ -> acc
        | Ok facts -> (
          let pred = Filename.remove_extension file in
          match facts_of_csv ~pred (read_file (Filename.concat dir file)) with
          | Ok more -> Ok (facts @ more)
          | Error e -> Error e))
      (Ok []) csvs

(* --- JSON ----------------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_value = function
  | Value.Str s -> "\"" ^ json_escape s ^ "\""
  | Value.Int i -> string_of_int i
  | Value.Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%g" f
  | Value.Bool b -> string_of_bool b
  | Value.Null i -> Printf.sprintf "{\"null\": %d}" i

let fact_to_json (f : Fact.t) =
  Printf.sprintf "{\"id\": %d, \"predicate\": \"%s\", \"args\": [%s]}" f.id
    (json_escape f.pred)
    (String.concat ", " (Array.to_list (Array.map json_of_value f.args)))

let result_to_json (res : Chase.result) =
  let facts = Database.active_all res.db in
  let entries =
    List.map
      (fun (f : Fact.t) ->
        match Provenance.derivation res.prov f.id with
        | None -> fact_to_json f
        | Some d ->
          Printf.sprintf
            "{\"id\": %d, \"predicate\": \"%s\", \"args\": [%s], \"rule\": \"%s\", \
             \"premises\": [%s]}"
            f.id (json_escape f.pred)
            (String.concat ", " (Array.to_list (Array.map json_of_value f.args)))
            (json_escape d.rule_id)
            (String.concat ", " (List.map string_of_int d.premises)))
      facts
  in
  "{\"facts\": [" ^ String.concat ", " entries ^ "]}"
