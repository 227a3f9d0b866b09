(* Leveled, thread-safe structured JSONL logging with a bounded
   slow-request ring.  One logger = one sink (a line consumer, usually
   an append-only file); every event renders as a single-line JSON
   object, so the log is greppable and machine-parseable without a
   framing layer.  The server emits one canonical "wide event" per
   request through [event] — all the request's facts in one record —
   instead of scattering them over interleaved free-text lines. *)

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Ok Debug
  | "info" -> Ok Info
  | "warn" | "warning" -> Ok Warn
  | "error" -> Ok Error
  | s ->
    Result.Error
      (Printf.sprintf "unknown log level %S (expected debug|info|warn|error)" s)

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type value = Bool of bool | Int of int | Float of float | Str of string

type entry = {
  e_ts : float;
  e_level : level;
  e_event : string;
  e_duration_ms : float;
  e_fields : (string * value) list;
}

type t = {
  lock : Mutex.t;
  enabled : bool;
  mutable min_level : level;
  sink : (string -> unit) option;
  mutable chan : out_channel option;  (* owned channel behind [sink] *)
  slow_threshold_ms : float;
  slow_ring : entry option array;
  mutable slow_next : int;
  mutable slow_stored : int;
  mutable emitted : int;
}

let create ?(level = Info) ?(slow_threshold_ms = 500.) ?(slow_capacity = 64)
    ?sink () =
  {
    lock = Mutex.create ();
    enabled = true;
    min_level = level;
    sink;
    chan = None;
    slow_threshold_ms;
    slow_ring = Array.make (max 1 slow_capacity) None;
    slow_next = 0;
    slow_stored = 0;
    emitted = 0;
  }

let noop () =
  let t = create ~slow_capacity:1 () in
  { t with enabled = false }

let open_file ?level ?slow_threshold_ms ?slow_capacity path =
  match open_out_gen [ Open_append; Open_creat ] 0o644 path with
  | exception Sys_error e -> Result.Error e
  | chan ->
    let sink line =
      output_string chan line;
      output_char chan '\n';
      flush chan
    in
    let t = create ?level ?slow_threshold_ms ?slow_capacity ~sink () in
    t.chan <- Some chan;
    Ok t

let close t =
  Mutex.lock t.lock;
  (match t.chan with
  | Some c ->
    t.chan <- None;
    (try close_out c with Sys_error _ -> ())
  | None -> ());
  Mutex.unlock t.lock

let enabled t = t.enabled
let level t = t.min_level
let set_level t l = t.min_level <- l
let slow_threshold_ms t = t.slow_threshold_ms
let emitted t = t.emitted

let would_log t l = t.enabled && severity l >= severity t.min_level

(* --- JSON rendering --------------------------------------------------------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_float buf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" v)
  else Buffer.add_string buf (Printf.sprintf "%.6f" v)

let add_value buf = function
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float v -> add_float buf v
  | Str s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'

let render_line ~ts ~level:l ~event:name ~duration_ms fields =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf {|{"ts":%.6f,"level":"%s","event":"|} ts
                           (level_to_string l));
  escape buf name;
  Buffer.add_char buf '"';
  (match duration_ms with
  | Some d ->
    Buffer.add_string buf {|,"duration_ms":|};
    add_float buf d
  | None -> ());
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf {|,"|};
      escape buf k;
      Buffer.add_string buf {|":|};
      add_value buf v)
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* --- Emission --------------------------------------------------------------- *)

let push_slow t entry =
  t.slow_ring.(t.slow_next) <- Some entry;
  t.slow_next <- (t.slow_next + 1) mod Array.length t.slow_ring;
  t.slow_stored <- min (t.slow_stored + 1) (Array.length t.slow_ring)

let event t ?duration_ms l name fields =
  if t.enabled then begin
    let slow =
      match duration_ms with
      | Some d -> d >= t.slow_threshold_ms
      | None -> false
    in
    let to_sink = t.sink <> None && severity l >= severity t.min_level in
    (* the slow ring captures independently of the severity filter —
       a slowlog that went quiet because the level was raised would
       defeat its purpose *)
    if slow || to_sink then begin
      let ts = Unix.gettimeofday () in
      let line =
        if to_sink then Some (render_line ~ts ~level:l ~event:name ~duration_ms fields)
        else None
      in
      Mutex.lock t.lock;
      if to_sink then t.emitted <- t.emitted + 1;
      if slow then
        push_slow t
          {
            e_ts = ts;
            e_level = l;
            e_event = name;
            e_duration_ms = Option.value duration_ms ~default:0.;
            e_fields = fields;
          };
      Mutex.unlock t.lock;
      match line, t.sink with
      | Some line, Some sink -> (try sink line with _ -> ())
      | _ -> ()
    end
  end

let debug t name fields = event t Debug name fields
let info t name fields = event t Info name fields
let warn t name fields = event t Warn name fields
let error t name fields = event t Error name fields

let slow_entries t =
  Mutex.lock t.lock;
  let cap = Array.length t.slow_ring in
  let start = (t.slow_next - t.slow_stored + cap) mod cap in
  let oldest_first =
    List.init t.slow_stored (fun i -> t.slow_ring.((start + i) mod cap))
    |> List.filter_map Fun.id
  in
  Mutex.unlock t.lock;
  List.rev oldest_first

(* --- Ambient wide-event context --------------------------------------------- *)

module Ctx = struct
  (* One slot per domain: requests are handled start-to-finish on a
     single worker domain, so DLS gives instrumented lower tiers
     (registry, handlers) a place to drop wide-event fields without
     threading a context through every signature. *)
  let slot_key : (string * value) list ref option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let active () = !(Domain.DLS.get slot_key) <> None

  (* overwrite in place so the collected list keeps first-put order —
     consumers render the fields as-is and a re-put key must not jump *)
  let store acc k v =
    if List.exists (fun (k', _) -> String.equal k k') !acc then
      acc := List.map (fun (k', v') -> if String.equal k k' then (k, v) else (k', v')) !acc
    else acc := (k, v) :: !acc

  let put k v =
    match !(Domain.DLS.get slot_key) with
    | None -> ()
    | Some acc -> store acc k v

  let add k d =
    match !(Domain.DLS.get slot_key) with
    | None -> ()
    | Some acc ->
      let prev =
        match List.assoc_opt k !acc with
        | Some (Float f) -> f
        | Some (Int i) -> float_of_int i
        | _ -> 0.
      in
      store acc k (Float (prev +. d))

  let collect ?(init = []) f =
    let slot = Domain.DLS.get slot_key in
    let saved = !slot in
    let acc = ref (List.rev init) in
    slot := Some acc;
    match f () with
    | v ->
      slot := saved;
      (v, List.rev !acc)
    | exception e ->
      slot := saved;
      raise e
end
