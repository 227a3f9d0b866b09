type span = {
  name : string;
  mutable labels : (string * string) list;
  start_s : float;
  mutable dur_s : float;
  mutable children : span list;
}

type t = {
  lock : Lock.t;
  ring : span option array;
  mutable next : int;          (* next write slot *)
  mutable stored : int;
  seq : int Atomic.t;
  on_finish : (span -> unit) option;
}

let create ?(capacity = 128) ?on_finish ?lock_obs () =
  {
    lock = Lock.create ?obs:lock_obs "tracer";
    ring = Array.make (max 1 capacity) None;
    next = 0;
    stored = 0;
    seq = Atomic.make 0;
    on_finish;
  }

let with_lock t f = Lock.with_lock t.lock f

let push_root t sp =
  with_lock t (fun () ->
      t.ring.(t.next) <- Some sp;
      t.next <- (t.next + 1) mod Array.length t.ring;
      t.stored <- min (t.stored + 1) (Array.length t.ring))

let finish t ?parent sp =
  sp.dur_s <- Float.max 0. (Clock.now_s () -. sp.start_s);
  (match parent with
  | Some p -> with_lock t (fun () -> p.children <- sp :: p.children)
  | None -> push_root t sp);
  match t.on_finish with
  | Some g -> (try g sp with _ -> ())
  | None -> ()

let with_span t ?parent ?(labels = []) name f =
  let sp = { name; labels; start_s = Clock.now_s (); dur_s = -1.; children = [] } in
  match f sp with
  | v ->
    finish t ?parent sp;
    v
  | exception e ->
    finish t ?parent sp;
    raise e

let with_span_opt t ?parent ?labels name f =
  match t with
  | None -> f None
  | Some tracer -> with_span tracer ?parent ?labels name (fun sp -> f (Some sp))

let label sp k v = sp.labels <- (k, v) :: List.remove_assoc k sp.labels

let duration_ms sp = if sp.dur_s < 0. then 0. else sp.dur_s *. 1000.

let self_ms sp =
  let children = List.fold_left (fun acc c -> acc +. duration_ms c) 0. sp.children in
  Float.max 0. (duration_ms sp -. children)

let next_trace_id t =
  Printf.sprintf "t%d-%06x" (Atomic.fetch_and_add t.seq 1)
    (int_of_float (Float.rem (Clock.now_s () *. 1e6) 16777216.))

let oldest_first t =
  with_lock t (fun () ->
      let cap = Array.length t.ring in
      let start = (t.next - t.stored + cap) mod cap in
      List.init t.stored (fun i -> t.ring.((start + i) mod cap))
      |> List.filter_map Fun.id)

let recent t = List.rev (oldest_first t)

let flatten sp =
  let rec walk depth sp acc =
    (depth, sp) :: List.fold_right (walk (depth + 1)) (List.rev sp.children) acc
  in
  walk 0 sp []

(* --- JSONL ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
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
    s;
  Buffer.contents buf

let span_to_json root =
  let buf = Buffer.create 256 in
  let rec emit ~root_start sp =
    Buffer.add_string buf (Printf.sprintf {|{"name":"%s"|} (json_escape sp.name));
    if sp == root then
      Buffer.add_string buf (Printf.sprintf {|,"start_unix_s":%.6f|} sp.start_s)
    else
      Buffer.add_string buf
        (Printf.sprintf {|,"offset_ms":%.3f|} ((sp.start_s -. root_start) *. 1000.));
    Buffer.add_string buf (Printf.sprintf {|,"duration_ms":%.3f|} (duration_ms sp));
    if sp.labels <> [] then begin
      Buffer.add_string buf {|,"labels":{|};
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf {|"%s":"%s"|} (json_escape k) (json_escape v)))
        sp.labels;
      Buffer.add_char buf '}'
    end;
    (match List.rev sp.children with
    | [] -> ()
    | children ->
      Buffer.add_string buf {|,"children":[|};
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char buf ',';
          emit ~root_start c)
        children;
      Buffer.add_char buf ']');
    Buffer.add_char buf '}'
  in
  emit ~root_start:root.start_s root;
  Buffer.contents buf

let jsonl t =
  oldest_first t
  |> List.map (fun sp -> span_to_json sp ^ "\n")
  |> String.concat ""
