type kind = Counter | Gauge | Histogram

type cell =
  | Scalar of float ref
  | H of Hist.t

type family = {
  name : string;
  help : string;
  kind : kind;
  mutable series : ((string * string) list * cell) list;  (* insertion order *)
}

type t = {
  lock : Mutex.t;
  mutable families : family list;  (* insertion order *)
  enabled : bool;
}

let create () = { lock = Mutex.create (); families = []; enabled = true }
let noop () = { lock = Mutex.create (); families = []; enabled = false }
let enabled t = t.enabled

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let typ_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* find-or-create under the registry lock; the first recording of a
   name fixes help and kind *)
let cell t ~kind ~help name labels =
  let family =
    match List.find_opt (fun f -> f.name = name) t.families with
    | Some f -> f
    | None ->
      let f = { name; help; kind; series = [] } in
      t.families <- t.families @ [ f ];
      f
  in
  match List.assoc_opt labels family.series with
  | Some c -> c
  | None ->
    let c = match family.kind with Histogram -> H (Hist.create ()) | _ -> Scalar (ref 0.) in
    family.series <- family.series @ [ (labels, c) ];
    c

let add t ?(help = "") ?(labels = []) name v =
  if t.enabled then
    with_lock t (fun () ->
        match cell t ~kind:Counter ~help name labels with
        | Scalar r -> r := !r +. v
        | H _ -> ())

let incr t ?help ?labels name = add t ?help ?labels name 1.

let set t ?(help = "") ?(labels = []) name v =
  if t.enabled then
    with_lock t (fun () ->
        match cell t ~kind:Gauge ~help name labels with
        | Scalar r -> r := v
        | H _ -> ())

let observe t ?(help = "") ?(labels = []) name seconds =
  if t.enabled then
    with_lock t (fun () ->
        match cell t ~kind:Histogram ~help name labels with
        | H h -> Hist.observe h seconds
        | Scalar _ -> ())

let declare t ~kind ?(help = "") ?(labels = []) name =
  if t.enabled then
    with_lock t (fun () -> ignore (cell t ~kind ~help name labels))

let declare_counter t ?help ?labels name = declare t ~kind:Counter ?help ?labels name
let declare_gauge t ?help ?labels name = declare t ~kind:Gauge ?help ?labels name
let declare_histogram t ?help ?labels name = declare t ~kind:Histogram ?help ?labels name

let value t ?(labels = []) name =
  with_lock t (fun () ->
      match List.find_opt (fun f -> f.name = name) t.families with
      | None -> None
      | Some f -> (
        match List.assoc_opt labels f.series with
        | Some (Scalar r) -> Some !r
        | Some (H _) | None -> None))

let series t name f =
  with_lock t (fun () ->
      match List.find_opt (fun fam -> fam.name = name) t.families with
      | None -> []
      | Some fam ->
        List.map
          (fun (labels, c) ->
            f labels (match c with Scalar r -> `Value !r | H h -> `Hist h))
          fam.series)

let render_family buf (f : family) =
  Prom.header buf ~name:f.name ~help:f.help ~typ:(typ_string f.kind);
  List.iter
    (fun (labels, c) ->
      match c with
      | Scalar r -> Prom.sample buf ~name:f.name ~labels !r
      | H h ->
        List.iter
          (fun (le, cum) ->
            Prom.sample buf ~name:(f.name ^ "_bucket")
              ~labels:(labels @ [ ("le", Prom.number le) ])
              (float_of_int cum))
          (Hist.cumulative h);
        Prom.sample buf ~name:(f.name ^ "_bucket")
          ~labels:(labels @ [ ("le", "+Inf") ])
          (float_of_int (Hist.count h));
        Prom.sample buf ~name:(f.name ^ "_sum") ~labels (Hist.sum_ms h);
        Prom.sample buf ~name:(f.name ^ "_count") ~labels
          (float_of_int (Hist.count h)))
    f.series

let render buf t =
  if t.enabled then
    with_lock t (fun () -> List.iter (render_family buf) t.families)

let to_prometheus t =
  let buf = Buffer.create 1024 in
  render buf t;
  Buffer.contents buf
