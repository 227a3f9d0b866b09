type kind = Counter | Gauge | Histogram

type desc = { name : string; help : string; kind : kind }

(* ['kind] is phantom: it keeps a counter out of [set] and [observe] *)
type 'kind family = desc
type counter = [ `Counter ] family
type gauge = [ `Gauge ] family
type histogram = [ `Histogram ] family

let counter ~help name = { name; help; kind = Counter }
let gauge ~help name = { name; help; kind = Gauge }
let histogram ~help name = { name; help; kind = Histogram }
let name (f : _ family) = f.name

module Names = Hashtbl.Make (String)

type labels = (string * string) list

type cell =
  | Scalar of float ref
  | H of Hist.t

(* a family's series in one registry *)
type entry = {
  desc : desc;
  cells : (labels, cell) Hashtbl.t;
  mutable series : (labels * cell) list;  (* newest first *)
}

type t = {
  lock : Mutex.t;
  entries : entry Names.t;
  mutable families : entry list;  (* newest first *)
  enabled : bool;
}

type view = t

let make enabled =
  { lock = Mutex.create (); entries = Names.create 64; families = []; enabled }

let create () = make true
let noop () = make false
let enabled t = t.enabled

type update =
  | Add of counter * labels * float
  | Set of gauge * labels * float
  | Observe of histogram * labels * float

(* find-or-create, under the registry lock; the first family of a name
   fixes its help and kind *)
let cell t (d : desc) labels =
  let e =
    match Names.find_opt t.entries d.name with
    | Some e -> e
    | None ->
      let e = { desc = d; cells = Hashtbl.create 4; series = [] } in
      Names.add t.entries d.name e;
      t.families <- e :: t.families;
      e
  in
  match Hashtbl.find_opt e.cells labels with
  | Some c -> c
  | None ->
    let c = match e.desc.kind with Histogram -> H (Hist.create ()) | _ -> Scalar (ref 0.) in
    Hashtbl.add e.cells labels c;
    e.series <- (labels, c) :: e.series;
    c

let apply t = function
  | Add (f, labels, v) -> (
    match cell t f labels with Scalar r -> r := !r +. v | H _ -> ())
  | Set (f, labels, v) -> (
    match cell t f labels with Scalar r -> r := v | H _ -> ())
  | Observe (f, labels, seconds) -> (
    match cell t f labels with H h -> Hist.observe h seconds | Scalar _ -> ())

let record t updates =
  if t.enabled then Mutex.protect t.lock (fun () -> List.iter (apply t) updates)

let add t ?(labels = []) f v = record t [ Add (f, labels, v) ]
let incr t ?labels f = add t ?labels f 1.
let set t ?(labels = []) f v = record t [ Set (f, labels, v) ]
let observe t ?(labels = []) f seconds = record t [ Observe (f, labels, seconds) ]

let declare t ?(labels = []) f =
  if t.enabled then Mutex.protect t.lock (fun () -> ignore (cell t f labels))

let snapshot t f = Mutex.protect t.lock (fun () -> f t)

let scalar v name labels =
  match Names.find_opt v.entries name with
  | None -> None
  | Some e -> (
    match Hashtbl.find_opt e.cells labels with
    | Some (Scalar r) -> Some !r
    | Some (H _) | None -> None)

let get v ?(labels = []) (f : _ family) = scalar v f.name labels

let histograms v (f : histogram) =
  match Names.find_opt v.entries f.name with
  | None -> []
  | Some e ->
    List.fold_left
      (fun acc (labels, c) ->
        match c with H h -> (labels, h) :: acc | Scalar _ -> acc)
      [] e.series

let value t ?(labels = []) name = snapshot t (fun v -> scalar v name labels)

let typ_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let render_family buf e =
  let name = e.desc.name in
  Prom.header buf ~name ~typ:(typ_string e.desc.kind) e.desc.help;
  List.iter
    (fun (labels, c) ->
      match c with
      | Scalar r -> Prom.sample buf ~name ~labels !r
      | H h ->
        List.iter
          (fun (le, cum) ->
            Prom.sample buf ~name:(name ^ "_bucket")
              ~labels:(labels @ [ ("le", Prom.number le) ])
              (float_of_int cum))
          (Hist.cumulative h);
        Prom.sample buf ~name:(name ^ "_bucket")
          ~labels:(labels @ [ ("le", "+Inf") ])
          (float_of_int (Hist.count h));
        Prom.sample buf ~name:(name ^ "_sum") ~labels (Hist.sum_ms h);
        Prom.sample buf ~name:(name ^ "_count") ~labels
          (float_of_int (Hist.count h)))
    (List.rev e.series)

let to_prometheus t =
  let buf = Buffer.create 1024 in
  if t.enabled then
    snapshot t (fun t -> List.iter (render_family buf) (List.rev t.families));
  Buffer.contents buf
