type mode = Off | Write_behind | Sync

let mode_of_string = function
  | "off" -> Ok Off
  | "behind" -> Ok Write_behind
  | "sync" -> Ok Sync
  | other -> Error ("unknown snapshot mode: " ^ other ^ " (off|behind|sync)")

let mode_to_string = function
  | Off -> "off"
  | Write_behind -> "behind"
  | Sync -> "sync"

let queue_depth_metric =
  Ekg_obs.Metrics.gauge ~help:"Snapshot requests pending or in flight on the write-behind queue"
    "ekg_store_snapshot_queue_depth"
let stall_metric =
  Ekg_obs.Metrics.gauge ~help:"Seconds the current in-flight snapshot save has been running"
    "ekg_store_snapshot_stall_seconds"

type t = {
  store : Store.t;
  snap_mode : mode;
  lock : Ekg_obs.Lock.t;
      (* instrumented on the request path; the wait loops below take
         the raw mutex so condition-blocked time never lands in the
         hold histogram *)
  cond : Condition.t;
  pending : (string, unit -> Codec.t option) Hashtbl.t;
  order : string Queue.t;  (* FIFO of sids; stale entries are skipped *)
  mutable in_flight : string option;
  mutable in_flight_since : float;
  mutable stopping : bool;
  mutable worker : unit Domain.t option;
}

let mode t = t.snap_mode

let run_job t sid capture =
  match capture () with
  | None -> ()
  | Some snap -> (
    match Store.save t.store snap with
    | Ok _ -> ()
    | Error e ->
      Logs.warn (fun m -> m "ekg-store: snapshot of session %s failed: %s" sid e))
  | exception exn ->
    Logs.warn (fun m ->
        m "ekg-store: snapshot capture of session %s raised: %s" sid
          (Printexc.to_string exn))

(* next sid whose request is still pending (coalescing leaves stale
   queue entries behind; discard removes table entries) *)
let rec pop_pending t =
  match Queue.take_opt t.order with
  | None -> None
  | Some sid -> if Hashtbl.mem t.pending sid then Some sid else pop_pending t

let worker_loop t =
  let mutex = Ekg_obs.Lock.mutex t.lock in
  let rec go () =
    Mutex.lock mutex;
    while Hashtbl.length t.pending = 0 && not t.stopping do
      Condition.wait t.cond mutex
    done;
    match pop_pending t with
    | None ->
      (* stopping with an empty queue *)
      Mutex.unlock mutex
    | Some sid ->
      let capture = Hashtbl.find t.pending sid in
      Hashtbl.remove t.pending sid;
      t.in_flight <- Some sid;
      t.in_flight_since <- Ekg_obs.Clock.now_s ();
      Mutex.unlock mutex;
      run_job t sid capture;
      Mutex.lock mutex;
      t.in_flight <- None;
      Condition.broadcast t.cond;
      Mutex.unlock mutex;
      go ()
  in
  go ()

let create ?(mode = Write_behind) ?obs store =
  Option.iter
    (fun obs ->
      Ekg_obs.Metrics.declare obs queue_depth_metric;
      Ekg_obs.Metrics.declare obs stall_metric)
    obs;
  let t =
    {
      store;
      snap_mode = mode;
      lock = Ekg_obs.Lock.create ?obs "snapshotter";
      cond = Condition.create ();
      pending = Hashtbl.create 16;
      order = Queue.create ();
      in_flight = None;
      in_flight_since = 0.;
      stopping = false;
      worker = None;
    }
  in
  if mode = Write_behind then t.worker <- Some (Domain.spawn (fun () -> worker_loop t));
  t

let request t ~sid capture =
  match t.snap_mode with
  | Off -> ()
  | Sync -> run_job t sid capture
  | Write_behind ->
    Ekg_obs.Lock.lock t.lock;
    if t.stopping then begin
      (* the daemon is draining: persist inline rather than drop *)
      Ekg_obs.Lock.unlock t.lock;
      run_job t sid capture
    end
    else begin
      if not (Hashtbl.mem t.pending sid) then Queue.push sid t.order;
      Hashtbl.replace t.pending sid capture;
      Condition.broadcast t.cond;
      Ekg_obs.Lock.unlock t.lock
    end

let discard t ~sid =
  let mutex = Ekg_obs.Lock.mutex t.lock in
  Mutex.lock mutex;
  Hashtbl.remove t.pending sid;
  while t.in_flight = Some sid do
    Condition.wait t.cond mutex
  done;
  Mutex.unlock mutex

let flush t =
  let mutex = Ekg_obs.Lock.mutex t.lock in
  Mutex.lock mutex;
  while Hashtbl.length t.pending > 0 || t.in_flight <> None do
    Condition.wait t.cond mutex
  done;
  Mutex.unlock mutex

let stop t =
  let mutex = Ekg_obs.Lock.mutex t.lock in
  Mutex.lock mutex;
  t.stopping <- true;
  Condition.broadcast t.cond;
  Mutex.unlock mutex;
  (match t.worker with None -> () | Some d -> Domain.join d);
  t.worker <- None

let depth t =
  Ekg_obs.Lock.with_lock t.lock (fun () ->
      Hashtbl.length t.pending + if t.in_flight = None then 0 else 1)

let stall_s t =
  Ekg_obs.Lock.with_lock t.lock (fun () ->
      match t.in_flight with
      | None -> 0.
      | Some _ -> Float.max 0. (Ekg_obs.Clock.now_s () -. t.in_flight_since))

let runtime_samples t () =
  [
    {
      Ekg_obs.Runtime.s_gauge = queue_depth_metric;
      s_labels = [];
      s_value = float_of_int (depth t);
    };
    { Ekg_obs.Runtime.s_gauge = stall_metric; s_labels = []; s_value = stall_s t };
  ]
