type config = {
  host : string;
  port : int;
  domains : int;
  backlog : int;
  max_body_bytes : int;
  max_header_bytes : int;
  queue_high_water : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    domains = 4;
    backlog = 64;
    max_body_bytes = 4 * 1024 * 1024;
    max_header_bytes = 16 * 1024;
    queue_high_water = 64;
  }

type t = {
  config : config;
  state : Router.state;
  listener : Unix.file_descr;
  bound_port : int;
  stop_requested : bool Atomic.t;
  accepting_done : bool Atomic.t;
  queue : (Unix.file_descr * float) Queue.t;
      (* admitted, with enqueue timestamp so the dequeuing worker can
         report the admission-queue wait; guarded by [qlock] *)
  shed_queue : Unix.file_descr Queue.t; (* past high-water; guarded by [qlock] *)
  qlock : Mutex.t;
  qcond : Condition.t;      (* workers wait here *)
  shed_cond : Condition.t;  (* the shed domain waits here *)
  worker_busy : float array;
      (* per-worker busy clocks (seconds handling connections), one
         slot per worker domain, each written only by its own worker;
         published by the runtime sampler as utilization gauges *)
  started_at : float;
  mutable threads : unit Domain.t list;
  joined : bool Atomic.t;
}

(* --- per-connection work --------------------------------------------------- *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)
  end

let serve_connection t ~respond fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        (* a stuck or silent client must not pin a worker domain *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
        let read bytes off len =
          try Unix.read fd bytes off len
          with Unix.Unix_error (Unix.EINTR, _, _) -> 0
        in
        let response =
          match
            Http.parse_request ~max_header_bytes:t.config.max_header_bytes
              ~max_body_bytes:t.config.max_body_bytes ~read ()
          with
          | Ok request -> Some (respond request)
          | Error Http.Closed -> None
          | Error err -> Some (Router.handle_parse_error t.state err)
        in
        match response with
        | None -> ()
        | Some resp ->
          let payload = Http.response_to_string resp in
          write_all fd payload 0 (String.length payload);
          (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
      with Unix.Unix_error _ -> ())

let handle_connection t ~queue_wait_s fd =
  serve_connection t ~respond:(Router.handle ~queue_wait_s t.state) fd

(* The shed lane still answers probes: liveness and scrapes must observe
   the overload, not join it.  Everything else gets the 503 envelope. *)
let shed_respond t (req : Http.request) =
  match req.meth, req.path with
  | Http.GET, ([ "v1"; ("health" | "metrics") ] | [ "health" | "metrics" ]) ->
    Router.handle t.state req
  | _ -> Router.handle_overload t.state req

(* --- domains --------------------------------------------------------------- *)

let worker_loop t ~slot () =
  let rec next () =
    Mutex.lock t.qlock;
    let rec await () =
      if not (Queue.is_empty t.queue) then begin
        let job = Queue.pop t.queue in
        Router.set_queue_depth t.state (Queue.length t.queue);
        Some job
      end
      else if Atomic.get t.accepting_done then None
      else begin
        Condition.wait t.qcond t.qlock;
        await ()
      end
    in
    let job = await () in
    Mutex.unlock t.qlock;
    match job with
    | None -> ()
    | Some (fd, enqueued_at) ->
      let t0 = Unix.gettimeofday () in
      let queue_wait_s = Float.max 0. (t0 -. enqueued_at) in
      handle_connection t ~queue_wait_s fd;
      t.worker_busy.(slot) <-
        t.worker_busy.(slot) +. Float.max 0. (Unix.gettimeofday () -. t0);
      next ()
  in
  next ()

let shed_loop t () =
  let rec next () =
    Mutex.lock t.qlock;
    let rec await () =
      if not (Queue.is_empty t.shed_queue) then Some (Queue.pop t.shed_queue)
      else if Atomic.get t.accepting_done then None
      else begin
        Condition.wait t.shed_cond t.qlock;
        await ()
      end
    in
    let job = await () in
    Mutex.unlock t.qlock;
    match job with
    | None -> ()
    | Some fd ->
      serve_connection t ~respond:(shed_respond t) fd;
      next ()
  in
  next ()

let enqueue t fd =
  Mutex.lock t.qlock;
  if Queue.length t.queue >= t.config.queue_high_water then begin
    Queue.push fd t.shed_queue;
    Condition.signal t.shed_cond
  end
  else begin
    Queue.push (fd, Unix.gettimeofday ()) t.queue;
    Router.set_queue_depth t.state (Queue.length t.queue);
    Condition.signal t.qcond
  end;
  Mutex.unlock t.qlock

let accept_loop t () =
  while not (Atomic.get t.stop_requested) do
    match Router.fault t.state with
    | Fault.Refuse_accept ->
      (* injected acceptor stall: connections queue in the listen backlog *)
      (try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | _ -> (
      match Unix.select [ t.listener ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.listener with
        | fd, _ -> enqueue t fd
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done;
  (* graceful drain: no new connections; publish the done flag before
     waking every worker (and the shed lane) so the queued connections
     are answered and the pool can wind down *)
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  Atomic.set t.accepting_done true;
  Mutex.lock t.qlock;
  Condition.broadcast t.qcond;
  Condition.broadcast t.shed_cond;
  Mutex.unlock t.qlock

(* --- lifecycle ------------------------------------------------------------- *)

(* the HTTP pool's gauges, set by the runtime sampler *)
let workers_metric =
  Ekg_obs.Metrics.gauge ~help:"HTTP worker domains in the pool" "ekg_server_workers"
let utilization_metric =
  Ekg_obs.Metrics.gauge ~help:"Fraction of pool capacity spent handling connections since start"
    "ekg_server_pool_utilization"
let worker_busy_metric =
  Ekg_obs.Metrics.gauge ~help:"Seconds this worker domain spent handling connections"
    "ekg_server_worker_busy_seconds_total"

let start ?(config = default_config) state =
  let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen listener config.backlog
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let t =
    {
      config;
      state;
      listener;
      bound_port;
      stop_requested = Atomic.make false;
      accepting_done = Atomic.make false;
      queue = Queue.create ();
      shed_queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      shed_cond = Condition.create ();
      worker_busy = Array.make (max 1 config.domains) 0.;
      started_at = Unix.gettimeofday ();
      threads = [];
      joined = Atomic.make false;
    }
  in
  let workers =
    List.init (max 1 config.domains) (fun i ->
        Domain.spawn (worker_loop t ~slot:i))
  in
  let shedder = Domain.spawn (shed_loop t) in
  let acceptor = Domain.spawn (accept_loop t) in
  t.threads <- acceptor :: shedder :: workers;
  (* publish per-worker busy clocks through the runtime sampler so
     [GET /v1/debug/runtime] and the metrics endpoint expose HTTP
     pool utilization *)
  Ekg_obs.Runtime.register (Router.runtime state) "server-pool" (fun () ->
      let n = Array.length t.worker_busy in
      let wall = Float.max 1e-9 (Unix.gettimeofday () -. t.started_at) in
      let total = Array.fold_left ( +. ) 0. t.worker_busy in
      let sample ?(labels = []) s_gauge s_value =
        { Ekg_obs.Runtime.s_gauge; s_labels = labels; s_value }
      in
      sample workers_metric (float_of_int n)
      :: sample utilization_metric
           (Float.min 1. (total /. (wall *. float_of_int n)))
      :: List.init n (fun i ->
             sample
               ~labels:[ ("worker", string_of_int i) ]
               worker_busy_metric t.worker_busy.(i)));
  t

let port t = t.bound_port
let request_stop t = Atomic.set t.stop_requested true

let stop t =
  request_stop t;
  if not (Atomic.exchange t.joined true) then List.iter Domain.join t.threads

let wait t =
  while not (Atomic.get t.stop_requested) do
    try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  stop t
