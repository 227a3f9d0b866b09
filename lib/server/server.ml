type config = {
  host : string;
  port : int;
  domains : int;
  queue_high_water : int;
}

let default_config = { host = "127.0.0.1"; port = 8080; domains = 4; queue_high_water = 64 }

(* the listen backlog, and the most connections whose requests are read
   at once *)
let backlog = 64
let max_body_bytes = 4 * 1024 * 1024
let max_header_bytes = 16 * 1024

type t = {
  config : config;
  state : Router.state;
  listener : Unix.file_descr;
  bound_port : int;
  stop_requested : bool Atomic.t;
  reading_done : bool Atomic.t;
  queue : (unit -> unit) Queue.t;
      (* the workers' jobs: handle an admitted request and write its reply,
         or finish a reply the reader could not write whole; guarded by
         [qlock] *)
  qlock : Mutex.t;
  qcond : Condition.t;      (* workers wait here *)
  worker_busy : float array;
      (* per-worker busy clocks (seconds handling requests), one slot
         per worker domain, each written only by its own worker;
         published through the runtime sampler as utilization gauges *)
  started_at : float;
  mutable threads : unit Domain.t list;
  joined : bool Atomic.t;
}

(* a request not complete this long after its accept is answered 408, or
   closed unanswered when nothing of it arrived; a worker's write of a
   reply ends as long after it began *)
let io_timeout_s = 10.

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Write a reply from byte [off] and close, in blocking mode, so a reply
   larger than the socket buffer is written whole.  One clock bounds the
   whole write: each [write(2)] may block for what is left of
   [io_timeout_s], and the reply is dropped once it runs out, so a
   client that reads slowly or not at all holds a worker that long at
   most. *)
let finish fd payload off =
  let len = String.length payload in
  let deadline = Unix.gettimeofday () +. io_timeout_s in
  let rec write_from off =
    if off < len then begin
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then raise Exit;
      (* a zero timeout would mean none *)
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO (Float.max left 0.001);
      write_from
        (off
        + try Unix.single_write_substring fd payload off (len - off)
          with Unix.Unix_error (Unix.EINTR, _, _) -> 0)
    end
  in
  (try
     Unix.clear_nonblock fd;
     write_from off;
     Unix.shutdown fd Unix.SHUTDOWN_SEND
   with Unix.Unix_error _ | Exit -> ());
  close fd

(* called with [qlock] held *)
let push t job =
  Queue.push job t.queue;
  Router.set_queue_depth t.state (Queue.length t.queue);
  Condition.signal t.qcond

(* --- the workers ------------------------------------------------------------ *)

let worker_loop t ~slot () =
  let rec next () =
    Mutex.lock t.qlock;
    let rec await () =
      if not (Queue.is_empty t.queue) then begin
        let job = Queue.pop t.queue in
        Router.set_queue_depth t.state (Queue.length t.queue);
        Some job
      end
      else if Atomic.get t.reading_done then None
      else begin
        Condition.wait t.qcond t.qlock;
        await ()
      end
    in
    let job = await () in
    Mutex.unlock t.qlock;
    match job with
    | None -> ()
    | Some job ->
      let t0 = Unix.gettimeofday () in
      job ();
      t.worker_busy.(slot) <-
        t.worker_busy.(slot) +. Float.max 0. (Unix.gettimeofday () -. t0);
      next ()
  in
  next ()

(* --- the reader ---------------------------------------------------------------

   One domain reads every request before admitting it: [Unix.select]
   over the listener and each connection whose request is still
   arriving, with non-blocking reads into a per-connection buffer.  A
   complete request is answered here when the router classes it a
   probe (liveness and scrapes must observe load, not join it) or when
   the queue sits at [queue_high_water]; anything else is queued for
   the workers.  The reader never blocks on a write: it queues the rest
   of a reply the socket does not take at once, whatever the depth. *)

type arriving = { fd : Unix.file_descr; buf : Buffer.t; deadline : float }

let answer t fd resp =
  let payload = Http.response_to_string resp in
  (* the socket is non-blocking: [write] returns where its buffer filled;
     after an error, the worker's write meets the error again and closes *)
  let off =
    try Unix.write_substring fd payload 0 (String.length payload)
    with Unix.Unix_error _ -> 0
  in
  if off = String.length payload then finish fd payload off
  else begin
    Mutex.lock t.qlock;
    push t (fun () -> finish fd payload off);
    Mutex.unlock t.qlock
  end

let admit t fd req =
  if Router.classify req = Some Router.Probe then answer t fd (Router.handle t.state req)
  else begin
    Mutex.lock t.qlock;
    let shed = Queue.length t.queue >= t.config.queue_high_water in
    let admitted_at = Unix.gettimeofday () in
    if not shed then
      push t (fun () ->
          let queue_wait_s = Float.max 0. (Unix.gettimeofday () -. admitted_at) in
          finish fd (Http.response_to_string (Router.handle ~queue_wait_s t.state req)) 0);
    Mutex.unlock t.qlock;
    if shed then answer t fd (Router.refuse t.state (Router.Shed req))
  end

(* Read what has arrived on [c]; [true] while its request is incomplete. *)
let advance t chunk c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    true
  | exception Unix.Unix_error _ ->
    close c.fd;
    false
  | n -> (
    Buffer.add_subbytes c.buf chunk 0 n;
    match
      Http.parse_prefix ~max_header_bytes ~max_body_bytes ~eof:(n = 0) c.buf
    with
    | Ok None -> true
    | Ok (Some req) ->
      admit t c.fd req;
      false
    | Error Http.Closed ->
      close c.fd;
      false
    | Error err ->
      answer t c.fd (Router.refuse t.state (Router.Unparsed err));
      false)

(* [Unix.select] rejects descriptors at or past FD_SETSIZE (1024), which
   only a large [queue_high_water] keeps open at once *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false

(* Accept one connection and try one read right away: the request has
   usually arrived by then. *)
let accept t chunk arriving =
  match Unix.accept ~cloexec:true t.listener with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
    ->
    arriving
  | fd, _ ->
    Unix.set_nonblock fd;
    let c =
      { fd; buf = Buffer.create 1024; deadline = Unix.gettimeofday () +. io_timeout_s }
    in
    if not (advance t chunk c) then arriving
    else if selectable fd then c :: arriving
    else (close fd; arriving)

let reader_loop t () =
  let chunk = Bytes.create 65536 in
  (* on stop, the listener closes at once; connections already arriving
     are read until complete or past their deadline *)
  let rec loop ~listening arriving =
    let listening =
      if listening && Atomic.get t.stop_requested then (close t.listener; false)
      else listening
    in
    if listening || arriving <> [] then begin
      let accepting =
        listening
        && List.length arriving < backlog
        && (match Router.fault t.state with
            | Fault.Refuse_accept -> false (* connections wait in the listen backlog *)
            | _ -> true)
      in
      let fds = List.map (fun c -> c.fd) arriving in
      let ready =
        match Unix.select (if accepting then t.listener :: fds else fds) [] [] 0.25 with
        | ready, _, _ -> ready
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      let arriving =
        List.filter (fun c -> (not (List.mem c.fd ready)) || advance t chunk c) arriving
      in
      let arriving =
        if accepting && List.mem t.listener ready then accept t chunk arriving
        else arriving
      in
      let now = Unix.gettimeofday () in
      let expired, arriving = List.partition (fun c -> c.deadline <= now) arriving in
      List.iter
        (fun c ->
          if Buffer.length c.buf = 0 then close c.fd
          else answer t c.fd (Router.refuse t.state Router.Timed_out))
        expired;
      loop ~listening arriving
    end
  in
  loop ~listening:true [];
  (* publish the done flag before waking every worker, so the queued
     requests are answered and the pool can wind down *)
  Atomic.set t.reading_done true;
  Mutex.lock t.qlock;
  Condition.broadcast t.qcond;
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
     Unix.listen listener backlog;
     Unix.set_nonblock listener
   with e ->
     close listener;
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
      reading_done = Atomic.make false;
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
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
  t.threads <- Domain.spawn (reader_loop t) :: workers;
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
