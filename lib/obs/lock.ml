(* An instrumented mutex: same discipline as [Mutex], plus wait/hold
   histograms and contention counters into a [Metrics.t], labeled by
   the lock's name.  With a noop registry every operation is a plain
   mutex op behind one branch, so adopting the wrapper costs nothing
   when observability is off. *)

let wait_metric =
  Metrics.histogram ~help:"Time spent waiting to acquire an instrumented lock."
    "ekg_lock_wait_seconds"
let hold_metric =
  Metrics.histogram ~help:"Time an instrumented lock was held per critical section."
    "ekg_lock_hold_seconds"
let acquisitions_metric =
  Metrics.counter ~help:"Acquisitions of an instrumented lock." "ekg_lock_acquisitions_total"
let contended_metric =
  Metrics.counter ~help:"Acquisitions that found an instrumented lock already held."
    "ekg_lock_contended_total"

type t = {
  name : string;
  mutex : Mutex.t;
  obs : Metrics.t;
  labels : (string * string) list;
  mutable acquired_at : float;
      (* read and written only while holding [mutex], so the current
         holder sees its own acquisition time *)
}

let create ?(obs = Metrics.noop ()) name =
  let labels = [ ("lock", name) ] in
  Metrics.declare obs ~labels wait_metric;
  Metrics.declare obs ~labels hold_metric;
  Metrics.declare obs ~labels acquisitions_metric;
  Metrics.declare obs ~labels contended_metric;
  { name; mutex = Mutex.create (); obs; labels; acquired_at = 0. }

let name t = t.name
let mutex t = t.mutex

let lock t =
  if Metrics.enabled t.obs then begin
    let wait, contended =
      if Mutex.try_lock t.mutex then 0., []
      else begin
        let t0 = Clock.now_s () in
        Mutex.lock t.mutex;
        ( Float.max 0. (Clock.now_s () -. t0),
          [ Metrics.Add (contended_metric, t.labels, 1.) ] )
      end
    in
    Metrics.record t.obs
      (Metrics.Observe (wait_metric, t.labels, wait)
      :: Metrics.Add (acquisitions_metric, t.labels, 1.)
      :: contended);
    t.acquired_at <- Clock.now_s ()
  end
  else Mutex.lock t.mutex

let unlock t =
  if Metrics.enabled t.obs then begin
    let held = Float.max 0. (Clock.now_s () -. t.acquired_at) in
    Mutex.unlock t.mutex;
    (* observed after release so hold times never include the metrics
       registry's own lock *)
    Metrics.observe t.obs ~labels:t.labels hold_metric held
  end
  else Mutex.unlock t.mutex

let with_lock t f =
  lock t;
  Fun.protect ~finally:(fun () -> unlock t) f
