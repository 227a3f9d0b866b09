(** Structured spans: named timers with parent/child nesting and
    string labels, collected per tracer into a bounded in-memory ring
    buffer of finished root spans (one root span = one trace).  The
    explanation server traces every explain request through these; the
    profiler and the bench harness read them back.

    Thread-safety: a tracer may be shared across domains (the ring
    buffer and child attachment are mutex-protected), but a single
    {e span} is expected to be produced by one thread — the normal
    shape, since {!with_span} scopes a span to a call. *)

type span = {
  name : string;
  mutable labels : (string * string) list;
  start_s : float;             (** {!Clock.now_s} at entry *)
  mutable dur_s : float;       (** seconds; [-1.] while the span is open *)
  mutable children : span list; (** finished children, most recent first *)
}

type t

val create :
  ?capacity:int -> ?on_finish:(span -> unit) -> ?lock_obs:Metrics.t -> unit -> t
(** A tracer keeping the last [capacity] (default [128]) finished root
    spans; older traces are evicted.  [on_finish] is called for
    {e every} finished span (children included) — the hook the server
    uses to feed per-stage counters.  [lock_obs] instruments the ring
    mutex with wait/hold histograms labeled [{lock="tracer"}] (see
    {!Lock}). *)

val with_span :
  t -> ?parent:span -> ?labels:(string * string) list -> string -> (span -> 'a) -> 'a
(** [with_span t name f] times [f]: the span is finished (duration
    set, attached to [parent] or pushed to the ring buffer when it is
    a root) when [f] returns {e or raises}. *)

val with_span_opt :
  t option ->
  ?parent:span ->
  ?labels:(string * string) list ->
  string ->
  (span option -> 'a) ->
  'a
(** Optional-tracer convenience for instrumented libraries: with
    [None] the function runs untimed and uninstrumented (zero
    allocation); with [Some t] it behaves as {!with_span}. *)

val label : span -> string -> string -> unit
(** Attach or replace a label on an open or finished span. *)

val duration_ms : span -> float
(** [0.] while open. *)

val self_ms : span -> float
(** Duration minus the summed durations of direct children — the time
    spent in the span itself, the quantity per-stage breakdowns
    attribute. *)

val next_trace_id : t -> string
(** A fresh process-unique trace id, e.g. ["t3-1a2b3c"]. *)

val recent : t -> span list
(** The buffered traces (finished root spans), most recent first. *)

val flatten : span -> (int * span) list
(** Depth-first walk of a trace, children in start order, paired with
    their nesting depth — the shape breakdown tables print. *)

(** {1 JSONL export} *)

val span_to_json : span -> string
(** One trace as a single-line JSON object:
    [{"name":…,"start_unix_s":…,"duration_ms":…,"labels":{…},"children":[…]}];
    children carry ["offset_ms"] relative to the trace root instead of
    the absolute timestamp. *)

val jsonl : t -> string
(** Every buffered trace, oldest first, one JSON document per line. *)
