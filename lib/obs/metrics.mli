(** A thread-safe metrics registry: counters, gauges and latency
    histograms keyed by [(metric family, label set)], with Prometheus
    text exposition.

    A metric family is a value — {!counter}, {!gauge} or {!histogram}
    — that holds its name, help text and kind.  Each family is defined
    once, next to the code that records it, and recording and declaring
    take that value: a recording site names no text, and recording a
    family as the wrong kind does not compile.  An owner that is handed
    a registry {!declare}s, at zero, the series a scrape must see before
    their first event; any other series appears with its first
    recording.  A registry finds a family and a series in hash tables,
    and renders families and series in the order they first appeared.

    {!record} applies several recordings under one lock acquisition and
    {!snapshot} reads several series under one, so a reader never sees
    a multi-series update half applied.

    A {!noop} registry drops every recording after one branch — the
    sink to pass on hot paths that must stay unmeasurably cheap when
    observability is off. *)

type t

val create : unit -> t

val noop : unit -> t
(** A disabled registry: every recording returns immediately, and
    exposition renders nothing. *)

val enabled : t -> bool

(** {1 Families} *)

type 'kind family
(** A metric family: its name, its help text and, in ['kind], its
    kind. *)

type counter = [ `Counter ] family
type gauge = [ `Gauge ] family

type histogram = [ `Histogram ] family
(** Observations in {e seconds} into {!Hist} buckets, exposed as
    [_bucket]/[_sum]/[_count] in milliseconds. *)

val counter : help:string -> string -> counter
(** [counter ~help name] defines a counter family. *)

val gauge : help:string -> string -> gauge
val histogram : help:string -> string -> histogram

val name : _ family -> string

(** {1 Recording}

    [labels] defaults to the empty label set. *)

type labels = (string * string) list

type update =
  | Add of counter * labels * float  (** add to a counter *)
  | Set of gauge * labels * float  (** set a gauge *)
  | Observe of histogram * labels * float  (** observe seconds *)

val record : t -> update list -> unit
(** Apply the updates in order under one acquisition of the registry
    lock: a {!snapshot} or a scrape sees all of them or none. *)

val add : t -> ?labels:labels -> counter -> float -> unit
val incr : t -> ?labels:labels -> counter -> unit
val set : t -> ?labels:labels -> gauge -> float -> unit
val observe : t -> ?labels:labels -> histogram -> float -> unit

val declare : t -> ?labels:labels -> _ family -> unit
(** Create the series at zero (an empty histogram) if it does not
    exist yet, so it is in the exposition before its first event. *)

(** {1 Reading} *)

type view
(** The registry as one snapshot reads it. *)

val snapshot : t -> (view -> 'a) -> 'a
(** [snapshot t f] applies [f] under the registry lock: every read
    through the view sees the same instant.  [f] must not record into
    [t], and must not keep a histogram past its return. *)

val get : view -> ?labels:labels -> [< `Counter | `Gauge ] family -> float option
(** The value of a counter or gauge series, if it exists. *)

val histograms : view -> histogram -> (labels * Hist.t) list
(** Every series of a histogram family, in insertion order. *)

val value : t -> ?labels:labels -> string -> float option
(** [value t ~labels name] is the value of that counter or gauge series
    of the family called [name], if it exists — a one-series
    {!snapshot} by name. *)

val to_prometheus : t -> string
(** The full registry in Prometheus text exposition format, read as one
    snapshot. *)
