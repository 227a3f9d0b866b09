(** A thread-safe metrics registry: counters, gauges and latency
    histograms keyed by [(metric name, label set)], with Prometheus
    text exposition.  Recording sites name their metric inline (the
    first recording of a name fixes its help text and type), so
    instrumented code needs no registration ceremony; series appear in
    insertion order.

    A {!noop} registry drops every recording after one branch — the
    sink to pass on hot paths that must stay unmeasurably cheap when
    observability is off. *)

type t

val create : unit -> t

val noop : unit -> t
(** A disabled registry: every recording returns immediately, and
    exposition renders nothing. *)

val enabled : t -> bool

(** {1 Recording}

    [labels] defaults to the empty label set.  [help] is used on the
    first recording of the metric name and ignored afterwards. *)

val add : t -> ?help:string -> ?labels:(string * string) list -> string -> float -> unit
(** Add to a counter (creating it at [0.] first). *)

val incr : t -> ?help:string -> ?labels:(string * string) list -> string -> unit
(** [add t name 1.] *)

val set : t -> ?help:string -> ?labels:(string * string) list -> string -> float -> unit
(** Set a gauge. *)

val observe : t -> ?help:string -> ?labels:(string * string) list -> string -> float -> unit
(** Observe one latency, in {e seconds}, into a histogram ({!Hist}
    buckets; exposed as [_bucket]/[_sum]/[_count] in milliseconds). *)

val declare_counter : t -> ?help:string -> ?labels:(string * string) list -> string -> unit
(** Pre-register a counter at [0.] so the series is present in the
    exposition before the first event — mandatory series stay
    scrapeable from startup. *)

val declare_gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> unit
(** Pre-register a gauge at [0.]. *)

val declare_histogram : t -> ?help:string -> ?labels:(string * string) list -> string -> unit
(** Pre-register an empty histogram — its [_bucket]/[_sum]/[_count]
    series expose zeros until the first observation. *)

(** {1 Reading} *)

val value : t -> ?labels:(string * string) list -> string -> float option
(** The current value of a counter or gauge series, if recorded. *)

val series :
  t ->
  string ->
  ((string * string) list -> [ `Value of float | `Hist of Hist.t ] -> 'a) ->
  'a list
(** [series t name f] applies [f] to every series of the metric [name]
    — its labels and its counter or gauge value, or its histogram — in
    insertion order, under the registry lock: [f] reads a histogram
    consistently, and must not record into [t].  [[]] when [name] was
    never recorded. *)

val to_prometheus : t -> string
(** The full registry in Prometheus text exposition format. *)

val render : Buffer.t -> t -> unit
(** {!to_prometheus} into an existing buffer. *)
