(** Prometheus text exposition format (version 0.0.4): [# HELP] /
    [# TYPE] headers, label escaping, and sample lines.  Pure
    rendering — the data lives in {!Metrics}, and everything that
    renders exposition text goes through these helpers so the escaping
    rules exist once. *)

val escape_label : string -> string
(** Escape a label {e value}: backslash, double quote and newline, per
    the exposition format. *)

val escape_help : string -> string
(** Escape a [# HELP] text: backslash and newline. *)

val number : float -> string
(** Render a sample value: integral floats without a decimal point,
    non-finite values as [+Inf]/[-Inf]/[NaN]. *)

val header : Buffer.t -> name:string -> typ:string -> string -> unit
(** [header buf ~name ~typ help] appends the [# HELP]/[# TYPE] pair for
    a metric family. *)

val sample :
  Buffer.t -> name:string -> ?labels:(string * string) list -> float -> unit
(** Append one sample line, e.g.
    [ekg_requests_total{endpoint="GET /health"} 7]. *)
