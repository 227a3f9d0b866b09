(** The daemon: a TCP listener, one {e reader} domain and an OCaml 5
    [Domain] worker pool, behind bounded admission control.  The reader
    multiplexes the listener and every connection whose request is
    still arriving with [Unix.select], reads without blocking, and
    parses each request before admitting it.  A complete request is
    then answered by the reader itself when the router classes it a
    probe ({!Router.classify}: [GET /v1/health], [GET /v1/metrics] and
    their legacy aliases), so liveness and scrapes never wait behind
    work, or when the admission queue sits at [queue_high_water] or
    above ({!Router.refuse}: [503] [overloaded]).  Anything else is
    queued; a worker touches the socket only to write its response.
    The reader's writes never block: the rest of a reply the socket
    does not take at once is queued for a worker, whatever the queue's
    depth.  A request not complete 10 s after its accept is answered
    [408 request_timeout], or closed unanswered when nothing of it
    arrived; at most 64 connections are read at once — later ones wait
    in the kernel's listen backlog, which holds 64 too.  A request's
    head may take 16 KiB and its body 4 MiB.  A worker's write of a
    reply ends 10 s after it began, whatever the client reads: the
    reply is dropped then.  Each connection
    carries exactly one HTTP request.  [stop] performs a graceful
    drain: close the listener, finish reading the requests already
    arriving, answer every queued one, then join all domains. *)

type config = {
  host : string;           (** bind address, default ["127.0.0.1"] *)
  port : int;              (** [0] picks an ephemeral port *)
  domains : int;           (** worker domains, default 4 *)
  queue_high_water : int;
      (** admission-queue depth at or above which new requests are
          shed (default 64); [0] sheds every non-probe request — useful
          for drills and smoke tests *)
}

val default_config : config

type t

val start : ?config:config -> Router.state -> t
(** Bind, listen, and spawn the reader and the workers.  Honours the
    router state's {!Fault.Refuse_accept} fault (the reader stops
    accepting; connections wait in the listen backlog).  Raises
    [Unix.Unix_error] if the address cannot be bound. *)

val port : t -> int
(** The actual bound port (useful with [port = 0]). *)

val request_stop : t -> unit
(** Flag the server to shut down; safe to call from a signal handler.
    Returns immediately. *)

val stop : t -> unit
(** [request_stop] then drain and join every domain.  Idempotent;
    blocks until in-flight and queued requests are answered. *)

val wait : t -> unit
(** Block until {!request_stop} is called (e.g. by a signal handler),
    then drain and join as {!stop} does. *)
