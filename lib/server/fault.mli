(** Deterministic fault injection for the robustness layer, so the
    load-shedding and deadline paths can be exercised by tests and
    smoke scripts instead of waiting for production pathology.

    Selected by the [--fault] flag of [ekg-serve] or the [EKG_FAULT]
    environment variable; spec grammar:
    [off | delay[:ms] | refuse-accept | slow-chase[:ms]]. *)

type t =
  | Off
  | Delay of float
      (** seconds of sleep injected before handling each session
          request — simulates slow handlers so the admission queue
          fills deterministically *)
  | Refuse_accept
      (** the server's reader stops accepting; connections pile up in
          the listen backlog — simulates an accept stall *)
  | Slow_chase of float
      (** seconds injected into every chase materialization (sliced,
          budget-aware) — simulates expensive reasoning so deadlines
          trip deterministically *)

val to_string : t -> string

val parse : string -> (t, string) result
(** Parse a fault spec; durations are milliseconds. *)

val env_var : string
(** ["EKG_FAULT"]. *)

val of_env : unit -> (t, string) result
(** The fault selected by the environment ([Ok Off] when unset). *)
