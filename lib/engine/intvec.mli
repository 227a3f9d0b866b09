(** Growable int arrays — the chase's private change log.  Append-only:
    an [Intvec] keeps elements in insertion order, answers {!length}
    in O(1), and stores ids unboxed in a flat [int array].  Storage
    that outlives a chase is shadow-paged instead ({!Paged}). *)

type t

val create : ?capacity:int -> unit -> t
(** An empty vector; [capacity] (default [8]) pre-sizes the backing
    array. *)

val length : t -> int

val get : t -> int -> int
(** Raises [Invalid_argument] outside [0..length-1]. *)

val push : t -> int -> unit
(** Append, amortized O(1). *)

val iter : (int -> unit) -> t -> unit
(** In insertion order. *)

val fold_left : ('a -> int -> 'a) -> 'a -> t -> 'a

val exists : (int -> bool) -> t -> bool
(** Early-exits on the first hit, in insertion order. *)

val to_list : t -> int list
(** In insertion order. *)
