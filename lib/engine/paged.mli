(** Shadow-paged vectors: the storage under {!Database} and
    {!Provenance}.

    A vector is a page table over fixed-size pages, and every page is
    stamped with the version of the vector that owns it.  {!copy}
    duplicates the page table only: both vectors then share every page
    and neither owns one, so the first write to a page on either side
    copies that page into the writer's table and stamps it with the
    writer's version.  A copy costs O(pages), and a writer pays for the
    pages it touches (shadow paging after Rodeh, "B-trees, Shadowing,
    and Clones", ACM TOS 2008).

    Reads never touch a stamp, so a version may be read from any domain
    while a copy descended from it is written elsewhere: nothing either
    side writes is visible to the other.  Writes to one vector must be
    serialized by the caller. *)

type 'a t

val append_bits : int
(** log2 of the page size for vectors that grow at the end — fact
    locations, columns, row maps.  A write touches the last page. *)

val slot_bits : int
(** log2 of the page size for vectors written at random positions —
    hash slots, chain links, bitmaps.  A write to any slot copies its
    whole page, so these pages are smaller. *)

val create : bits:int -> 'a -> 'a t
(** An empty vector with pages of [1 lsl bits] elements; the value
    fills slots no {!push} has written yet. *)

val make : bits:int -> int -> 'a -> 'a t
(** [make ~bits n x] — [n] slots holding [x]. *)

val copy : 'a t -> 'a t
(** O(pages): shares every page and leaves neither vector owning one,
    so writes to either side never show through the other. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] outside [0 .. length - 1]. *)

val unsafe_get : 'a t -> int -> 'a
(** {!get} without the bounds check, for loops bounded by {!length}.
    Out-of-range access is undefined behaviour. *)

val set : 'a t -> int -> 'a -> unit
(** Raises [Invalid_argument] outside [0 .. length - 1].  Copies the
    page first unless this vector owns it. *)

val push : 'a t -> 'a -> unit
(** Append, amortized O(1). *)

val grow : 'a t -> int -> unit
(** [grow v n] extends [v] to length [n] with the fill value; no-op
    when [v] is already that long. *)

(** {1 Int vectors}

    The same operations on [int t], with the element type known to the
    compiler: a plain load or store, no float-array check and no write
    barrier.  The join core's columns, chains and slots use these. *)

val get_int : int t -> int -> int
val unsafe_get_int : int t -> int -> int
val set_int : int t -> int -> int -> unit
val push_int : int t -> int -> unit
