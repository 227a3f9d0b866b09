(** Binary wire primitives shared by the engine's snapshot codecs.

    The persistent session store serializes materializations —
    {!Database}, {!Provenance}, {!Symtab} — into a compact
    little-endian binary form.  This module is the single place the
    byte-level encoding lives: each engine container exposes an
    [encode]/[decode] pair written against these primitives, and the
    store layer composes them into versioned snapshot files.

    Integers use LEB128 varints with zigzag mapping, so small
    magnitudes of either sign stay short; floats are IEEE-754 bits;
    strings and blobs are length-prefixed.  Decoding is strict: running
    off the end of the input raises {!Truncated}, a malformed field
    (bad tag, negative length) raises {!Corrupt} — callers translate
    both into their typed error channel. *)

open Ekg_kernel

exception Truncated
(** The reader ran past the end of its input. *)

exception Corrupt of string
(** A structurally invalid field (unknown tag, absurd length, …). *)

(** {1 Writing}

    Writers append to a [Buffer.t]; composing codecs is plain function
    application. *)

val w_u8 : Buffer.t -> int -> unit
(** Low 8 bits of the argument, one byte. *)

val w_int : Buffer.t -> int -> unit
(** Zigzag LEB128 varint — any OCaml [int], negative included. *)

val w_float : Buffer.t -> float -> unit
(** IEEE-754 double, 8 bytes little-endian. *)

val w_bool : Buffer.t -> bool -> unit
val w_string : Buffer.t -> string -> unit
(** Varint length, then the raw bytes. *)

val w_value : Buffer.t -> Value.t -> unit
(** Tagged {!Ekg_kernel.Value.t}: carrier tag byte + payload. *)

val w_int_list : Buffer.t -> int list -> unit
(** Varint count, then each element as {!w_int}. *)

(** {1 Reading}

    A reader is a cursor over an immutable byte string; every [r_*]
    advances it.  All readers raise {!Truncated} / {!Corrupt} as
    described above. *)

type reader

val reader : ?pos:int -> string -> reader
(** A cursor over [s] starting at [pos] (default [0]). *)

val pos : reader -> int
(** Current offset — the store layer uses it to bound section reads. *)

val skip : reader -> int -> unit
(** Advance without decoding; {!Truncated} past the end. *)

val remaining : reader -> int

val r_bytes : reader -> int -> string
(** Exactly [n] raw bytes (no length prefix) — section extraction in
    the snapshot container format. *)

val r_u8 : reader -> int
val r_int : reader -> int
val r_float : reader -> float
val r_bool : reader -> bool
val r_string : reader -> string
val r_value : reader -> Value.t
val r_int_list : reader -> int list

val expect_magic : reader -> string -> bool
(** Consume [String.length magic] bytes and report whether they equal
    [magic]; {!Truncated} when fewer remain. *)
