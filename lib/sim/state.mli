(** Flat engine state: every signal and every memory word of a design in
    preallocated [int64] Bigarrays (struct-of-arrays), one slot per value,
    masked payloads as defined by {!Rtlir.Bitops}.

    This is the storage representation of the concurrent engine's good
    network: widths live in parallel [int] arrays (per signal / per
    memory), not per value, so a read or write is a single unboxed Bigarray
    access. The record is
    exposed so allocation-free hot loops can hit the Bigarrays directly
    with [Bigarray.Array1.unsafe_get]/[unsafe_set] instead of going through
    (possibly non-inlined) accessor calls. *)

open Rtlir

type i64a = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  nsig : int;
  sig_v : i64a;  (** signal payloads, indexed by signal id *)
  widths : int array;  (** per signal id *)
  mem_v : i64a;  (** all memories concatenated *)
  mem_base : int array;  (** per memory id: first word's index in [mem_v] *)
  mem_sizes : int array;
  mem_widths : int array;
}

(** Fresh state: signals zero, memories zero or their declared init image. *)
val create : Design.t -> t

val get : t -> int -> int64
val set : t -> int -> int64 -> unit

(** Memory access by (memory id, wrapped address). *)
val get_mem : t -> int -> int -> int64

val set_mem : t -> int -> int -> int64 -> unit
val width : t -> int -> int
val mem_width : t -> int -> int
val mem_size : t -> int -> int

(** Total memory words across all memories. *)
val mem_words : t -> int

(** Deep copy (fresh Bigarrays). *)
val copy : t -> t

(** Copy all payloads from [src] into [dst] (same design). *)
val blit : src:t -> dst:t -> unit
