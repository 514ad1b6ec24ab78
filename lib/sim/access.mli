(** Value access interfaces shared by the evaluators and interpreters.

    Engines provide readers/writers over their own state representation:
    the good simulator reads plain arrays, the concurrent engine overlays a
    fault's diffs on the good state. Memory addresses are pre-wrapped to
    [0..size-1] by the evaluators.

    Two parallel families exist: the boxed {!reader}/{!writer} over
    {!Rtlir.Bits.t}, used by the single-network simulator and external
    probes, and the unboxed {!ireader}/{!iwriter} over masked [int64]
    payloads (see {!Rtlir.Bitops}), used by the concurrent engine where
    widths are carried statically by the compiled plans. *)

open Rtlir

type reader = {
  get : int -> Bits.t;  (** current value of a signal *)
  get_mem : int -> int -> Bits.t;  (** memory id, wrapped address *)
}

type writer = {
  set_blocking : int -> Bits.t -> unit;
      (** immediate write; later reads in the same execution observe it *)
  set_nonblocking : int -> Bits.t -> unit;
      (** deferred write; committed by the engine at the NBA phase *)
  write_mem : int -> int -> Bits.t -> unit;
      (** deferred memory write (nonblocking semantics), wrapped address *)
}

(** Unboxed payload reader: same contract as {!reader}, values are masked
    [int64] payloads whose widths the caller carries statically. *)
type ireader = { iget : int -> int64; iget_mem : int -> int -> int64 }

(** Unboxed payload writer: same contract as {!writer}. *)
type iwriter = {
  iset_blocking : int -> int64 -> unit;
  iset_nonblocking : int -> int64 -> unit;
  iwrite_mem : int -> int -> int64 -> unit;
}

(** Plain overlay-free reader over flat state. *)
val reader_of_state : State.t -> ireader
