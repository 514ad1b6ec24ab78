(** Value access interfaces of the boxed evaluators: the single-network
    simulator's compiled and bytecode executors, {!Eval}, and external
    probes. Values are {!Rtlir.Bits.t}; memory addresses are pre-wrapped
    to [0..size-1] by the evaluators. The concurrent engine reads its
    state through neither: its kernel programs load the good state's and
    the diff tables' Bigarrays directly. *)

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
