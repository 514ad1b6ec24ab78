open Rtlir

type reader = { get : int -> Bits.t; get_mem : int -> int -> Bits.t }

type writer = {
  set_blocking : int -> Bits.t -> unit;
  set_nonblocking : int -> Bits.t -> unit;
  write_mem : int -> int -> Bits.t -> unit;
}

type ireader = { iget : int -> int64; iget_mem : int -> int -> int64 }

type iwriter = {
  iset_blocking : int -> int64 -> unit;
  iset_nonblocking : int -> int64 -> unit;
  iwrite_mem : int -> int -> int64 -> unit;
}

let reader_of_state st =
  { iget = State.get st; iget_mem = State.get_mem st }
