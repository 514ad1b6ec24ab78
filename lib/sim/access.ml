open Rtlir

type reader = { get : int -> Bits.t; get_mem : int -> int -> Bits.t }

type writer = {
  set_blocking : int -> Bits.t -> unit;
  set_nonblocking : int -> Bits.t -> unit;
  write_mem : int -> int -> Bits.t -> unit;
}
