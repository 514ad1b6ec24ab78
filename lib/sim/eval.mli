(** Tree-walking expression evaluation, for one-off evaluations that do not
    pay for compiling (static fault classification, the Algorithm 1 walk's
    selector and address checks), plus the address-wrapping helpers shared with
    {!Compile} and {!Bytecode}. The simulators' hot paths compile
    expressions instead. *)

open Rtlir

(** [eval ~mem_size reader e] evaluates [e]. Memory read addresses are
    wrapped modulo [mem_size mid]. *)
val eval : mem_size:(int -> int) -> Access.reader -> Expr.t -> Bits.t

(** Payload-level evaluation over an unboxed reader; widths come from the
    design's width maps (see {!Rtlir.Bitops} for the payload contract). *)
val eval_i :
  sig_width:(int -> int) ->
  mem_width:(int -> int) ->
  mem_size:(int -> int) ->
  Access.ireader ->
  Expr.t ->
  int64

(** Wrap a raw address vector onto [0 .. size-1]. *)
val wrap_address : Bits.t -> int -> int

(** Payload variant of {!wrap_address}. *)
val wrap_address_i : int64 -> int -> int
