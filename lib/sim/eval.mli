(** Tree-walking expression evaluation, for one-off evaluations that do not
    pay for compiling (static fault classification), plus the
    address-wrapping helper shared with {!Compile} and {!Bytecode}. The
    simulators' hot paths, and the Algorithm 1 walk, run compiled
    expressions instead. *)

open Rtlir

(** [eval ~mem_size reader e] evaluates [e]. Memory read addresses are
    wrapped modulo [mem_size mid]. *)
val eval : mem_size:(int -> int) -> Access.reader -> Expr.t -> Bits.t

(** Wrap a raw address vector onto [0 .. size-1]. *)
val wrap_address : Bits.t -> int -> int
