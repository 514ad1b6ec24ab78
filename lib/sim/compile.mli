(** Closure compilation of expressions and behavioral nodes: the compiled
    ("Verilator-style") evaluation path of the single-network simulator
    ({!Simulator}, which VFsim runs).

    Expressions compile once into nested closures over boxed {!Rtlir.Bits}
    values; repeated evaluation then skips AST dispatch. Behavioral bodies
    compile into their CFG form: segments become closure sequences,
    decisions become a compiled selector plus a branch chooser. The
    concurrent engine does not use this module: its expressions, bodies
    and Algorithm-1 walk run as flat int64 programs ([Engine.Kernel]). *)

open Rtlir
open Flow

type compiled_expr = Access.reader -> Bits.t

val expr : mem_size:(int -> int) -> Expr.t -> compiled_expr

type t = {
  cfg : Cfg.t;
  segments : (Access.reader -> Access.writer -> unit) array array;
      (** per CFG node id: compiled simple statements (segments only) *)
  selectors : compiled_expr array;  (** per CFG node id (decisions only) *)
  choosers : (Bits.t -> int) array;  (** per CFG node id (decisions only) *)
}

(** Compile a behavioral body (the single-network simulator's form). *)
val proc : mem_size:(int -> int) -> Stmt.t -> t

(** [exec t reader writer] walks the CFG executing segments. *)
val exec : t -> Access.reader -> Access.writer -> unit
