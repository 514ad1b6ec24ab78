(** Closure compilation of expressions and behavioral nodes — the compiled
    ("Verilator-style") evaluation path used by VFsim and the concurrent
    engines.

    Expressions compile once into nested closures; repeated evaluation then
    skips AST dispatch. Behavioral bodies compile into their CFG form:
    segments become closure sequences, decisions become a compiled selector
    plus a branch chooser. The payload-compiled proc ({!ti}, the
    concurrent engine's form) also carries Algorithm 1: {!exec_i} records
    the good execution's decisions and {!redundant} walks them against a
    fault with the same compiled selectors, choosers and memory-read
    addresses. *)

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

(* --- payload-compiled family: same artifacts over unboxed int64 payloads,
   with widths resolved at compile time (see {!Rtlir.Bitops}) --- *)

type compiled_expr_i = Access.ireader -> int64

(** What the redundancy walk checks at one CFG node: the segment's or
    selector's signal reads, split by whether the body blocking-writes them
    anywhere, its memory-read sites (memory, size, compiled address and the
    address's read signals that the body may blocking-write), and a
    segment's blocking targets. *)
type dep

type ti = {
  icfg : Cfg.t;
  ivdg : Vdg.t;
  isegments : (Access.ireader -> Access.iwriter -> unit) array array;
  iselectors : compiled_expr_i array;
  ichoosers : (int64 -> int) array;
      (** the one label matcher: payload equality, since case labels share
          the scrutinee's width by design validation *)
  ideps : dep array;  (** per CFG node id *)
  inlocals : int;
      (** distinct blocking targets of the body (0 for every edge-triggered
          body) *)
}

val proc_i :
  sig_width:(int -> int) ->
  mem_width:(int -> int) ->
  mem_size:(int -> int) ->
  Stmt.t ->
  ti

(** [exec_i t ?record reader writer] walks the CFG executing segments; when
    [record] is given, the chosen target index of every traversed decision
    node is stored at its node id (the good-path record Algorithm 1 walks
    against). *)
val exec_i :
  ti -> ?record:int array -> Access.ireader -> Access.iwriter -> unit

(** [redundant t ~choices ~good ~fault ~visible ~visited] is the paper's
    Algorithm 1 (Section IV-A): [true] only if the faulty execution of the
    body provably follows the good path recorded in [choices] (by
    {!exec_i}) and reads only fault-invisible data, hence writes exactly
    the good values, so it can be skipped.

    [good] and [fault] read the good and the fault's values before the
    faulty execution; [visible s] is true when the fault's value of signal
    [s] differs from the good one. [visited] is incremented once per node
    the walk visits. Along the walked path:
    - a decision re-evaluates its compiled selector under [fault] and must
      choose the recorded target. A selector that reads a signal written
      earlier on the path by a blocking assignment cannot be re-evaluated
      against pre-execution state; it falls back to: no visible read that
      is not such a local write, and every memory site of the selector
      clean;
    - a segment needs the same: no visible non-local read and every memory
      site clean. Its blocking targets then join the locally-written set;
    - a memory site is clean when its address reads no local write and
      the word at the address, evaluated under [good] and wrapped, is the
      same under [fault] and [good]: memory dependencies are per word.

    The walk allocates only the written set, one byte per blocking target,
    and only for a body with blocking writes. *)
val redundant :
  ti ->
  choices:int array ->
  good:Access.ireader ->
  fault:Access.ireader ->
  visible:(int -> bool) ->
  visited:int ref ->
  bool
