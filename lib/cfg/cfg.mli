(** Control-flow graphs of behavioral bodies (paper Section IV-A,
    "Preprocess").

    The body of a behavioral node is partitioned into {e segments} — maximal
    straight-line runs of simple statements — linked by {e decision nodes}
    (if/case branch points). The CFG is acyclic because the statement
    language is loop-free. Node ids are dense and stable: engines index
    per-activation decision records by node id. *)

open Rtlir

type decision = {
  selector : Expr.t;
  labels : Bits.t array option;
      (** [None]: an if — truthy selector picks target 0, else target 1.
          [Some labels]: a case — label index picks the target, fall-through
          to the last target (default). *)
  targets : int array;
  sel_reads : int array;  (** signals the selector reads *)
  sel_read_mems : int array;
  sel_mem_sites : (int * Expr.t) array;
      (** memory-read sites of the selector: (memory, address expression) *)
}

type segment = {
  stmts : Stmt.t list;  (** simple statements only, in execution order *)
  reads : int array;  (** signals read by the segment *)
  read_mems : int array;  (** memories read by the segment *)
  mem_sites : (int * Expr.t) array;
      (** memory-read sites: (memory, address expression), inner-first *)
  blocking : int array;  (** blocking-write targets of the segment *)
  succ : int;
}

type node = Decision of decision | Segment of segment | Exit

type t = {
  nodes : node array;
  entry : int;
  exit_id : int;
  n_decisions : int;
  n_segments : int;
}

(** Build the CFG of a behavioral body. *)
val build : Stmt.t -> t

(** [choose_i d v] is the target index selected by the masked payload [v]
    at decision [d] (past the last label: the default target). Case labels
    share the scrutinee's width (enforced by design validation), so payload
    equality is full equality. *)
val choose_i : decision -> int64 -> int

(** Total simple statements across all segments (sanity measure). *)
val statement_count : t -> int
