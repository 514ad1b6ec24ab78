(** Visibility dependency graph — the static structure the paper's
    Algorithm 1 (Section IV-A) walks.

    The VDG mirrors the CFG: {e path decision nodes} carry the selector
    expression ("Evaluate" function), {e path dependency nodes} carry the
    signals and memories a segment reads. Dependency nodes with nothing to
    check are compressed away ("simplify the visibility dependency graph by
    removing empty nodes"). The runtime walk over it, with its soundness
    refinement for blocking writes, is [Engine.Kernel.redundant]. *)

type t = {
  cfg : Cfg.t;
  next : int array;
      (** per node id: successor with empty dependency nodes skipped
          (meaningful for segment nodes only) *)
  interesting : bool array;
      (** per node id: segments that still need a dependency check *)
}

val build : Cfg.t -> t

(** Number of dependency nodes remaining after empty-node removal. *)
val dependency_node_count : t -> int
