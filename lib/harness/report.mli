(** Paper-formatted rendering of experiment results. *)

val environment : Format.formatter -> unit -> unit
(** Table I: the actual evaluation environment of this run. *)

val table2 : Format.formatter -> Experiments.table2_row list -> unit
val table3 : Format.formatter -> Experiments.redundancy_row list -> unit
val fig1b : Format.formatter -> (string * float * float) list -> unit

(** Fig. 6 / Fig. 7: times plus speedups relative to the first engine of
    each row. *)
val perf : title:string -> Format.formatter -> Experiments.perf_row list -> unit
