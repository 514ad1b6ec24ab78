(** Registry entry for one benchmark circuit (paper Table II row).

    Each circuit provides its design, its testbench (the paper uses
    developer-provided or hand-written stimuli; ours are directed sequences
    plus seeded random vectors), and the paper's stimulus/fault-count
    parameters so campaigns can be scaled relative to them. *)

open Rtlir
open Faultsim

type t = {
  name : string;  (** short identifier used on the CLI *)
  paper_name : string;  (** the row label in Table II *)
  build : unit -> Design.t;
  paper_cycles : int;  (** #Stimulus from Table II *)
  paper_faults : int;  (** #Faults from Table II *)
  workload : Design.t -> cycles:int -> Workload.t;
}

(** Build design + graph + workload + fault list in one go, with cycle and
    fault budgets scaled from the paper's values (at least 50 cycles / 20
    faults). Raises [Workload.Invalid_workload] when a scaled count does
    not fit in an [int] (including a NaN [scale]). *)
val instantiate :
  t -> scale:float -> Design.t * Elaborate.t * Workload.t * Fault.t array

(** Workload from seeded random vectors over all non-clock inputs, with an
    optional directed prefix. [clock] names the clock input (default
    "clk"); raises [Not_found] when the design has no such signal. *)
val random_workload :
  ?directed:(int * Bits.t) list array ->
  ?clock:string ->
  seed:int64 ->
  Design.t ->
  cycles:int ->
  Workload.t
