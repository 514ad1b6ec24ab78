(** Random design generation for differential testing.

    Generates structurally valid designs — layered combinational logic (so
    the RTL graph is acyclic by construction), mux-heavy assigns (nested
    muxes, muxes under operators, memory reads in arms), combinational
    processes with latch-free bodies (some read a target's previous value
    in a dead write before assigning it), edge-triggered processes with
    nested if/case control, ROMs and RAMs — paired with a random workload. Differential tests run
    every engine on the same (design, workload, faults) triple and require
    identical detected-fault sets. *)

open Rtlir
open Faultsim

type t = {
  design : Design.t;
  graph : Elaborate.t;
  workload : Workload.t;
  faults : Fault.t array;
}

(** [generate ~seed] builds a random scenario. Deterministic in [seed]. *)
val generate : ?cycles:int -> ?max_faults:int -> seed:int64 -> unit -> t
