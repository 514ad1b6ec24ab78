(** Serial (one-full-simulation-per-fault) baseline engines.

    Both run a golden simulation to record the per-cycle output trace, then
    re-simulate the whole design once per fault with the stuck-at bit
    forced, comparing outputs against the trace each cycle and dropping the
    fault at first divergence.

    - {!ifsim} mirrors Iverilog + [force]: bytecode-interpreted,
      event-driven;
    - {!vfsim} mirrors a Verilator-based fault simulator: closure-compiled,
      cycle-based (every node evaluated every cycle). *)

open Rtlir
open Sim
open Faultsim

(** The faulty network of one fault as a lone simulator. A stuck-at
    fault's bit is forced from creation on; a transient's bit is flipped by
    the returned hook, which {!Faultsim.Workload.run} takes as
    [on_cycle_start]. *)
val faulty_sim :
  config:Simulator.config ->
  Elaborate.t ->
  Fault.t ->
  Simulator.t * (int -> unit)

(** Run a campaign with an explicit simulator configuration. *)
val run :
  config:Simulator.config ->
  Elaborate.t ->
  Workload.t ->
  Fault.t array ->
  Fault.result

(** {!ifsim}'s simulator: bytecode evaluation on a FIFO event wheel. *)
val ifsim_config : Simulator.config

val ifsim : Elaborate.t -> Workload.t -> Fault.t array -> Fault.result
val vfsim : Elaborate.t -> Workload.t -> Fault.t array -> Fault.result

(** The golden per-cycle output trace (used by tests). *)
val golden_trace :
  config:Simulator.config -> Elaborate.t -> Workload.t -> Bits.t array array
