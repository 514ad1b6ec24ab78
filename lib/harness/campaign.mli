(** Campaign runner: one entry point over every engine in the evaluation.

    Engines (paper Section V-A):
    - [Ifsim] — Iverilog-force-style baseline: interpreted, event-driven,
      one full simulation per fault;
    - [Vfsim] — Verilator-based fault simulator: compiled, cycle-based, one
      simulation per fault;
    - [Z01x_proxy] — stand-in for the commercial Z01X: the concurrent
      engine with explicit (input-comparison) redundancy elimination only
      (see DESIGN.md for why this proxy is faithful);
    - [Eraser_mm] ("Eraser--") — concurrent, no redundancy elimination;
    - [Eraser_m] ("Eraser-") — concurrent, explicit elimination;
    - [Eraser] — concurrent, explicit + implicit (Algorithm 1).

    A campaign here is one engine call over one fault list. Batched,
    parallel, warm-started or journaled campaigns run through
    {!Resilient.run}, whose batch decomposition does not depend on the
    worker count. *)

type engine = Ifsim | Vfsim | Z01x_proxy | Eraser_mm | Eraser_m | Eraser

val engine_name : engine -> string
val all_engines : engine list

(** Redundancy-elimination mode of a concurrent engine; raises
    [Invalid_argument] for the serial baselines [Ifsim] and [Vfsim]. *)
val concurrent_mode : engine -> Engine.Concurrent.mode

(** The one engine-dispatch point: run [engine] over the fault-id subset
    [ids], with results indexed by position in [ids]. The serial baselines
    get the subset renumbered; concurrent engines go through
    {!Engine.Concurrent.run} [~ids] with the optional config / divergence
    probe / warm-start trace / precompiled instance passed straight
    through (all ignored by the serial baselines). [?config] defaults to
    the engine's mode with [?instrument]. {!run}, every {!Resilient}
    batch, retry and quarantine singleton and [eraser repro] share this
    function — the engine match exists exactly once. *)
val dispatch :
  ?instrument:bool ->
  ?config:Engine.Concurrent.config ->
  ?probe:(int -> (int -> int -> Rtlir.Bits.t) -> (int -> int -> int -> Rtlir.Bits.t) -> unit) ->
  ?goodtrace:Sim.Goodtrace.warm ->
  ?instance:Engine.Concurrent.instance ->
  engine ->
  Rtlir.Elaborate.t ->
  Faultsim.Workload.t ->
  Faultsim.Fault.t array ->
  ids:int array ->
  Faultsim.Fault.result

(** [run ?instrument engine g w faults] — one cold {!dispatch} of [engine]
    over every fault, on the calling domain. [wall_time] and
    [stats.total_seconds] time the whole call, design compilation
    included. Verdicts and detection cycles equal those of any batched,
    parallel or warm-started {!Resilient.run} of the same campaign. *)
val run :
  ?instrument:bool ->
  engine ->
  Rtlir.Elaborate.t ->
  Faultsim.Workload.t ->
  Faultsim.Fault.t array ->
  Faultsim.Fault.result
