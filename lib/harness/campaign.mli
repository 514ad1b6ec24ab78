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
    - [Eraser] — concurrent, explicit + implicit (Algorithm 1). *)




type engine = Ifsim | Vfsim | Z01x_proxy | Eraser_mm | Eraser_m | Eraser

val engine_name : engine -> string
val all_engines : engine list

(** Redundancy-elimination mode of a concurrent engine; raises
    [Invalid_argument] for the serial baselines [Ifsim] and [Vfsim]. *)
val concurrent_mode : engine -> Engine.Concurrent.mode

(** The one engine-dispatch point: run [engine] over the fault-id subset
    [ids]. The serial baselines get the subset renumbered; concurrent
    engines go through {!Engine.Concurrent.run_batch} with the optional
    config / divergence probe / warm-start trace / precompiled instance
    passed straight through (all ignored by the serial baselines).
    {!Resilient} and every planned batch here share this function — the
    engine match must exist exactly once. *)
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

(** [run ?jobs engine g w faults] — with [jobs > 1] (default 1) the fault
    list is partitioned into [jobs] contiguous chunks simulated by a
    {!Pool} of worker domains. Verdicts and detection cycles are identical
    to the monolithic run for any [jobs] (faulty networks never interact);
    counters tied to the partitioning differ — each worker re-simulates
    the good network ([bn_good], [rtl_good_eval] scale with the partition
    count) and faulty RTL-evaluation sharing is per-partition. For
    byte-identical reports at any [jobs], use {!Resilient.run}, whose
    batch decomposition is independent of the worker count.

    [?warmstart] (default [false], concurrent engines only — the serial
    baselines ignore it) captures the good trace once
    ({!Engine.Concurrent.capture}), drops faults the cone-of-influence
    analysis proves statically undetectable (counted in
    [stats.cone_pruned]; their verdict is reported undetected without
    simulating them), sorts the remaining fault list by activation window
    ({!Engine.Concurrent.activations}) and warm-starts every chunk from
    the latest good-state snapshot at or before its earliest activation.
    Verdicts and detection cycles are identical to the cold run for any
    [jobs]; [bn_good] and [rtl_good_eval] drop to zero for every batch
    (the one capture run is counted in [stats.goodtrace_captures]).

    Whatever the options, execution is "plan, then execute plan": the
    fault set is decomposed by {!Schedule.plan} (granularity
    [Chunks jobs]), every batch is dispatched through {!dispatch} with the
    plan's warm start, and results merge in plan order. Warm runs plan
    [Adaptive]; cold runs plan [Fixed], which reproduces the historical
    contiguous-chunk partition. [?capture_mem_limit] spills the planned
    trace to a disk-backed mmap when [capture_bytes] exceeds it. *)
val run :
  ?instrument:bool ->
  ?jobs:int ->
  ?warmstart:bool ->
  ?capture_mem_limit:int ->
  engine ->
  Rtlir.Elaborate.t ->
  Faultsim.Workload.t ->
  Faultsim.Fault.t array ->
  Faultsim.Fault.result

(** Instantiate a registered circuit and run it on one engine. *)
val run_circuit :
  ?instrument:bool ->
  ?jobs:int ->
  ?warmstart:bool ->
  ?capture_mem_limit:int ->
  engine ->
  Circuits.Bench_circuit.t ->
  scale:float ->
  Faultsim.Fault.result
