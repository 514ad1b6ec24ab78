(** The Eraser concurrent (batched) RTL fault-simulation engine
    (paper Section IV, Fig. 4).

    One good network is simulated; each fault is carried as a sparse set of
    {e diffs} — (signal, fault) and (memory word, fault) entries holding the
    faulty network's value where it differs from the good value (the
    visible bad gates). RTL nodes are re-evaluated per fault only when the
    fault has a visible diff on the node's cone (steps 2-3). Behavioral
    nodes activated by the good network process their fault copies under one
    of three redundancy policies (steps 4-6):

    - {!No_redundancy} (Eraser--): every live fault executes its copy at
      every good activation;
    - {!Explicit_only} (Eraser-): faults whose inputs carry no diff are
      skipped (input-comparison redundancy, as in prior multi-level
      concurrent simulators);
    - {!Full} (Eraser): additionally, faults whose inputs do differ run
      Algorithm 1 over the visibility dependency graph; provably
      path-and-dependency-identical executions are skipped.

    Skipped and path-diverged fault copies are reconciled at the
    nonblocking-commit phase so the diff store stays exact. Clock-cone
    faults are tracked through per-fault edge detection: edge evaluation is
    postponed until the combinational settle completes (the paper's
    fake-event fix), and the faulty edge is derived from the fault's own
    clock view rather than blindly following the good edge. *)

open Rtlir
open Faultsim

type mode = No_redundancy | Explicit_only | Full

val mode_name : mode -> string

type config = {
  mode : mode;
  instrument : bool;
  corrupt_verdict : int option;
      (** debug knob: flip the verdict of this fault id after the run,
          simulating an engine bug. Used to exercise the resilient runner's
          online divergence quarantine; ids out of range are ignored. *)
}

val default_config : config

(** Chaos seam, installed (and uninstalled) by [Harness.Chaos]: consulted
    once per observation point of every run in this process. Returning
    [Some f] flips the low bit of fault [f]'s view of the first output
    port before the detection scan — a deterministic stand-in for a
    corrupted diff-store entry. Out-of-range and already-detected fault
    ids are ignored. The disabled path is a single [Atomic.get]; leave
    this at [None] except under chaos testing. *)
val chaos_corrupt_diff :
  (cycle:int -> nfaults:int -> int option) option Atomic.t

(** The immutable compiled form of one elaborated design: every behavioral
    body and continuous-assign expression, compiled once. All per-campaign
    mutable state is allocated inside each run, so one instance is reusable
    across any number of {e sequential} runs — the parallel harness builds
    one instance per worker domain and amortises compilation over that
    worker's batches. An instance must not be used by two domains at the
    same time. *)
type instance

val instance : Elaborate.t -> instance

(** Run a fault-simulation campaign. The result's detected set matches the
    serial per-fault oracle for any mode. Per-process executed/skipped
    counters are in the result's [Stats.per_proc] (and, with metrics on,
    the [engine.proc.<name>.*] counters).

    [?ids] runs only that subset of [faults]: the selected faults are
    renumbered to dense ids [0..n-1] (the engine's indexing invariant) and
    the result is indexed by position in [ids]. Because faulty networks
    never interact, each fault's verdict equals its verdict in a
    whole-list run — the property the resilient runner's batching relies
    on. Without [?ids] the faults run as given and must already be
    numbered [0..n-1].

    [?instance] reuses a prebuilt {!instance} instead of recompiling the
    design (the per-batch entry point of the parallel harness).

    [?probe] — when given, [probe cycle view mem_view] is called at every
    observation point; [view fault_id signal_id] reads the faulty network's
    current value (good value overlaid with the fault's diffs). Used by the
    differential tests to localise divergences.

    [?goodtrace] warm-starts the run from a captured good trace (see
    {!capture}): the good network is not re-simulated — its recorded
    writes are replayed through the engine's good-write seams, so
    [bn_good] and [rtl_good_eval] stay at zero — and when
    [goodtrace.start > 0] the run begins at that snapshot cycle, skipping
    the dead prefix. Every fault in the batch must activate at or after
    [goodtrace.start] (see {!activations}); the engine raises
    {!Sim.Goodtrace.Trace_mismatch} if one provably does not. Verdicts and
    detection cycles are identical to a cold run's. *)
val run :
  ?config:config ->
  ?probe:(int -> (int -> int -> Bits.t) -> (int -> int -> int -> Bits.t) -> unit) ->
  ?goodtrace:Sim.Goodtrace.warm ->
  ?instance:instance ->
  ?ids:int array ->
  Elaborate.t ->
  Workload.t ->
  Fault.t array ->
  Fault.result

(** [capture g w] runs the good network once — no faults — and records
    every good event (inputs, assign results, behavioral writes and branch
    choices), the per-cycle output vectors, and one full {!Sim.State}
    snapshot: the good state at the end of the workload. Mid-trace
    snapshots are the schedule planner's to place
    ({!Sim.Goodtrace.with_snapshots}). The returned trace is immutable and
    safe to share read-only across worker domains; one capture serves
    every subsequent warm-started batch of the same (design, workload). *)
val capture :
  ?config:config ->
  ?instance:instance ->
  Elaborate.t ->
  Workload.t ->
  Sim.Goodtrace.t

(** [activations trace g faults] is each fault's activation window start:
    the first cycle its injection can make the faulty network persistently
    or observably diverge from the good one, under the cone-refined rule
    (see {!Sim.Goodtrace.activations} and {!Flow.Cone}). A batch whose
    faults all activate at or after cycle [a] can warm-start from
    [Sim.Goodtrace.start_for trace ~activation:a] with verdicts provably
    unchanged. [?cone] reuses a prebuilt analysis instead of rebuilding
    one per call. *)
val activations :
  ?cone:Flow.Cone.t -> Sim.Goodtrace.t -> Elaborate.t -> Fault.t array ->
  int array

(** [statically_undetectable g faults] flags faults whose site signal has
    no structural path to any design output ({!Flow.Cone.observable} is
    false): no input stimulus can ever expose them, so a campaign may
    skip simulating them entirely and report the verdict (undetected)
    without running a single cycle. *)
val statically_undetectable :
  ?cone:Flow.Cone.t -> Elaborate.t -> Fault.t array -> bool array
