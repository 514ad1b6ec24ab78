(** Resilient campaign runner: batching, checkpoint/resume, watchdogs, and
    online cross-engine divergence quarantine.

    A campaign's fault list is decomposed into fixed batches of
    [config.batch_size] consecutive fault ids; each batch runs through the
    chosen engine independently. Because faulty networks never interact,
    every fault's verdict in a batched run is identical to its verdict in a
    monolithic {!Campaign.run} — batching changes only the failure domain.
    On top of that decomposition the runner provides:

    - {b Journal / resume}: with [config.journal], every completed batch is
      appended to a JSON-Lines file (header line first, then one complete
      JSON object per batch: fault ids, verdicts, detection cycles, stats).
      A campaign killed at any point resumes with [config.resume]: journaled
      batches are replayed, the rest are simulated, and the final coverage
      is bit-identical to an uninterrupted run. A torn final line (the crash
      window) is dropped silently; any other damage or a parameter mismatch
      raises {!Campaign_error} [Journal_corrupt].
    - {b Watchdog}: [max_batch_seconds] / [max_batch_cycles] install a
      per-batch budget via {!Faultsim.Workload.with_budget}. A tripped batch
      is split in half and each half retried with a fresh budget, down to
      single-fault batches or [max_retries] split generations; after that a
      structured [Batch_timeout] is raised (completed batches stay in the
      journal, so even a timed-out campaign resumes).
    - {b Divergence quarantine}: [oracle_sample] is the probability
      (deterministic in the batch index) that a batch is
      re-checked against the serial per-fault oracle
      ({!Baselines.Serial.ifsim}). A fault whose verdict disagrees is
      quarantined: re-simulated alone serially, the serial verdict becomes
      final, and a {!divergence} record is reported instead of poisoning
      the campaign. A detection-cycle mismatch between two detections
      counts as a divergence too. [quarantine = false] turns a divergence
      into the fatal [Engine_divergence] error instead.
    - {b Supervision} ([supervise = true]): a batch task that raises a
      non-fatal exception marks only that batch as failed (fatal: the
      structured campaign errors, a chaos kill, pool shutdown and
      [Sim.Simulator.Unstable], a design that never settles) — the worker's
      engine instance is discarded and rebuilt, and the batch is
      re-dispatched up to [max_retries] times. A batch that still trips its
      budget after halving bottoms out in {e per-fault quarantine}: each
      fault runs alone with a fresh budget, and a fault that still fails is
      abandoned (reported undetected and listed in [failed_faults]) rather
      than aborting the campaign. Every retry, restart and quarantine is
      journaled as a typed [{"type":"retry",...}] record just before its
      batch record, so a resumed summary counts the whole campaign.
      Recovery happens in batch-index order on the coordinator, by the
      same loop at every [jobs], so the final report and the journaled
      retry records are deterministic given the failure schedule — and
      the report is byte-identical to a [jobs = 1] run when nothing
      fails.
    - {b Divergence shrinking} ([repro_dir = Some dir]): each quarantined
      divergence is delta-debugged ({!Shrink}) to a minimal co-batched
      fault set and cycle window, and a standalone [repro-<fault>.json]
      file is written (atomically) into [dir] for [eraser repro] to
      replay. *)

open Faultsim

(** One quarantined fault: what the engine claimed vs. what the per-fault
    serial re-simulation established (the final verdict). *)
type divergence = {
  div_fault : int;  (** campaign-global fault id *)
  div_batch : int;
  engine_detected : bool;
  engine_cycle : int;
  oracle_detected : bool;
  oracle_cycle : int;
}

type campaign_error =
  | Engine_divergence of divergence list
      (** online oracle check failed and quarantine is disabled (or a
          [run --verify] style check failed) *)
  | Batch_timeout of {
      batch : int;
      ids : int array;
      cycle : int;
      reason : string;
    }  (** watchdog budget exhausted even after retry-with-smaller-batch *)
  | Journal_corrupt of string
      (** unreadable journal record (other than a torn final line) or a
          journal recorded under different campaign parameters *)
  | Bad_workload of string
      (** structurally invalid workload or runner configuration *)

exception Campaign_error of campaign_error

(** One-line human-readable rendering, for stderr. *)
val error_message : campaign_error -> string

(** Distinct process exit code per variant: divergence 3, timeout 4,
    corrupt journal 5, bad workload 6 (0 is success, 1/2 are generic CLI
    failures). *)
val exit_code : campaign_error -> int

type config = {
  engine : Campaign.engine;
  jobs : int;
      (** worker domains, from 1 to the runtime's domain limit minus the
          calling domain (127 on 64-bit). Every [jobs] value runs the same
          dispatch-and-supervise loop; only where a batch task runs
          differs. The pool is [jobs] wide, capped at the number of
          pending batches: at width 1 a task runs inline on the calling
          domain, above that on a {!Pool} of that many domains, each
          owning an independent engine instance. The coordinator journals and merges outcomes in
          batch-index order, so the final report is byte-identical for any
          [jobs] (and a journal written at one [jobs] resumes at
          another). *)
  batch_size : int;  (** faults per batch, >= 1 *)
  max_batch_seconds : float option;  (** per-batch wall-clock budget, >= 0 *)
  max_batch_cycles : int option;  (** per-batch cycle budget, >= 0 *)
  max_retries : int;  (** split generations after a watchdog trip, >= 0 *)
  oracle_sample : float;
      (** per-batch oracle re-check probability, 0..1 (NaN is rejected) *)
  journal : string option;  (** JSONL checkpoint path *)
  resume : bool;  (** replay an existing journal instead of truncating it *)
  quarantine : bool;  (** false: any divergence aborts the campaign *)
  inject_divergence : int option;
      (** debug: corrupt this fault's verdict inside the concurrent engine
          (see {!Engine.Concurrent.config}), to exercise the quarantine *)
  progress : float option;
      (** heartbeat interval in seconds: every interval the coordinator
          prints a progress line (faults/sec, ETA, live coverage) to stderr
          and appends a [{"type":"heartbeat",...}] record to the journal
          (heartbeats are skipped on resume — they never affect replay).
          [None] disables the heartbeat; an interval must be >= 0. *)
  supervise : bool;
      (** fault-tolerant mode: crashed batch tasks are retried on a fresh
          engine instance and budget-exhausted single-fault batches are
          abandoned instead of fatal (see the overview above). Off by
          default: an unexpected exception then propagates, and a bottomed
          -out budget raises [Batch_timeout]. *)
  repro_dir : string option;
      (** write a shrunk [repro-<fault>.json] for every quarantined
          divergence into this directory (created if missing) *)
  repro_meta : (string * float) option;
      (** bench-circuit (name, scale) recorded inside repro files so
          [eraser repro] can re-instantiate the design *)
  warmstart : bool;
      (** capture the good trace once ({!Engine.Concurrent.capture}) and
          warm-start every batch: batches are composed of
          activation-sorted fault ids and each starts from the latest
          good-state snapshot at or before its earliest fault activation,
          replaying recorded good writes instead of re-simulating the good
          network. Verdicts, detection cycles and the final report are
          byte-identical to a cold run at any [jobs]; only the redundancy
          counters change ([bn_good] drops to zero per batch,
          [good_cycles_skipped] counts the skipped prefixes,
          [cone_pruned] counts the statically-undetectable faults the
          cone analysis excluded from simulation — see
          [summary.pruned_faults]). Concurrent engines only —
          [Ifsim]/[Vfsim] ignore the flag. A warm journal records a
          ["warmstart"] header field; on [resume] the runner adopts the
          journal's flag (re-capturing the good trace for a warm journal,
          running cold for a cold one) regardless of this field's value,
          so a campaign always resumes in the regime it was started
          under. Warm runs plan {!Schedule.Adaptive}, cold runs
          {!Schedule.Fixed}; a warm header also records that policy
          under ["schedule"], and a journal naming any other policy fails
          resume with [Journal_corrupt]. Off by default. *)
}

(** Eraser engine, batches of 64, no watchdog, no journal, no sampling. *)
val default_config : config

type summary = {
  result : Fault.result;  (** oracle verdicts win for quarantined faults *)
  batches_total : int;
  batches_resumed : int;  (** replayed from the journal *)
  batches_executed : int;  (** simulated by this invocation *)
  retries : int;
      (** batch splits forced by the watchdog (includes journal-replayed
          splits on resume) *)
  restarts : int;
      (** supervised task re-dispatches after a crash (includes
          journal-replayed restarts on resume) *)
  oracle_checked : int;  (** batches re-checked against the serial oracle *)
  divergences : divergence list;
  quarantined : int list;  (** fault ids re-simulated serially *)
  failed_faults : int list;
      (** fault ids abandoned by supervision; their verdicts read
          undetected in [result] and must not be trusted *)
  pruned_faults : int list;
      (** fault ids the cone-of-influence analysis proved statically
          undetectable ({!Engine.Concurrent.statically_undetectable}):
          reported undetected in [result] without being simulated, and
          journaled as one [{"type":"pruned",...}] record right after the
          header. Warm campaigns only; always empty under
          [inject_divergence]. *)
  repros : string list;
      (** repro file names written into [repro_dir], in batch order *)
  capture_bytes : int;
      (** heap footprint of the good-trace capture (0 on a cold run) *)
}

(** Run (or resume) a campaign. Raises {!Campaign_error} only — a config
    field outside its documented range and engine-level
    [Workload.Invalid_workload] are mapped to [Bad_workload], budget trips
    that survive retries to [Batch_timeout]. *)
val run :
  ?config:config ->
  Rtlir.Elaborate.t ->
  Workload.t ->
  Fault.t array ->
  summary

(** [write_atomic path f] — crash-safe file write: [f] streams to
    [path ^ ".tmp"], which is renamed over [path] only after a clean close.
    Every file the CLI writes for the user goes through it, so a killed
    run never leaves a torn report, trace or export behind. A [path] that
    exists and is not a regular file (a device such as [/dev/stdout], or
    a FIFO) is written in place instead. *)
val write_atomic : string -> (out_channel -> unit) -> unit
