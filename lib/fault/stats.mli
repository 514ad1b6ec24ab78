(** Execution counters backing Fig. 1(b) and Table III.

    Counting convention: at every activation of a behavioral node in the
    good network, each live fault either executes its faulty copy, is
    skipped as explicitly redundant (its inputs equal the good inputs — it
    never even enters the node's processing set), or is skipped as
    implicitly redundant (inputs differ but Algorithm 1 proves the execution
    path and its data dependencies unaffected). Total behavioral-node
    executions without any elimination is therefore
    [bn_good + bn_fault_exec + bn_skipped_explicit + bn_skipped_implicit]
    minus the good share, matching the paper's "#Total BN Execution". *)

(** Per-behavioral-node counters, one row per node (keyed by [pr_name]). *)
type proc_row = {
  pr_name : string;
  mutable pr_exec : int;  (** faulty executions performed *)
  mutable pr_impl : int;  (** implicit-redundancy skips *)
  mutable pr_expl : int;  (** explicit-redundancy skips *)
}

type t = {
  mutable bn_good : int;  (** good behavioral executions *)
  mutable bn_fault_exec : int;  (** faulty behavioral executions performed *)
  mutable bn_skipped_explicit : int;
  mutable bn_skipped_implicit : int;
  mutable rtl_good_eval : int;  (** good RTL-node evaluations *)
  mutable rtl_fault_eval : int;  (** faulty RTL-node evaluations *)
  mutable good_cycles_skipped : int;
      (** cycles never simulated because a warm-started run began at a
          good-trace snapshot past them; summed across batches by {!add} *)
  mutable goodtrace_captures : int;
      (** good-trace capture runs behind this result (0 on the cold path;
          campaigns set 1 — the capture is shared by every batch) *)
  mutable cone_pruned : int;
      (** faults never simulated because the cone-of-influence analysis
          proved their site has no structural path to any output *)
  mutable plan_batches : int;
      (** batches in the schedule plan the campaign executed.
          Coordinator-set on warm planned runs (0 otherwise); {!add} keeps
          the max, never a sum *)
  mutable plan_snapshots : int;
      (** snapshots held by the plan's (possibly re-planned) good trace;
          coordinator-set like [plan_batches] *)
  mutable bn_seconds : float;
      (** CPU time inside behavioral execution, summed across workers
          (only when instrumented) *)
  mutable cpu_seconds : float;
      (** CPU time inside engine runs, summed across workers by {!add} *)
  mutable total_seconds : float;
      (** wall-clock time of the campaign. {!add} takes the max of the two
          operands (parallel workers overlap); coordinators overwrite it
          with the measured wall time. Never sum worker times into it. *)
  mutable per_proc : proc_row array;  (** filled by the concurrent engine *)
}

val create : unit -> t

(** Monotonic-safe wall clock, shared by every engine's instrumentation:
    [Unix.gettimeofday] guarded so no call ever returns less than a
    previous call (in any domain — the high-water mark is one process-wide
    atomic). Deltas between two [now] readings are therefore never
    negative, even across an NTP step. *)
val now : unit -> float

(** Faulty behavioral executions had no elimination been applied. *)
val total_bn_executions : t -> int

(** Eliminated faulty executions (explicit + implicit). *)
val eliminated : t -> int

(** Percentages of {e eliminated} executions, as Table III reports them:
    [explicit_pct] + [implicit_pct] <= 100 (the remainder executed). Both
    are relative to the total faulty executions without elimination. *)
val explicit_pct : t -> float

val implicit_pct : t -> float

(** Share of instrumented behavioral time, in percent. The denominator is
    [cpu_seconds] (comparable to [bn_seconds], which is also a CPU-time
    sum); falls back to [total_seconds] when no CPU time was recorded
    (e.g. stats reconstructed from a journal). *)
val bn_time_pct : t -> float

(** Merge two workers' counters. Integer counters, [bn_seconds] and
    [cpu_seconds] are summed; [total_seconds] is the max (wall clocks of
    parallel workers overlap — summing them was the historical bug that
    corrupted [bn_time_pct] at [--jobs > 1]); [per_proc] is merged by
    [pr_name] (the historical [Array.append] duplicated every row per
    worker), preserving first-occurrence order so identically-ordered
    inputs — all engines emit rows in program order — merge positionally. *)
val add : t -> t -> t

val pp : Format.formatter -> t -> unit
