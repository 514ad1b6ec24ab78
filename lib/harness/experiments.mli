(** Reproduction of every table and figure in the paper's evaluation
    (Section V). Each function runs the necessary campaigns and returns
    structured rows; {!Report} renders them in the paper's format.

    [scale] scales both the stimulus length and the fault-list size
    relative to the paper's Table II parameters (1.0 = full size). *)

type table2_row = {
  t2_name : string;
  t2_stimulus : int;
  t2_cells : int;
  t2_faults : int;
  t2_cov_eraser : float;
  t2_cov_oracle : float;  (** per-fault serial oracle (the Z01X column) *)
}

(** Table II: benchmark information and fault-coverage parity. *)
val table2 : scale:float -> table2_row list

type redundancy_row = {
  r_name : string;
  r_bn_time_pct : float;  (** share of runtime spent in behavioral nodes *)
  r_total_bn : int;  (** faulty behavioral executions without elimination *)
  r_eliminated : int;
  r_explicit_pct : float;
  r_implicit_pct : float;
}

(** Table III (and the data behind Fig. 1(b)): proportion of redundant
    behavioral-node executions, from an instrumented Eraser run. *)
val table3 : scale:float -> redundancy_row list

(** Fig. 1(b): explicit/implicit shares of all behavioral executions for the
    five circuits shown in the paper. *)
val fig1b : scale:float -> (string * float * float) list

type perf_row = {
  p_name : string;
  p_times : (Campaign.engine * float) list;  (** seconds *)
}

(** Fig. 6: execution time of IFsim, VFsim, Z01X-proxy and Eraser; IFsim is
    the speedup baseline. *)
val fig6 : scale:float -> perf_row list

(** Fig. 7: ablation — Eraser--, Eraser-, Eraser. *)
val fig7 : scale:float -> perf_row list

(** Geometric-mean speedup of [num] over [den] across rows. *)
val mean_speedup :
  perf_row list -> num:Campaign.engine -> den:Campaign.engine -> float

type mem_ablation_row = {
  m_name : string;
  m_implicit_exact : int;  (** implicit skips with per-word mem checks *)
  m_implicit_conservative : int;  (** with the whole-memory rule *)
  m_time_exact : float;
  m_time_conservative : float;
}

(** Ablation of the per-word memory-visibility refinement (DESIGN.md §6) on
    the memory-heavy circuits. *)
val mem_ablation : scale:float -> mem_ablation_row list

type resilience_row = {
  res_name : string;
  res_batches : int;
  res_cov_monolithic : float;  (** one Campaign.run over the whole list *)
  res_cov_batched : float;  (** journaled Resilient.run, cold *)
  res_cov_resumed : float;  (** after dropping the journal's last record *)
  res_divergences : int;  (** quarantines under an injected engine bug *)
  res_quarantine_ok : bool;
      (** the injected divergence was caught and the final verdicts still
          match the monolithic run *)
}

(** Exercise the resilient runner end to end (DESIGN.md §8): batched ==
    monolithic coverage, crash/resume equivalence through the journal, and
    quarantine of an injected engine divergence. *)
val resilience : scale:float -> resilience_row list

type scaling_point = {
  sp_jobs : int;
  sp_wall : float;  (** whole-campaign wall time at this worker count *)
  sp_faults_per_sec : float;
  sp_speedup : float;  (** vs the row's first point (jobs = 1) *)
  sp_stats : Faultsim.Stats.t;
      (** redundancy-hit counters — identical across the row's points, a
          built-in check that parallelism changed no simulation work *)
}

type scaling_row = {
  sc_name : string;
  sc_faults : int;
  sc_cycles : int;
  sc_points : scaling_point list;
}

(** Multicore scaling sweep (DESIGN.md §9): every Table II circuit through
    the resilient runner at each worker count in [jobs] (default
    [1; 2; 4; 8]). Speedups are relative to the first point; real gains of
    course require as many hardware cores as workers. *)
val scaling : ?jobs:int list -> scale:float -> unit -> scaling_row list

(** One-line JSON document for [BENCH_scaling.json] (parse it back with
    {!Jsonl.parse}): [{experiment, scale, circuits: [{name, faults, cycles,
    points: [{jobs, wall_s, faults_per_sec, speedup, stats}]}]}]. *)
val scaling_json : scale:float -> scaling_row list -> Jsonl.t

type warmstart_row = {
  ws_name : string;
  ws_faults : int;
  ws_cycles : int;
  ws_batches : int;
  ws_cold_wall : float;  (** cold resilient campaign *)
  ws_warm_wall : float;  (** warm campaign, capture run included *)
  ws_speedup : float;  (** cold / warm *)
  ws_cold_bn_good : int;  (** good executions summed over cold batches *)
  ws_warm_bn_good : int;  (** must be 0: every batch replays the trace *)
  ws_cycles_skipped : int;  (** dead-prefix cycles skipped, all batches *)
  ws_captures : int;  (** good-trace capture runs (always 1) *)
  ws_capture_bytes : int;  (** heap footprint of the capture *)
  ws_verdicts_equal : bool;
      (** warm detected sets and detection cycles match cold exactly *)
}

(** Good-network checkpointing benchmark (DESIGN.md §13): the same
    resilient campaign cold and warm-started, on the circuits where the
    good network dominates. *)
val warmstart : ?jobs:int -> scale:float -> unit -> warmstart_row list

(** One-line JSON document for [BENCH_warmstart.json]: [{experiment,
    scale, circuits: [{name, faults, cycles, batches, cold_wall_s,
    warm_wall_s, speedup, cold_bn_good, warm_bn_good,
    good_cycles_skipped, goodtrace_captures, capture_bytes,
    verdicts_equal}]}]. *)
val warmstart_json : scale:float -> warmstart_row list -> Jsonl.t
