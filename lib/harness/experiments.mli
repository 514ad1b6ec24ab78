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
