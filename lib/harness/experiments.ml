open Faultsim

type table2_row = {
  t2_name : string;
  t2_stimulus : int;
  t2_cells : int;
  t2_faults : int;
  t2_cov_eraser : float;
  t2_cov_oracle : float;
}

let table2 ~scale =
  List.map
    (fun (c : Circuits.Bench_circuit.t) ->
      let design, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
      let eraser = Campaign.run Campaign.Eraser g w faults in
      let oracle = Campaign.run Campaign.Ifsim g w faults in
      {
        t2_name = c.paper_name;
        t2_stimulus = w.Workload.cycles;
        t2_cells = Rtlir.Design.cell_count design;
        t2_faults = Array.length faults;
        t2_cov_eraser = eraser.Fault.coverage_pct;
        t2_cov_oracle = oracle.Fault.coverage_pct;
      })
    Circuits.all

type redundancy_row = {
  r_name : string;
  r_bn_time_pct : float;
  r_total_bn : int;
  r_eliminated : int;
  r_explicit_pct : float;
  r_implicit_pct : float;
}

(* The paper's Table III benchmarks (it omits Sodor, Conv_acc and MIPS). *)
let table3_names =
  [ "alu"; "fpu"; "sha256_hv"; "apb"; "riscv_mini"; "picorv32"; "sha256_c2v" ]

let redundancy_row (c : Circuits.Bench_circuit.t) ~scale =
  let _, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
  let r = Campaign.run ~instrument:true Campaign.Eraser g w faults in
  let s = r.Fault.stats in
  {
    r_name = c.paper_name;
    r_bn_time_pct = Stats.bn_time_pct s;
    r_total_bn = Stats.total_bn_executions s;
    r_eliminated = Stats.eliminated s;
    r_explicit_pct = Stats.explicit_pct s;
    r_implicit_pct = Stats.implicit_pct s;
  }

let table3 ~scale =
  List.map
    (fun name -> redundancy_row (Circuits.find name) ~scale)
    table3_names

let fig1b_names = [ "alu"; "fpu"; "sha256_hv"; "apb"; "riscv_mini" ]

let fig1b ~scale =
  List.map
    (fun name ->
      let r = redundancy_row (Circuits.find name) ~scale in
      (r.r_name, r.r_explicit_pct, r.r_implicit_pct))
    fig1b_names

type perf_row = { p_name : string; p_times : (Campaign.engine * float) list }

let time_engines engines ~scale (c : Circuits.Bench_circuit.t) =
  let _, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
  {
    p_name = c.paper_name;
    p_times =
      List.map
        (fun e ->
          let r = Campaign.run e g w faults in
          (e, r.Fault.wall_time))
        engines;
  }

let fig6 ~scale =
  List.map
    (time_engines
       [ Campaign.Ifsim; Campaign.Vfsim; Campaign.Z01x_proxy; Campaign.Eraser ]
       ~scale)
    Circuits.all

let fig7 ~scale =
  List.map
    (time_engines
       [ Campaign.Eraser_mm; Campaign.Eraser_m; Campaign.Eraser ]
       ~scale)
    Circuits.all

let mean_speedup rows ~num ~den =
  let log_sum, n =
    List.fold_left
      (fun (acc, n) row ->
        let t e = List.assoc e row.p_times in
        let ratio = t den /. t num in
        if ratio > 0.0 then (acc +. log ratio, n + 1) else (acc, n))
      (0.0, 0) rows
  in
  if n = 0 then 1.0 else exp (log_sum /. float_of_int n)
