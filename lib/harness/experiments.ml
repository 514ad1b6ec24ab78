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

type mem_ablation_row = {
  m_name : string;
  m_implicit_exact : int;
  m_implicit_conservative : int;
  m_time_exact : float;
  m_time_conservative : float;
}

let mem_ablation_names = [ "sha256_hv"; "riscv_mini"; "picorv32"; "apb" ]

let mem_ablation ~scale =
  List.map
    (fun name ->
      let c = Circuits.find name in
      let _, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
      let run exact =
        Engine.Concurrent.run
          ~config:
            { Engine.Concurrent.default_config with exact_mem_check = exact }
          g w faults
      in
      let exact = run true in
      let conservative = run false in
      {
        m_name = c.paper_name;
        m_implicit_exact = exact.Fault.stats.Stats.bn_skipped_implicit;
        m_implicit_conservative =
          conservative.Fault.stats.Stats.bn_skipped_implicit;
        m_time_exact = exact.Fault.wall_time;
        m_time_conservative = conservative.Fault.wall_time;
      })
    mem_ablation_names

type resilience_row = {
  res_name : string;
  res_batches : int;
  res_cov_monolithic : float;
  res_cov_batched : float;
  res_cov_resumed : float;
  res_divergences : int;
  res_quarantine_ok : bool;
}

let resilience_names = [ "alu"; "apb" ]

(* Simulate a mid-campaign crash: drop the journal's final record. *)
let drop_last_line path =
  let ic = open_in_bin path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let kept = List.rev (match !lines with _ :: tl -> tl | [] -> []) in
  let oc = open_out_bin path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    kept;
  close_out oc

let resilience ~scale =
  List.map
    (fun name ->
      let c = Circuits.find name in
      let _, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
      let mono = Campaign.run Campaign.Eraser g w faults in
      let journal = Filename.temp_file "eraser_resilience" ".jsonl" in
      let cfg =
        {
          Resilient.default_config with
          batch_size = max 1 (Array.length faults / 4);
          journal = Some journal;
        }
      in
      let cold = Resilient.run ~config:cfg g w faults in
      drop_last_line journal;
      let resumed =
        Resilient.run ~config:{ cfg with Resilient.resume = true } g w faults
      in
      Sys.remove journal;
      (* inject an engine bug; the online oracle must quarantine it *)
      let injected =
        Resilient.run
          ~config:
            {
              cfg with
              Resilient.journal = None;
              oracle_sample = 1.0;
              inject_divergence = Some 0;
            }
          g w faults
      in
      {
        res_name = c.paper_name;
        res_batches = cold.Resilient.batches_total;
        res_cov_monolithic = mono.Fault.coverage_pct;
        res_cov_batched = cold.Resilient.result.Fault.coverage_pct;
        res_cov_resumed = resumed.Resilient.result.Fault.coverage_pct;
        res_divergences = List.length injected.Resilient.divergences;
        res_quarantine_ok =
          injected.Resilient.divergences <> []
          && Fault.same_verdict injected.Resilient.result mono;
      })
    resilience_names

type scaling_point = {
  sp_jobs : int;
  sp_wall : float;
  sp_faults_per_sec : float;
  sp_speedup : float;  (* vs the first (jobs = 1) point of the same row *)
  sp_stats : Stats.t;
}

type scaling_row = {
  sc_name : string;
  sc_faults : int;
  sc_cycles : int;
  sc_points : scaling_point list;
}

(* Multicore scaling sweep: the same resilient campaign at several worker
   counts. The batch decomposition (and therefore every verdict and
   counter) is fixed by the fault count alone — only wall time responds to
   [jobs] — so the sweep isolates the parallel speedup. *)
let scaling ?(jobs = [ 1; 2; 4; 8 ]) ~scale () =
  List.map
    (fun (c : Circuits.Bench_circuit.t) ->
      let _, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
      let n = Array.length faults in
      let base_wall = ref 0.0 in
      let points =
        List.map
          (fun j ->
            let config =
              {
                Resilient.default_config with
                Resilient.jobs = j;
                batch_size = max 1 (n / 16);
              }
            in
            let s = Resilient.run ~config g w faults in
            let wall = s.Resilient.result.Fault.wall_time in
            if !base_wall = 0.0 then base_wall := wall;
            {
              sp_jobs = j;
              sp_wall = wall;
              sp_faults_per_sec =
                (if wall > 0.0 then float_of_int n /. wall else 0.0);
              sp_speedup = (if wall > 0.0 then !base_wall /. wall else 1.0);
              sp_stats = s.Resilient.result.Fault.stats;
            })
          jobs
      in
      {
        sc_name = c.paper_name;
        sc_faults = n;
        sc_cycles = w.Workload.cycles;
        sc_points = points;
      })
    Circuits.all

let scaling_json ~scale rows =
  let stats_json (s : Stats.t) =
    Jsonl.Obj
      [
        ("bn_good", Jsonl.Int s.Stats.bn_good);
        ("bn_fault_exec", Jsonl.Int s.Stats.bn_fault_exec);
        ("bn_skipped_explicit", Jsonl.Int s.Stats.bn_skipped_explicit);
        ("bn_skipped_implicit", Jsonl.Int s.Stats.bn_skipped_implicit);
        ("rtl_good_eval", Jsonl.Int s.Stats.rtl_good_eval);
        ("rtl_fault_eval", Jsonl.Int s.Stats.rtl_fault_eval);
        ("good_cycles_skipped", Jsonl.Int s.Stats.good_cycles_skipped);
        ("goodtrace_captures", Jsonl.Int s.Stats.goodtrace_captures);
      ]
  in
  let point_json p =
    Jsonl.Obj
      [
        ("jobs", Jsonl.Int p.sp_jobs);
        ("wall_s", Jsonl.Float p.sp_wall);
        ("faults_per_sec", Jsonl.Float p.sp_faults_per_sec);
        ("speedup", Jsonl.Float p.sp_speedup);
        ("stats", stats_json p.sp_stats);
      ]
  in
  let row_json r =
    Jsonl.Obj
      [
        ("name", Jsonl.String r.sc_name);
        ("faults", Jsonl.Int r.sc_faults);
        ("cycles", Jsonl.Int r.sc_cycles);
        ("points", Jsonl.List (List.map point_json r.sc_points));
      ]
  in
  Jsonl.Obj
    [
      ("experiment", Jsonl.String "scaling");
      ("scale", Jsonl.Float scale);
      ("circuits", Jsonl.List (List.map row_json rows));
    ]

type warmstart_row = {
  ws_name : string;
  ws_faults : int;
  ws_cycles : int;
  ws_batches : int;
  ws_cold_wall : float;
  ws_warm_wall : float;
  ws_speedup : float;
  ws_cold_bn_good : int;
  ws_warm_bn_good : int;
  ws_cycles_skipped : int;
  ws_captures : int;
  ws_capture_bytes : int;
  ws_verdicts_equal : bool;
}

let warmstart_names = [ "alu"; "sha256_hv" ]

(* Good-network checkpointing benchmark: the same resilient campaign cold
   (every batch re-simulates the good network) and warm (one capture,
   every batch replays it from its activation-window snapshot). The warm
   run's wall clock starts before its capture, so the speedup stays
   end-to-end; the verdict check is the experiment's correctness gate. *)
let warmstart ?(jobs = 4) ~scale () =
  List.map
    (fun name ->
      let c = Circuits.find name in
      let _, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
      let n = Array.length faults in
      let base =
        {
          Resilient.default_config with
          Resilient.jobs;
          batch_size = max 1 (n / 8);
        }
      in
      let cold = Resilient.run ~config:base g w faults in
      let warm =
        Resilient.run
          ~config:{ base with Resilient.warmstart = true }
          g w faults
      in
      let cr = cold.Resilient.result and wr = warm.Resilient.result in
      let cw = cr.Fault.wall_time and ww = wr.Fault.wall_time in
      {
        ws_name = c.paper_name;
        ws_faults = n;
        ws_cycles = w.Workload.cycles;
        ws_batches = cold.Resilient.batches_total;
        ws_cold_wall = cw;
        ws_warm_wall = ww;
        ws_speedup = (if ww > 0.0 then cw /. ww else 1.0);
        ws_cold_bn_good = cr.Fault.stats.Stats.bn_good;
        ws_warm_bn_good = wr.Fault.stats.Stats.bn_good;
        ws_cycles_skipped = wr.Fault.stats.Stats.good_cycles_skipped;
        ws_captures = wr.Fault.stats.Stats.goodtrace_captures;
        ws_capture_bytes = warm.Resilient.capture_bytes;
        ws_verdicts_equal =
          cr.Fault.detected = wr.Fault.detected
          && cr.Fault.detection_cycle = wr.Fault.detection_cycle;
      })
    warmstart_names

let warmstart_json ~scale rows =
  let row_json r =
    Jsonl.Obj
      [
        ("name", Jsonl.String r.ws_name);
        ("faults", Jsonl.Int r.ws_faults);
        ("cycles", Jsonl.Int r.ws_cycles);
        ("batches", Jsonl.Int r.ws_batches);
        ("cold_wall_s", Jsonl.Float r.ws_cold_wall);
        ("warm_wall_s", Jsonl.Float r.ws_warm_wall);
        ("speedup", Jsonl.Float r.ws_speedup);
        ("cold_bn_good", Jsonl.Int r.ws_cold_bn_good);
        ("warm_bn_good", Jsonl.Int r.ws_warm_bn_good);
        ("good_cycles_skipped", Jsonl.Int r.ws_cycles_skipped);
        ("goodtrace_captures", Jsonl.Int r.ws_captures);
        ("capture_bytes", Jsonl.Int r.ws_capture_bytes);
        ("verdicts_equal", Jsonl.Bool r.ws_verdicts_equal);
      ]
  in
  Jsonl.Obj
    [
      ("experiment", Jsonl.String "warmstart");
      ("scale", Jsonl.Float scale);
      ("circuits", Jsonl.List (List.map row_json rows));
    ]

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
