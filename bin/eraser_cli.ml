(* eraser — command-line front end.

     eraser list
     eraser describe -c sha256_hv
     eraser run -c alu -e eraser --scale 0.5 --instrument
     eraser faults -c apb -n 20 *)

open Cmdliner
open Rtlir
open Faultsim
module H = Harness

let circuit_names =
  List.map (fun (c : Circuits.Bench_circuit.t) -> c.name) Circuits.all

let circuit_conv =
  let parse s =
    match Circuits.find s with
    | c -> Ok c
    | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown circuit %S (try: %s)" s
                (String.concat ", " circuit_names)))
  in
  Arg.conv (parse, fun ppf (c : Circuits.Bench_circuit.t) ->
      Format.pp_print_string ppf c.name)

let engine_conv =
  let table =
    [
      ("ifsim", H.Campaign.Ifsim);
      ("vfsim", H.Campaign.Vfsim);
      ("z01x", H.Campaign.Z01x_proxy);
      ("eraser--", H.Campaign.Eraser_mm);
      ("eraser-", H.Campaign.Eraser_m);
      ("eraser", H.Campaign.Eraser);
    ]
  in
  let parse s =
    match List.assoc_opt (String.lowercase_ascii s) table with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown engine %S (try: %s)" s
                (String.concat ", " (List.map fst table))))
  in
  Arg.conv (parse, fun ppf e ->
      Format.pp_print_string ppf (H.Campaign.engine_name e))

let circuit_arg =
  Arg.(
    required
    & opt (some circuit_conv) None
    & info [ "c"; "circuit" ] ~docv:"CIRCUIT" ~doc:"Benchmark circuit name.")

(* Map the structured campaign errors to one-line stderr messages and
   distinct exit codes (divergence 3, timeout 4, corrupt journal 5, bad
   workload 6); everything else keeps cmdliner's conventions. Every
   subcommand runs under it. Every file the CLI reads or writes is one the
   user named, so a [Sys_error] is a bad workload too. *)
let guard f =
  try f () with
  | H.Resilient.Campaign_error e ->
      Format.eprintf "eraser: %s@." (H.Resilient.error_message e);
      H.Resilient.exit_code e
  | Workload.Invalid_workload msg ->
      Format.eprintf "eraser: bad workload: %s@." msg;
      H.Resilient.exit_code (H.Resilient.Bad_workload msg)
  | Sys_error msg ->
      Format.eprintf "eraser: %s@." msg;
      H.Resilient.exit_code (H.Resilient.Bad_workload msg)

let bad_workload msg =
  raise (H.Resilient.Campaign_error (H.Resilient.Bad_workload msg))

let non_negative flag n =
  if n < 0 then bad_workload (Printf.sprintf "%s must be >= 0, got %d" flag n)

(* An output file the user named must be writable before any work starts,
   not after the campaign: its directory must exist and be writable, and
   the path itself must not be a directory. *)
let check_output = function
  | None -> ()
  | Some path -> (
      let dir = Filename.dirname path in
      let fail why =
        bad_workload (Printf.sprintf "cannot write %s: %s" path why)
      in
      if Sys.file_exists path && Sys.is_directory path then
        fail "it is a directory"
      else if not (Sys.file_exists dir && Sys.is_directory dir) then
        fail (dir ^ " is not a directory")
      else
        try Unix.access dir [ Unix.W_OK ]
        with Unix.Unix_error _ -> fail (dir ^ " is not writable"))

(* NaN, infinities and non-positive scales would silently run the
   minimum-size workload (or overflow the scaled counts), so they are
   usage errors like any other malformed argument. *)
let valid_scale x = Float.is_finite x && x > 0.0

let scale_conv =
  let parse s =
    match float_of_string_opt s with
    | Some x when valid_scale x -> Ok x
    | _ ->
        Error
          (`Msg
             (Printf.sprintf "invalid scale %S: expected a finite number > 0"
                s))
  in
  Arg.conv (parse, Format.pp_print_float)

let scale_arg =
  Arg.(
    value & opt scale_conv 0.25
    & info [ "scale" ] ~docv:"S"
        ~doc:
          "Scale stimulus length and fault count relative to the paper's \
           Table II parameters.")

(* --- observability flags (run + campaign) --- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Profile the campaign and write a Chrome trace_event JSON file \
           to $(docv) (open in chrome://tracing or Perfetto): spans for \
           engine runs, batches, good simulation, behavioral-node \
           evaluations and VDG walks, one track per worker domain.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Record named engine metrics (execution/skip counters per \
           behavioral node, VDG walk depth and detection-latency \
           histograms) and write them as JSON to $(docv).")

(* Enable the requested instrumentation around [f] and export on a normal
   return. Exports are skipped when [f] raises — a partial trace of a
   failed campaign would be mistaken for a complete one. *)
let with_obs ~trace ~metrics f =
  if trace <> None then Obs.Trace.enable ();
  if metrics <> None then Obs.Metrics.enable ();
  let code = f () in
  (match trace with
  | Some path ->
      Obs.Trace.disable ();
      let oc = open_out path in
      Obs.Trace.export_chrome oc;
      close_out oc;
      Format.printf "  trace      %s@." path
  | None -> ());
  (match metrics with
  | Some path ->
      Obs.Metrics.disable ();
      let oc = open_out path in
      Obs.Metrics.export_json oc;
      close_out oc;
      Format.printf "  metrics    %s@." path
  | None -> ());
  code

(* --- list --- *)

let list_cmd =
  let run () =
   guard @@ fun () ->
    Format.printf "%-12s %-12s %10s %8s@." "name" "paper name" "#stimulus"
      "#faults";
    List.iter
      (fun (c : Circuits.Bench_circuit.t) ->
        Format.printf "%-12s %-12s %10d %8d@." c.name c.paper_name
          c.paper_cycles c.paper_faults)
      Circuits.all;
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the benchmark circuits (paper Table II).")
    Term.(const run $ const ())

(* --- describe --- *)

let describe_cmd =
  let run (c : Circuits.Bench_circuit.t) =
   guard @@ fun () ->
    let d = c.build () in
    let g = Elaborate.build d in
    Format.printf "%s (%s)@." c.name c.paper_name;
    Format.printf "  signals            %d@." (Design.num_signals d);
    Format.printf "  memories           %d@." (Array.length d.mems);
    Format.printf "  RTL nodes          %d@." (Elaborate.rtl_node_count g);
    Format.printf "  behavioral nodes   %d@."
      (Elaborate.behavioral_node_count g);
    Format.printf "  cells (AST size)   %d@." (Design.cell_count d);
    Format.printf "  fault sites        %d@."
      (Array.length (Fault.generate ~seed:0L d));
    Array.iter
      (fun (p : Design.proc) ->
        let cfg = Flow.Cfg.build p.body in
        Format.printf "  proc %-14s %s, %d decisions, %d segments@." p.pname
          (match p.trigger with
          | Design.Comb -> "comb"
          | Design.Edges _ -> "ff  ")
          cfg.Flow.Cfg.n_decisions cfg.Flow.Cfg.n_segments)
      d.procs;
    0
  in
  Cmd.v
    (Cmd.info "describe"
       ~doc:"Show a circuit's elaborated structure and CFG statistics.")
    Term.(const run $ circuit_arg)

(* --- worker and capture flags (campaign + chaos) --- *)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains. Faults are partitioned across $(docv) parallel \
           engine instances; verdicts and reports are identical for any \
           $(docv).")

(* --- run --- *)

let run_cmd =
  let engine_arg =
    Arg.(
      value
      & opt engine_conv H.Campaign.Eraser
      & info [ "e"; "engine" ] ~docv:"ENGINE"
          ~doc:
            "Engine: ifsim, vfsim, z01x (explicit-only proxy), eraser--, \
             eraser-, eraser.")
  in
  let instrument_arg =
    Arg.(
      value & flag
      & info [ "instrument" ]
          ~doc:"Measure behavioral-node time (Table III instrumentation).")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Also run the serial oracle and check that the detected-fault \
             sets and detection cycles are identical.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the full campaign result as JSON.")
  in
  let run (c : Circuits.Bench_circuit.t) engine scale instrument verify json
      trace metrics =
   guard @@ fun () ->
    List.iter check_output [ json; trace; metrics ];
    with_obs ~trace ~metrics @@ fun () ->
    let design, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
    Format.printf "%s on %s: %d cycles, %d faults@."
      (H.Campaign.engine_name engine) c.name w.Workload.cycles
      (Array.length faults);
    let r = H.Campaign.run ~instrument engine g w faults in
    Format.printf "  coverage   %.2f%% (%d/%d)@." r.Fault.coverage_pct
      (Fault.count_detected r) (Array.length faults);
    Format.printf "  wall time  %.3f s@." r.Fault.wall_time;
    let s = r.Fault.stats in
    Format.printf "  behavioral good=%d exec=%d skip_explicit=%d \
                   skip_implicit=%d@."
      s.Stats.bn_good s.Stats.bn_fault_exec s.Stats.bn_skipped_explicit
      s.Stats.bn_skipped_implicit;
    if instrument then
      Format.printf "  behavioral-node time %.0f%%@." (Stats.bn_time_pct s);
    let verdicts = Classify.classify g faults in
    (match Classify.adjusted_coverage verdicts r with
    | Some adj ->
        Format.printf "  adjusted   %.2f%% over %d testable faults@." adj
          (Array.fold_left
             (fun acc v -> if v = Classify.Testable then acc + 1 else acc)
             0 verdicts)
    | None -> Format.printf "  adjusted   n/a (no testable faults)@.");
    (match json with
    | Some path ->
        let oc = open_out path in
        let ppf = Format.formatter_of_out_channel oc in
        H.Json_report.campaign ppf ~design
          ~engine:(H.Campaign.engine_name engine)
          ~faults ~verdicts r;
        Format.pp_print_flush ppf ();
        close_out oc;
        Format.printf "  json       %s@." path
    | None -> ());
    if verify then begin
      let oracle = H.Campaign.run H.Campaign.Ifsim g w faults in
      if Fault.same_verdict oracle r then
        Format.printf "  verdict    identical to the serial oracle@."
      else begin
        let divergences = ref [] in
        Array.iteri
          (fun i (f : Fault.t) ->
            let ed = r.Fault.detected.(i) and od = oracle.Fault.detected.(i) in
            if
              ed <> od
              || (ed && r.Fault.detection_cycle.(i)
                        <> oracle.Fault.detection_cycle.(i))
            then
              divergences :=
                {
                  H.Resilient.div_fault = f.fid;
                  div_batch = 0;
                  engine_detected = r.Fault.detected.(i);
                  engine_cycle = r.Fault.detection_cycle.(i);
                  oracle_detected = oracle.Fault.detected.(i);
                  oracle_cycle = oracle.Fault.detection_cycle.(i);
                }
                :: !divergences)
          faults;
        raise
          (H.Resilient.Campaign_error
             (H.Resilient.Engine_divergence (List.rev !divergences)))
      end
    end;
    0
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a fault-simulation campaign on one circuit.")
    Term.(
      const run $ circuit_arg $ engine_arg $ scale_arg $ instrument_arg
      $ verify_arg $ json_arg $ trace_arg $ metrics_arg)

(* --- campaign (resilient runner) --- *)

(* render the canonical verdicts-only report to a string *)
let verdicts_report ~design ~engine ~faults r =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  H.Json_report.verdicts ppf ~design ~engine:(H.Campaign.engine_name engine)
    ~faults r;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let campaign_cmd =
  let engine_arg =
    Arg.(
      value
      & opt engine_conv H.Campaign.Eraser
      & info [ "e"; "engine" ] ~docv:"ENGINE"
          ~doc:
            "Engine: ifsim, vfsim, z01x (explicit-only proxy), eraser--, \
             eraser-, eraser.")
  in
  let batch_arg =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"N" ~doc:"Faults per batch.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append each completed batch to this JSONL checkpoint file; an \
             interrupted campaign resumes from it with $(b,--resume).")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay completed batches from the journal instead of \
             truncating it and starting over.")
  in
  let oracle_sample_arg =
    Arg.(
      value & opt float 0.0
      & info [ "oracle-sample" ] ~docv:"P"
          ~doc:
            "Probability (0..1) that a batch is re-checked online against \
             the serial per-fault oracle; diverging faults are quarantined \
             and re-simulated serially.")
  in
  let batch_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "batch-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-batch wall-clock watchdog; a tripped batch is split in \
             half and retried with a fresh budget.")
  in
  let cycle_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cycle-budget" ] ~docv:"N"
          ~doc:"Per-batch simulated-cycle watchdog.")
  in
  let max_retries_arg =
    Arg.(
      value & opt int 2
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Batch-split generations allowed after a watchdog trip.")
  in
  let no_quarantine_arg =
    Arg.(
      value & flag
      & info [ "no-quarantine" ]
          ~doc:
            "Abort the campaign on the first engine divergence instead of \
             quarantining the fault.")
  in
  let inject_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject-divergence" ] ~docv:"FAULT"
          ~doc:
            "Debug: corrupt this fault's verdict inside the concurrent \
             engine to exercise the quarantine path.")
  in
  let progress_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "progress" ] ~docv:"SECONDS"
          ~doc:
            "Print a progress heartbeat (faults/sec, ETA, live coverage) \
             to stderr every $(docv) seconds, and append it to the journal \
             when one is in use.")
  in
  let supervise_arg =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Fault-tolerant mode: a crashed batch task is retried on a \
             fresh engine instance (up to $(b,--max-retries) times), and a \
             batch that exhausts its watchdog budget even as a single \
             fault is abandoned (reported undetected) instead of aborting \
             the campaign.")
  in
  let repro_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:
            "Shrink every quarantined divergence to a minimal reproducer \
             and write it as $(i,repro-<fault>.json) into $(docv) (replay \
             with $(b,eraser repro)).")
  in
  let run (c : Circuits.Bench_circuit.t) engine scale batch journal resume
      oracle_sample batch_timeout cycle_budget max_retries no_quarantine
      inject json jobs warmstart verdicts_out trace metrics progress supervise
      repro_dir =
   guard @@ fun () ->
    List.iter check_output [ json; verdicts_out; trace; metrics ];
    with_obs ~trace ~metrics @@ fun () ->
    let design, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
    let config =
      {
        H.Resilient.engine;
        jobs;
        batch_size = batch;
        journal;
        resume;
        oracle_sample;
        max_batch_seconds = batch_timeout;
        max_batch_cycles = cycle_budget;
        max_retries;
        quarantine = not no_quarantine;
        inject_divergence = inject;
        progress;
        supervise;
        repro_dir;
        repro_meta = Some (c.name, scale);
        warmstart;
      }
    in
    Format.printf "resilient %s on %s: %d cycles, %d faults, batches of %d@."
      (H.Campaign.engine_name engine)
      c.name w.Workload.cycles (Array.length faults) batch;
    let s = H.Resilient.run ~config g w faults in
    let r = s.H.Resilient.result in
    Format.printf "  coverage   %.2f%% (%d/%d)@." r.Fault.coverage_pct
      (Fault.count_detected r) (Array.length faults);
    Format.printf "  batches    %d total, %d resumed from the journal, %d \
                   executed@."
      s.H.Resilient.batches_total s.H.Resilient.batches_resumed
      s.H.Resilient.batches_executed;
    if s.H.Resilient.retries > 0 then
      Format.printf "  watchdog   %d batch split(s)@." s.H.Resilient.retries;
    if s.H.Resilient.restarts > 0 then
      Format.printf "  supervisor %d task restart(s)@." s.H.Resilient.restarts;
    if s.H.Resilient.failed_faults <> [] then
      Format.printf "  abandoned  %d fault(s): %s@."
        (List.length s.H.Resilient.failed_faults)
        (String.concat ", "
           (List.map string_of_int s.H.Resilient.failed_faults));
    if s.H.Resilient.pruned_faults <> [] then
      Format.printf "  cone       %d fault(s) statically pruned@."
        (List.length s.H.Resilient.pruned_faults);
    List.iter
      (fun f -> Format.printf "  repro      %s@." f)
      s.H.Resilient.repros;
    if s.H.Resilient.oracle_checked > 0 then
      Format.printf "  oracle     %d batch(es) re-checked, %d divergence(s)@."
        s.H.Resilient.oracle_checked
        (List.length s.H.Resilient.divergences);
    List.iter
      (fun (d : H.Resilient.divergence) ->
        Format.printf
          "  quarantine fault %d (%s): engine said %s, serial oracle says \
           %s@."
          d.H.Resilient.div_fault
          (Fault.describe design faults.(d.H.Resilient.div_fault))
          (if d.H.Resilient.engine_detected then "detected" else "live")
          (if d.H.Resilient.oracle_detected then "detected" else "live"))
      s.H.Resilient.divergences;
    Format.printf "  wall time  %.3f s@." r.Fault.wall_time;
    (* keyed off the summary, not the flag: --resume adopts the journal's
       warm/cold regime, which may differ from this invocation's flags *)
    if r.Fault.stats.Stats.goodtrace_captures > 0 then
      Format.printf "  warm-start %d good cycle(s) skipped, capture %d B@."
        r.Fault.stats.Stats.good_cycles_skipped s.H.Resilient.capture_bytes;
    if r.Fault.stats.Stats.plan_batches > 0 then
      Format.printf "  schedule   %d planned batch(es), %d snapshot(s)@."
        r.Fault.stats.Stats.plan_batches r.Fault.stats.Stats.plan_snapshots;
    (match json with
    | Some path ->
        let verdicts = Classify.classify g faults in
        H.Resilient.write_atomic path (fun oc ->
            let ppf = Format.formatter_of_out_channel oc in
            H.Json_report.resilient ppf ~design
              ~engine:(H.Campaign.engine_name engine)
              ~faults ~verdicts s;
            Format.pp_print_flush ppf ());
        Format.printf "  json       %s@." path
    | None -> ());
    (match verdicts_out with
    | Some path ->
        let text = verdicts_report ~design ~engine ~faults r in
        H.Resilient.write_atomic path (fun oc -> output_string oc text);
        Format.printf "  verdicts   %s@." path
    | None -> ());
    0
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the campaign report as JSON (atomically: temp file + \
             rename).")
  in
  let warmstart_arg =
    Arg.(
      value & flag
      & info [ "warmstart" ]
          ~doc:
            "Capture the good network's trace once, then warm-start every \
             batch from the snapshot at its earliest fault activation and \
             replay the recorded good deltas instead of re-simulating the \
             good network. Batches are regrouped by activation window and \
             faults the cone-of-influence analysis proves statically \
             undetectable are reported without being simulated; verdicts \
             are identical to the cold path. Concurrent engines only; \
             ignored for ifsim and vfsim. $(b,--resume) adopts the \
             journal's own warm/cold regime regardless of this flag.")
  in
  let verdicts_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "verdicts" ] ~docv:"FILE"
          ~doc:
            "Write the stats-free verdicts-only JSON report (atomically). \
             Byte-identical across engines, $(b,--jobs) values and \
             $(b,--warmstart), so it can be diffed directly.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a fault campaign through the resilient runner: batched \
          execution with a JSONL journal for checkpoint/resume, per-batch \
          watchdog budgets, and online divergence quarantine against the \
          serial oracle.")
    Term.(
      const run $ circuit_arg $ engine_arg $ scale_arg $ batch_arg
      $ journal_arg $ resume_arg $ oracle_sample_arg $ batch_timeout_arg
      $ cycle_budget_arg $ max_retries_arg $ no_quarantine_arg $ inject_arg
      $ json_arg $ jobs_arg $ warmstart_arg $ verdicts_arg $ trace_arg
      $ metrics_arg $ progress_arg $ supervise_arg $ repro_dir_arg)

(* --- chaos --- *)

let chaos_cmd =
  let seed_arg =
    Arg.(
      value & opt int64 0xC4A05L
      & info [ "seed" ] ~docv:"S"
          ~doc:"Chaos seed; the whole failure schedule derives from it.")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.5
      & info [ "rate" ] ~docv:"P"
          ~doc:
            "Per-(kind, batch) injection probability in [0, 1]. The \
             corrupt kind does not draw per batch: at any rate above 0 it \
             fires in every engine run, at rate 0 never.")
  in
  let kinds_arg =
    let kind_conv =
      let parse s =
        match H.Chaos.kind_of_name s with
        | Some k -> Ok k
        | None ->
            Error
              (`Msg
                 (Printf.sprintf "unknown chaos kind %S (try: %s)" s
                    (String.concat ", "
                       (List.map H.Chaos.kind_name H.Chaos.all_kinds))))
      in
      Arg.conv (parse, fun ppf k ->
          Format.pp_print_string ppf (H.Chaos.kind_name k))
    in
    Arg.(
      value
      & opt (list kind_conv) H.Chaos.all_kinds
      & info [ "kinds" ] ~docv:"KINDS"
          ~doc:
            "Comma-separated injection kinds: raise, stall, corrupt, \
             torn-journal. Default: all four.")
  in
  let batch_arg =
    Arg.(
      value & opt int 8
      & info [ "batch" ] ~docv:"N" ~doc:"Faults per batch.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 0.5
      & info [ "batch-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-batch watchdog budget; the stall injection sleeps past it \
             so the watchdog, not the harness, kills the batch.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Journal path for the chaos run (a temp file by default). The \
             torn-journal injection kills the campaign mid-write; the \
             driver resumes it from this journal.")
  in
  let run (c : Circuits.Bench_circuit.t) scale seed rate kinds batch timeout
      journal jobs =
   guard @@ fun () ->
    if not (rate >= 0.0 && rate <= 1.0) then
      bad_workload (Printf.sprintf "--rate must be within [0, 1], got %g" rate);
    let design, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
    let engine = H.Campaign.Eraser in
    let base =
      {
        H.Resilient.default_config with
        H.Resilient.engine;
        jobs;
        batch_size = batch;
        max_batch_seconds = Some timeout;
        oracle_sample = 1.0;
        supervise = true;
        repro_meta = Some (c.name, scale);
      }
    in
    Format.printf
      "chaos %s on %s: %d cycles, %d faults, seed %Ld, rate %g, kinds %s@."
      (H.Campaign.engine_name engine)
      c.name w.Workload.cycles (Array.length faults) seed rate
      (String.concat "," (List.map H.Chaos.kind_name kinds));
    (* clean reference run: same campaign, no injection *)
    let clean = H.Resilient.run ~config:base g w faults in
    let clean_report =
      verdicts_report ~design ~engine ~faults clean.H.Resilient.result
    in
    let path, temp =
      match journal with
      | Some p -> (p, false)
      | None -> (Filename.temp_file "eraser-chaos" ".jsonl", true)
    in
    let plan = { H.Chaos.seed; kinds; rate } in
    (* The chaos campaign: install the plan and run with a journal. A
       torn-journal injection kills the run mid-write ([Chaos.Killed]); the
       driver resumes from the journal exactly as an operator would — the
       fired-once tables make the retry succeed. *)
    let summary =
      Fun.protect
        ~finally:(fun () ->
          H.Chaos.uninstall ();
          if temp then try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          H.Chaos.install plan;
          let rec attempt n resume =
            let config =
              { base with H.Resilient.journal = Some path; resume }
            in
            try H.Resilient.run ~config g w faults
            with H.Chaos.Killed msg when n < 4 ->
              Format.printf "  killed     %s — resuming from the journal@."
                msg;
              attempt (n + 1) true
          in
          attempt 0 false)
    in
    List.iter
      (fun (k, n) ->
        if n > 0 then
          Format.printf "  injected   %-12s %d@." (H.Chaos.kind_name k) n)
      (H.Chaos.counts ());
    Format.printf "  batches    %d total, %d resumed, %d executed@."
      summary.H.Resilient.batches_total summary.H.Resilient.batches_resumed
      summary.H.Resilient.batches_executed;
    Format.printf "  recovery   %d split(s), %d restart(s), %d divergence(s) \
                   quarantined, %d abandoned@."
      summary.H.Resilient.retries summary.H.Resilient.restarts
      (List.length summary.H.Resilient.divergences)
      (List.length summary.H.Resilient.failed_faults);
    let chaos_report =
      verdicts_report ~design ~engine ~faults summary.H.Resilient.result
    in
    if String.equal chaos_report clean_report then begin
      Format.printf "  verdicts   byte-identical to the clean run@.";
      0
    end
    else begin
      Format.eprintf
        "eraser: chaos verdicts diverge from the clean run's@.";
      7
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a supervised campaign under seeded deterministic fault \
          injection (task crashes, stalls past the watchdog, diff-store \
          corruption, torn journal writes) and assert that the recovered \
          campaign's verdicts are byte-identical to a clean run's. Exit \
          code 7 on mismatch.")
    Term.(
      const run $ circuit_arg $ scale_arg $ seed_arg $ rate_arg $ kinds_arg
      $ batch_arg $ timeout_arg $ journal_arg $ jobs_arg)

(* --- repro --- *)

(* A reproducer file's fields. *)
type repro = {
  rp_circuit : string;
  rp_scale : float;
  rp_engine : string;
  rp_fault : int;
  rp_ids : int array;
  rp_cycles : int;
  rp_inject : int option;
  rp_engine_detected : bool;
  rp_engine_cycle : int;
  rp_oracle_detected : bool;
  rp_oracle_cycle : int;
}

let bad_repro file msg =
  bad_workload (Printf.sprintf "repro file %s: %s" file msg)

(* Every field is read and range-checked here, so a malformed file fails
   as a bad workload before anything is simulated. *)
let read_repro file src =
  let bad msg = bad_repro file msg in
  let rp =
    try
      let j = H.Jsonl.parse (String.trim src) in
      if
        (match H.Jsonl.member "type" j with
        | Some (H.Jsonl.String "repro") -> false
        | _ -> true)
        || H.Jsonl.get_int "version" j <> 1
      then bad "not a version-1 repro record";
      let obj name =
        match H.Jsonl.member name j with
        | Some (H.Jsonl.Obj _ as o) -> o
        | _ when name = "circuit" ->
            bad "no circuit metadata (campaign ran without a bench circuit)"
        | _ -> bad (Printf.sprintf "missing or non-object field %S" name)
      in
      {
        rp_circuit = H.Jsonl.get_string "name" (obj "circuit");
        rp_scale = H.Jsonl.get_float "scale" (obj "circuit");
        rp_engine = H.Jsonl.get_string "engine" j;
        rp_fault = H.Jsonl.get_int "id" (obj "fault");
        rp_ids =
          Array.of_list (List.map H.Jsonl.to_int (H.Jsonl.get_list "ids" j));
        rp_cycles = H.Jsonl.get_int "cycles" j;
        rp_inject =
          (match H.Jsonl.member "inject" j with
          | Some (H.Jsonl.Int i) -> Some i
          | _ -> None);
        rp_engine_detected = H.Jsonl.get_bool "engine_detected" j;
        rp_engine_cycle = H.Jsonl.get_int "engine_cycle" j;
        rp_oracle_detected = H.Jsonl.get_bool "oracle_detected" j;
        rp_oracle_cycle = H.Jsonl.get_int "oracle_cycle" j;
      }
    with H.Jsonl.Parse_error m -> bad m
  in
  if not (valid_scale rp.rp_scale) then
    bad
      (Printf.sprintf "invalid scale %g: expected a finite number > 0"
         rp.rp_scale);
  if rp.rp_cycles < 0 then
    bad (Printf.sprintf "negative cycle count %d" rp.rp_cycles);
  rp

let repro_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REPRO.json"
          ~doc:"Reproducer file written by a campaign with --repro-dir.")
  in
  let engine_of_name s =
    List.find_opt (fun e -> H.Campaign.engine_name e = s) H.Campaign.all_engines
  in
  let run file =
   guard @@ fun () ->
    let ic = open_in_bin file in
    let src =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let bad msg = bad_repro file msg in
    let rp = read_repro file src in
    let c =
      match Circuits.find rp.rp_circuit with
      | c -> c
      | exception Not_found ->
          bad (Printf.sprintf "unknown circuit %S" rp.rp_circuit)
    in
    let engine =
      match engine_of_name rp.rp_engine with
      | Some e -> e
      | None -> bad (Printf.sprintf "unknown engine %S" rp.rp_engine)
    in
    let fault_id = rp.rp_fault and ids = rp.rp_ids and cycles = rp.rp_cycles in
    let design, g, w, faults =
      Circuits.Bench_circuit.instantiate c ~scale:rp.rp_scale
    in
    if Array.exists (fun id -> id < 0 || id >= Array.length faults) ids then
      bad "fault ids out of range for this circuit and scale";
    let w = { w with Workload.cycles } in
    let index_of f =
      Array.to_seqi ids
      |> Seq.find_map (fun (i, id) -> if id = f then Some i else None)
    in
    let k =
      match index_of fault_id with
      | Some k -> k
      | None -> bad "divergent fault is not part of the reproducer set"
    in
    Format.printf "replaying %s: fault %d (%s) among %d fault(s), %d cycles@."
      file fault_id
      (Fault.describe design faults.(fault_id))
      (Array.length ids) cycles;
    let config =
      match engine with
      | H.Campaign.Ifsim | H.Campaign.Vfsim -> None
      | e ->
          Some
            {
              Engine.Concurrent.default_config with
              mode = H.Campaign.concurrent_mode e;
              corrupt_verdict = Option.bind rp.rp_inject index_of;
            }
    in
    let er = H.Campaign.dispatch ?config engine g w faults ~ids in
    let oracle =
      H.Campaign.dispatch H.Campaign.Ifsim g w faults ~ids:[| fault_id |]
    in
    let ed = er.Fault.detected.(k)
    and ec = er.Fault.detection_cycle.(k)
    and od = oracle.Fault.detected.(0)
    and oc = oracle.Fault.detection_cycle.(0) in
    let verdict d cyc =
      if d then Printf.sprintf "detected@%d" cyc else "live"
    in
    Format.printf "  engine     %s (recorded %s)@." (verdict ed ec)
      (verdict rp.rp_engine_detected rp.rp_engine_cycle);
    Format.printf "  oracle     %s (recorded %s)@." (verdict od oc)
      (verdict rp.rp_oracle_detected rp.rp_oracle_cycle);
    let matches =
      ed = rp.rp_engine_detected
      && ec = rp.rp_engine_cycle
      && od = rp.rp_oracle_detected
      && oc = rp.rp_oracle_cycle
    in
    let diverges = ed <> od || (ed && ec <> oc) in
    if matches && diverges then begin
      Format.printf "  reproduced the divergence@.";
      0
    end
    else begin
      Format.eprintf
        "eraser: reproducer did not replay: %s@."
        (if not diverges then "engine and oracle now agree"
         else "verdicts differ from the recorded ones");
      8
    end
  in
  Cmd.v
    (Cmd.info "repro"
       ~doc:
         "Replay a repro-<fault>.json reproducer (written by eraser \
          campaign --repro-dir): re-run the engine on the minimal fault \
          set and cycle window and check both verdicts against the \
          recorded ones. Exit code 8 when the divergence does not \
          reproduce.")
    Term.(const run $ file_arg)

(* --- faults --- *)

let faults_cmd =
  let count_arg =
    Arg.(
      value & opt int 9999999
      & info [ "n" ] ~docv:"N" ~doc:"Show at most N faults.")
  in
  let run (c : Circuits.Bench_circuit.t) scale n =
   guard @@ fun () ->
    non_negative "-n" n;
    let d, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
    let verdicts = Classify.classify g faults in
    let r = H.Campaign.run H.Campaign.Eraser g w faults in
    Array.iteri
      (fun i f ->
        if i < n then
          Format.printf "%4d  %-30s %-10s %s@." i
            (Fault.describe d f)
            (if r.Fault.detected.(i) then
               Printf.sprintf "DT@%d" r.Fault.detection_cycle.(i)
             else "live")
            (match verdicts.(i) with
            | Classify.Testable -> ""
            | v -> Classify.verdict_name v))
      faults;
    Format.printf "raw coverage %.2f%%, adjusted (testable only) %s@."
      r.Fault.coverage_pct
      (match Classify.adjusted_coverage verdicts r with
      | Some adj -> Printf.sprintf "%.2f%%" adj
      | None -> "n/a (no testable faults)");
    0
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"List the fault sites of a campaign with their verdicts.")
    Term.(const run $ circuit_arg $ scale_arg $ count_arg)

(* --- export --- *)

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")

let export_cmd =
  let run (c : Circuits.Bench_circuit.t) output =
   guard @@ fun () ->
    let text = Verilog.to_string (c.build ()) in
    (match output with
    | None -> print_string text
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Format.printf "wrote %s@." path);
    0
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a benchmark circuit as Verilog-2001.")
    Term.(const run $ circuit_arg $ output_arg)

(* --- run-verilog --- *)

let run_verilog_cmd =
  let file_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Verilog source file.")
  in
  let clock_arg =
    Arg.(
      value & opt string "clk"
      & info [ "clock" ] ~docv:"NAME" ~doc:"Clock input name.")
  in
  let cycles_arg =
    Arg.(
      value & opt int 1000
      & info [ "cycles" ] ~docv:"N" ~doc:"Random stimulus length.")
  in
  let max_faults_arg =
    Arg.(
      value & opt int 2000
      & info [ "max-faults" ] ~docv:"N" ~doc:"Fault-list cap.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S" ~doc:"Stimulus / sampling seed.")
  in
  let run file clock cycles max_faults seed =
   guard @@ fun () ->
    non_negative "--cycles" cycles;
    non_negative "--max-faults" max_faults;
    let src = In_channel.with_open_text file In_channel.input_all in
    (* The Verilog text is untrusted: a parse error, a design the
       elaborator rejects and a clock that is not an input are all bad
       workloads. *)
    let design, g =
      try
        let design = Verilog_parser.parse src in
        (design, Elaborate.build design)
      with
      | Verilog_parser.Parse_error msg -> bad_workload ("parse error: " ^ msg)
      | Design.Invalid msg | Elaborate.Comb_cycle msg | Expr.Type_error msg ->
          bad_workload ("invalid design: " ^ msg)
    in
    (match Design.find_signal design clock with
    | exception Not_found ->
        bad_workload (Printf.sprintf "no input named %S (use --clock)" clock)
    | id when design.Design.signals.(id).Design.kind <> Design.Input ->
        bad_workload (Printf.sprintf "%S is not an input (use --clock)" clock)
    | _ -> ());
    let w =
      Circuits.Bench_circuit.random_workload ~clock ~seed:(Int64.of_int seed)
        design ~cycles
    in
    let faults =
      Fault.generate ~max_faults ~seed:(Int64.of_int seed) design
    in
    Format.printf "%s: %d signals, %d faults, %d cycles@." design.Design.dname
      (Design.num_signals design)
      (Array.length faults) cycles;
    (* so is a design whose clock edges oscillate within one time slot *)
    let r =
      try H.Campaign.run H.Campaign.Eraser g w faults
      with Sim.Simulator.Unstable msg -> bad_workload ("unstable design: " ^ msg)
    in
    Format.printf "  coverage   %.2f%% (%d/%d)@." r.Fault.coverage_pct
      (Fault.count_detected r) (Array.length faults);
    Format.printf "  wall time  %.3f s@." r.Fault.wall_time;
    Format.printf "  mean detection latency %.1f cycles@."
      (Fault.mean_detection_latency r);
    0
  in
  Cmd.v
    (Cmd.info "run-verilog"
       ~doc:
         "Parse a Verilog file and run an Eraser fault campaign with random           stimulus.")
    Term.(
      const run $ file_arg $ clock_arg $ cycles_arg $ max_faults_arg
      $ seed_arg)

(* --- vcd --- *)

let vcd_cmd =
  let cycles_arg =
    Arg.(
      value & opt int 200
      & info [ "cycles" ] ~docv:"N" ~doc:"Cycles of stimulus to record.")
  in
  let run (c : Circuits.Bench_circuit.t) output cycles =
   guard @@ fun () ->
    non_negative "--cycles" cycles;
    let path = Option.value output ~default:(c.name ^ ".vcd") in
    let d = c.build () in
    let g = Elaborate.build d in
    let w = c.workload d ~cycles in
    Sim.Vcd.dump_drive ~path g ~clock:w.Workload.clock ~cycles
      ~drive:w.Workload.drive;
    Format.printf "wrote %s (%d cycles)@." path cycles;
    0
  in
  Cmd.v
    (Cmd.info "vcd"
       ~doc:"Record a fault-free waveform of a circuit's testbench as VCD.")
    Term.(const run $ circuit_arg $ output_arg $ cycles_arg)

let () =
  let doc = "efficient RTL fault simulation with trimmed execution redundancy" in
  let info = Cmd.info "eraser" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd; describe_cmd; run_cmd; campaign_cmd; chaos_cmd;
            repro_cmd; faults_cmd; export_cmd; run_verilog_cmd; vcd_cmd;
          ]))
