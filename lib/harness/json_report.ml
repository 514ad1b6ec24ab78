open Faultsim

let escape = Obs.Json.escape

(* JSON has no NaN/Infinity: a non-finite value (and an undefined one,
   carried as [None]) renders as [null] rather than a literal the parser
   chokes on. *)
let opt_float fmt = function
  | Some v when Float.is_finite v -> Printf.sprintf fmt v
  | Some _ | None -> "null"

let kind_name (f : Fault.t) =
  match f.stuck with
  | Fault.Stuck_at_0 -> "stuck-at-0"
  | Fault.Stuck_at_1 -> "stuck-at-1"
  | Fault.Flip_at c -> Printf.sprintf "flip@%d" c

let verdict_key = function
  | Classify.Testable -> "testable"
  | Classify.Untestable_constant -> "untestable-constant"
  | Classify.Untestable_unobservable -> "untestable-unobservable"

let campaign ppf ~design ~engine ~faults ~verdicts (r : Fault.result) =
  let s = r.Fault.stats in
  Format.fprintf ppf "{@.";
  Format.fprintf ppf "  \"design\": \"%s\",@."
    (escape design.Rtlir.Design.dname);
  Format.fprintf ppf "  \"engine\": \"%s\",@." (escape engine);
  Format.fprintf ppf "  \"faults\": %d,@." (Array.length faults);
  Format.fprintf ppf "  \"detected\": %d,@." (Fault.count_detected r);
  Format.fprintf ppf "  \"coverage_pct\": %.4f,@." r.Fault.coverage_pct;
  Format.fprintf ppf "  \"adjusted_coverage_pct\": %s,@."
    (opt_float "%.4f" (Classify.adjusted_coverage verdicts r));
  Format.fprintf ppf "  \"wall_time_s\": %.6f,@." r.Fault.wall_time;
  Format.fprintf ppf "  \"mean_detection_latency\": %s,@."
    (opt_float "%.2f" (Fault.mean_detection_latency_opt r));
  Format.fprintf ppf
    "  \"stats\": { \"bn_good\": %d, \"bn_fault_exec\": %d, \
     \"bn_skipped_explicit\": %d, \"bn_skipped_implicit\": %d, \
     \"rtl_good_eval\": %d, \"rtl_fault_eval\": %d, \"eliminated\": %d, \
     \"explicit_pct\": %.4f, \"implicit_pct\": %.4f, \
     \"good_cycles_skipped\": %d, \"goodtrace_captures\": %d, "
    s.Stats.bn_good s.Stats.bn_fault_exec s.Stats.bn_skipped_explicit
    s.Stats.bn_skipped_implicit s.Stats.rtl_good_eval s.Stats.rtl_fault_eval
    (Stats.eliminated s) (Stats.explicit_pct s) (Stats.implicit_pct s)
    s.Stats.good_cycles_skipped s.Stats.goodtrace_captures;
  (* plan fields only when a schedule plan ran (warm campaigns), so cold
     reports keep their historical byte format *)
  if s.Stats.plan_batches > 0 then
    Format.fprintf ppf "\"plan_batches\": %d, \"plan_snapshots\": %d, "
      s.Stats.plan_batches s.Stats.plan_snapshots;
  Format.fprintf ppf "\"bn_seconds\": %.6f, \"cpu_seconds\": %.6f },@."
    s.Stats.bn_seconds s.Stats.cpu_seconds;
  Format.fprintf ppf "  \"per_proc\": [@.";
  Array.iteri
    (fun i (row : Stats.proc_row) ->
      Format.fprintf ppf
        "    { \"name\": \"%s\", \"exec\": %d, \"skip_implicit\": %d, \
         \"skip_explicit\": %d }%s@."
        (escape row.Stats.pr_name) row.Stats.pr_exec row.Stats.pr_impl
        row.Stats.pr_expl
        (if i = Array.length s.Stats.per_proc - 1 then "" else ","))
    s.Stats.per_proc;
  Format.fprintf ppf "  ],@.";
  Format.fprintf ppf "  \"fault_list\": [@.";
  Array.iteri
    (fun i (f : Fault.t) ->
      Format.fprintf ppf
        "    { \"id\": %d, \"signal\": \"%s\", \"bit\": %d, \"kind\": \
         \"%s\", \"class\": \"%s\", \"detected\": %b, \"cycle\": %d }%s@."
        f.fid
        (escape (Rtlir.Design.signal_name design f.signal))
        f.bit (kind_name f)
        (verdict_key verdicts.(i))
        r.Fault.detected.(i) r.Fault.detection_cycle.(i)
        (if i = Array.length faults - 1 then "" else ","))
    faults;
  Format.fprintf ppf "  ]@.";
  Format.fprintf ppf "}@."

(* The canonical verdicts-only report: nothing but the final per-fault
   verdicts and the coverage they imply. Execution texture — stats,
   retries, divergences, quarantine — is deliberately absent, so two
   campaigns that converged to the same verdicts render byte-identically
   no matter how differently they got there. This is the report `eraser
   chaos` diffs against a clean run. *)
let verdicts ppf ~design ~engine ~faults (r : Fault.result) =
  Format.fprintf ppf "{@.";
  Format.fprintf ppf "  \"design\": \"%s\",@."
    (escape design.Rtlir.Design.dname);
  Format.fprintf ppf "  \"engine\": \"%s\",@." (escape engine);
  Format.fprintf ppf "  \"faults\": %d,@." (Array.length faults);
  Format.fprintf ppf "  \"detected\": %d,@." (Fault.count_detected r);
  Format.fprintf ppf "  \"coverage_pct\": %.4f,@." r.Fault.coverage_pct;
  Format.fprintf ppf "  \"verdicts\": [@.";
  Array.iteri
    (fun i (f : Fault.t) ->
      Format.fprintf ppf
        "    { \"id\": %d, \"signal\": \"%s\", \"bit\": %d, \"kind\": \
         \"%s\", \"detected\": %b, \"cycle\": %d }%s@."
        f.fid
        (escape (Rtlir.Design.signal_name design f.signal))
        f.bit (kind_name f) r.Fault.detected.(i) r.Fault.detection_cycle.(i)
        (if i = Array.length faults - 1 then "" else ","))
    faults;
  Format.fprintf ppf "  ]@.";
  Format.fprintf ppf "}@."

(* The resilient report deliberately contains no timing: it must be
   byte-identical between a cold run and a journal resume of the same
   campaign (the smoke test diffs the two), and every field below is a
   deterministic function of (design, engine, workload, fault list,
   batching). *)
let resilient ppf ~design ~engine ~faults ~verdicts (s : Resilient.summary) =
  let r = s.Resilient.result in
  let st = r.Fault.stats in
  let quarantined = Hashtbl.create 8 in
  List.iter
    (fun f -> Hashtbl.replace quarantined f ())
    s.Resilient.quarantined;
  Format.fprintf ppf "{@.";
  Format.fprintf ppf "  \"design\": \"%s\",@."
    (escape design.Rtlir.Design.dname);
  Format.fprintf ppf "  \"engine\": \"%s\",@." (escape engine);
  Format.fprintf ppf "  \"faults\": %d,@." (Array.length faults);
  Format.fprintf ppf "  \"detected\": %d,@." (Fault.count_detected r);
  Format.fprintf ppf "  \"coverage_pct\": %.4f,@." r.Fault.coverage_pct;
  Format.fprintf ppf "  \"adjusted_coverage_pct\": %s,@."
    (opt_float "%.4f" (Classify.adjusted_coverage verdicts r));
  Format.fprintf ppf "  \"batches\": %d,@." s.Resilient.batches_total;
  Format.fprintf ppf "  \"oracle_checked_batches\": %d,@."
    s.Resilient.oracle_checked;
  (* emitted only when the cone analysis pruned something, so cold reports
     keep their historical byte format (and cold-vs-resume stays
     byte-identical: the pruned set is deterministic in the design) *)
  if s.Resilient.pruned_faults <> [] then
    Format.fprintf ppf "  \"statically_pruned\": %d,@."
      (List.length s.Resilient.pruned_faults);
  Format.fprintf ppf
    "  \"stats\": { \"bn_good\": %d, \"bn_fault_exec\": %d, \
     \"bn_skipped_explicit\": %d, \"bn_skipped_implicit\": %d, \
     \"rtl_good_eval\": %d, \"rtl_fault_eval\": %d },@."
    st.Stats.bn_good st.Stats.bn_fault_exec st.Stats.bn_skipped_explicit
    st.Stats.bn_skipped_implicit st.Stats.rtl_good_eval
    st.Stats.rtl_fault_eval;
  Format.fprintf ppf "  \"divergences\": [@.";
  List.iteri
    (fun i (d : Resilient.divergence) ->
      Format.fprintf ppf
        "    { \"fault\": %d, \"batch\": %d, \"engine_detected\": %b, \
         \"engine_cycle\": %d, \"oracle_detected\": %b, \"oracle_cycle\": \
         %d }%s@."
        d.Resilient.div_fault d.Resilient.div_batch d.Resilient.engine_detected
        d.Resilient.engine_cycle d.Resilient.oracle_detected
        d.Resilient.oracle_cycle
        (if i = List.length s.Resilient.divergences - 1 then "" else ","))
    s.Resilient.divergences;
  Format.fprintf ppf "  ],@.";
  Format.fprintf ppf "  \"fault_list\": [@.";
  Array.iteri
    (fun i (f : Fault.t) ->
      Format.fprintf ppf
        "    { \"id\": %d, \"signal\": \"%s\", \"bit\": %d, \"kind\": \
         \"%s\", \"class\": \"%s\", \"detected\": %b, \"cycle\": %d, \
         \"quarantined\": %b }%s@."
        f.fid
        (escape (Rtlir.Design.signal_name design f.signal))
        f.bit (kind_name f)
        (verdict_key verdicts.(i))
        r.Fault.detected.(i) r.Fault.detection_cycle.(i)
        (Hashtbl.mem quarantined f.fid)
        (if i = Array.length faults - 1 then "" else ","))
    faults;
  Format.fprintf ppf "  ]@.";
  Format.fprintf ppf "}@."
