(* Resilient-runner tests: batched == monolithic verdicts, journal
   checkpoint/resume (including torn final records), journal corruption
   detection, watchdog budgets with retry-by-splitting, online divergence
   quarantine of an injected engine bug, and workload validation. *)
open Faultsim
module H = Harness
module R = Harness.Resilient

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let scale = 0.06

let campaign name =
  let c = Circuits.find name in
  Circuits.Bench_circuit.instantiate c ~scale

let temp_journal () = Filename.temp_file "eraser_test_resilient" ".jsonl"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let journal_lines path =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file path))

(* Simulate a mid-write crash: drop the final record entirely and tear the
   one before it in half. *)
let crash_truncate path =
  match List.rev (journal_lines path) with
  | last :: prev :: rest ->
      ignore last;
      let torn = String.sub prev 0 (String.length prev / 2) in
      write_file path
        (String.concat "\n" (List.rev rest) ^ "\n" ^ torn)
  | _ -> Alcotest.fail "journal too short to truncate"

let same_result (a : Fault.result) (b : Fault.result) =
  a.Fault.detected = b.Fault.detected
  && a.Fault.detection_cycle = b.Fault.detection_cycle

let expect_error name pred f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Campaign_error" name
  | exception R.Campaign_error e ->
      if not (pred e) then
        Alcotest.failf "%s: unexpected error: %s" name (R.error_message e)

let render_report ~design ~g ~faults summary =
  let verdicts = Classify.classify g faults in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  H.Json_report.resilient ppf ~design ~engine:"Eraser" ~faults ~verdicts
    summary;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* ---- batching ---- *)

let test_batched_equals_monolithic () =
  List.iter
    (fun name ->
      let _, g, w, faults = campaign name in
      let mono = H.Campaign.run H.Campaign.Eraser g w faults in
      List.iter
        (fun batch_size ->
          let s =
            R.run ~config:{ R.default_config with R.batch_size } g w faults
          in
          if not (same_result mono s.R.result) then
            Alcotest.failf "%s: batch size %d changes the verdicts" name
              batch_size;
          check int_t
            (Printf.sprintf "%s/%d batch count" name batch_size)
            ((Array.length faults + batch_size - 1) / batch_size)
            s.R.batches_total)
        [ 1; 7; Array.length faults + 5 ])
    [ "alu"; "apb" ]

let test_batched_serial_engine () =
  let _, g, w, faults = campaign "alu" in
  let mono = H.Campaign.run H.Campaign.Ifsim g w faults in
  let s =
    R.run
      ~config:
        { R.default_config with R.engine = H.Campaign.Ifsim; batch_size = 5 }
      g w faults
  in
  check bool_t "serial engine batched == monolithic" true
    (same_result mono s.R.result)

(* ---- journal / resume ---- *)

let test_resume_after_crash () =
  let design, g, w, faults = campaign "alu" in
  let mono = H.Campaign.run H.Campaign.Eraser g w faults in
  let journal = temp_journal () in
  let cfg =
    {
      R.default_config with
      R.batch_size = 7;
      journal = Some journal;
      oracle_sample = 0.3;
    }
  in
  let cold = R.run ~config:cfg g w faults in
  check bool_t "cold == monolithic" true (same_result mono cold.R.result);
  let cold_report = render_report ~design ~g ~faults cold in
  crash_truncate journal;
  let resumed = R.run ~config:{ cfg with R.resume = true } g w faults in
  Sys.remove journal;
  check bool_t "resumed verdicts identical" true
    (same_result cold.R.result resumed.R.result);
  check bool_t "some batches replayed" true (resumed.R.batches_resumed > 0);
  check bool_t "some batches re-executed" true
    (resumed.R.batches_executed >= 2);
  check int_t "all batches accounted for" cold.R.batches_total
    (resumed.R.batches_resumed + resumed.R.batches_executed);
  let resumed_report = render_report ~design ~g ~faults resumed in
  check bool_t "reports byte-identical" true (cold_report = resumed_report)

let test_resume_noop_when_complete () =
  let _, g, w, faults = campaign "apb" in
  let journal = temp_journal () in
  let cfg =
    { R.default_config with R.batch_size = 9; journal = Some journal }
  in
  let cold = R.run ~config:cfg g w faults in
  let resumed = R.run ~config:{ cfg with R.resume = true } g w faults in
  Sys.remove journal;
  check int_t "nothing re-executed" 0 resumed.R.batches_executed;
  check int_t "everything replayed" cold.R.batches_total
    resumed.R.batches_resumed;
  check bool_t "verdicts identical" true
    (same_result cold.R.result resumed.R.result)

let test_corrupt_middle_record () =
  let _, g, w, faults = campaign "alu" in
  let journal = temp_journal () in
  let cfg =
    { R.default_config with R.batch_size = 7; journal = Some journal }
  in
  ignore (R.run ~config:cfg g w faults);
  (match journal_lines journal with
  | header :: _ :: rest ->
      write_file journal
        (String.concat "\n" ((header :: [ "{garbage" ]) @ rest) ^ "\n")
  | _ -> Alcotest.fail "journal too short");
  expect_error "corrupt middle record"
    (function R.Journal_corrupt _ -> true | _ -> false)
    (fun () -> R.run ~config:{ cfg with R.resume = true } g w faults);
  Sys.remove journal

let test_parameter_mismatch () =
  let _, g, w, faults = campaign "alu" in
  let journal = temp_journal () in
  let cfg =
    { R.default_config with R.batch_size = 7; journal = Some journal }
  in
  ignore (R.run ~config:cfg g w faults);
  expect_error "batch size mismatch"
    (function R.Journal_corrupt _ -> true | _ -> false)
    (fun () ->
      R.run
        ~config:{ cfg with R.batch_size = 8; resume = true }
        g w faults);
  Sys.remove journal

(* Run [cfg] to a journal, rewrite the journal header's fields with [f],
   and expect resume to reject it as Journal_corrupt (CLI exit 5). *)
let expect_header_rejected name ~cfg f =
  let _, g, w, faults = campaign "alu" in
  let journal = temp_journal () in
  let cfg = { cfg with R.batch_size = 7; journal = Some journal } in
  ignore (R.run ~config:cfg g w faults);
  (match journal_lines journal with
  | header :: rest -> (
      match H.Jsonl.parse header with
      | H.Jsonl.Obj kvs ->
          let header = H.Jsonl.to_string (H.Jsonl.Obj (f kvs)) in
          write_file journal (String.concat "\n" (header :: rest) ^ "\n")
      | _ -> Alcotest.fail "journal header is not an object")
  | [] -> Alcotest.fail "empty journal");
  expect_error name
    (function
      | R.Journal_corrupt _ as e ->
          check int_t "corrupt-journal exit code" 5 (R.exit_code e);
          true
      | _ -> false)
    (fun () -> R.run ~config:{ cfg with R.resume = true } g w faults);
  Sys.remove journal

(* A journal from a build that still had lane-packed execution carries a
   ["lanes"] header field this runner never writes. It must not resume in
   a different mode: header equality rejects it, with no compatibility
   branch in the runner. *)
let test_lanes_header_rejected () =
  expect_header_rejected "lanes header" ~cfg:R.default_config (fun kvs ->
      kvs @ [ ("lanes", H.Jsonl.Bool true) ])

(* A warm journal always records the Adaptive plan. One naming another
   policy (written by a build that let the user pick it) is rejected by
   header equality: resume adopts only ["warmstart"] from the header. *)
let test_schedule_header_rejected () =
  List.iter
    (fun policy ->
      expect_header_rejected
        (Printf.sprintf "%s schedule header" policy)
        ~cfg:{ R.default_config with R.warmstart = true }
        (List.map (function
          | "schedule", _ -> ("schedule", H.Jsonl.String policy)
          | kv -> kv)))
    [ "activation"; "fixed" ]

let test_journal_overwritten_without_resume () =
  let _, g, w, faults = campaign "apb" in
  let journal = temp_journal () in
  let cfg =
    { R.default_config with R.batch_size = 9; journal = Some journal }
  in
  ignore (R.run ~config:cfg g w faults);
  (* without --resume a stale journal is truncated, not replayed *)
  let again = R.run ~config:cfg g w faults in
  Sys.remove journal;
  check int_t "no batches resumed" 0 again.R.batches_resumed

let test_torn_tail_double_resume () =
  (* Regression: resuming over a torn final line used to append the next
     record right after the torn bytes, corrupting the journal for the
     *second* resume. The clean-prefix truncation must make any number of
     crash/resume rounds parse. *)
  let _, g, w, faults = campaign "alu" in
  let journal = temp_journal () in
  let cfg =
    { R.default_config with R.batch_size = 7; journal = Some journal }
  in
  let cold = R.run ~config:cfg g w faults in
  (* tear the final record mid-write, without a trailing newline *)
  let lines = journal_lines journal in
  let all = String.concat "\n" lines ^ "\n" in
  write_file journal (String.sub all 0 (String.length all - 12));
  let once = R.run ~config:{ cfg with R.resume = true } g w faults in
  check int_t "one batch re-executed" 1 once.R.batches_executed;
  (* the journal is whole again: a second resume replays everything *)
  let twice = R.run ~config:{ cfg with R.resume = true } g w faults in
  Sys.remove journal;
  check int_t "second resume re-executes nothing" 0 twice.R.batches_executed;
  check bool_t "verdicts stable across resumes" true
    (same_result cold.R.result twice.R.result)

let test_read_journal_torn_tail () =
  let path = temp_journal () in
  write_file path "{\"a\":1}\n{\"b\":2}\n{\"c\":";
  let j = H.Jsonl.read_journal path in
  check
    (Alcotest.list Alcotest.string)
    "complete lines" [ "{\"a\":1}"; "{\"b\":2}" ] j.H.Jsonl.complete;
  check (Alcotest.option Alcotest.string) "torn tail" (Some "{\"c\":")
    j.H.Jsonl.torn;
  write_file path "{\"a\":1}\n";
  let j = H.Jsonl.read_journal path in
  check (Alcotest.option Alcotest.string) "no tear after newline" None
    j.H.Jsonl.torn;
  write_file path "";
  let j = H.Jsonl.read_journal path in
  Sys.remove path;
  check (Alcotest.list Alcotest.string) "empty file" [] j.H.Jsonl.complete;
  check (Alcotest.option Alcotest.string) "empty file tail" None j.H.Jsonl.torn

(* ---- warm/cold resume adoption and static pruning ---- *)

let test_resume_adopts_warm_journal () =
  (* Regression: resuming a warm journal without [warmstart] used to be a
     hard Journal_corrupt (header mismatch). The runner must read the
     journal's warmstart flag, re-capture the good trace, rebuild the
     activation-sorted decomposition, and continue warm. *)
  let _, g, w, faults = campaign "alu" in
  let journal = temp_journal () in
  let warm_cfg =
    {
      R.default_config with
      R.batch_size = 7;
      journal = Some journal;
      warmstart = true;
    }
  in
  let warm = R.run ~config:warm_cfg g w faults in
  crash_truncate journal;
  let resumed =
    R.run
      ~config:{ warm_cfg with R.warmstart = false; resume = true }
      g w faults
  in
  Sys.remove journal;
  check bool_t "verdicts identical" true
    (same_result warm.R.result resumed.R.result);
  check bool_t "some batches replayed" true (resumed.R.batches_resumed > 0);
  check bool_t "some batches re-executed" true
    (resumed.R.batches_executed >= 2);
  check int_t "all batches accounted for" warm.R.batches_total
    (resumed.R.batches_resumed + resumed.R.batches_executed);
  check bool_t "the resume re-captured the good trace" true
    (resumed.R.capture_bytes > 0)

let test_resume_adopts_cold_journal () =
  (* the opposite direction: a cold journal resumed by an invocation that
     asks for [warmstart] must run cold — contiguous batches, no capture *)
  let _, g, w, faults = campaign "alu" in
  let journal = temp_journal () in
  let cold_cfg =
    { R.default_config with R.batch_size = 7; journal = Some journal }
  in
  let cold = R.run ~config:cold_cfg g w faults in
  crash_truncate journal;
  let resumed =
    R.run
      ~config:{ cold_cfg with R.warmstart = true; resume = true }
      g w faults
  in
  Sys.remove journal;
  check bool_t "verdicts identical" true
    (same_result cold.R.result resumed.R.result);
  check bool_t "some batches replayed" true (resumed.R.batches_resumed > 0);
  check int_t "no capture on a cold resume" 0 resumed.R.capture_bytes

(* A design with a register no structural path connects to any output: its
   stuck faults are statically undetectable and a warm campaign must prune
   them — journaled as one typed record — without changing any verdict. *)
let dead_end_design () =
  let module B = Rtlir.Builder in
  let open B.Ops in
  let ctx = B.create "deadend" in
  let clk = B.input ctx "clk" 1 in
  let a = B.input ctx "a" 4 in
  let q = B.reg ctx "q" 4 in
  let dead = B.reg ctx "dead" 4 in
  (* separate processes: the cone is process-granular, so co-hosting the
     dead register with q would make it (correctly) observable *)
  B.always_ff ctx ~clock:clk [ q <-- (q +: a) ];
  B.always_ff ctx ~clock:clk [ dead <-- (dead +: B.const 4 1) ];
  let o = B.output ctx "o" 4 in
  B.assign ctx o q;
  let d = B.finalize ctx in
  let g = Rtlir.Elaborate.build d in
  let a_id = Rtlir.Design.find_signal d "a" in
  let w =
    {
      Workload.cycles = 40;
      clock = Rtlir.Design.find_signal d "clk";
      drive = (fun c -> [ (a_id, Rtlir.Bits.of_int 4 (c land 15)) ]);
    }
  in
  (d, g, w)

let test_static_pruning () =
  let d, g, w = dead_end_design () in
  let dead = Rtlir.Design.find_signal d "dead" in
  let q = Rtlir.Design.find_signal d "q" in
  let mk fid signal bit stuck = { Fault.fid; signal; bit; stuck } in
  let faults =
    [|
      mk 0 q 0 Fault.Stuck_at_0;
      mk 1 dead 0 Fault.Stuck_at_1;
      mk 2 q 1 Fault.Stuck_at_1;
      mk 3 dead 3 Fault.Stuck_at_0;
    |]
  in
  let cold =
    R.run ~config:{ R.default_config with R.batch_size = 2 } g w faults
  in
  check (Alcotest.list int_t) "cold campaign prunes nothing" []
    cold.R.pruned_faults;
  let journal = temp_journal () in
  let cfg =
    {
      R.default_config with
      R.batch_size = 2;
      journal = Some journal;
      warmstart = true;
    }
  in
  let warm = R.run ~config:cfg g w faults in
  check (Alcotest.list int_t) "dead-register faults pruned" [ 1; 3 ]
    warm.R.pruned_faults;
  check bool_t "verdicts identical to the cold run" true
    (same_result cold.R.result warm.R.result);
  check bool_t "pruned faults read undetected" true
    ((not warm.R.result.Fault.detected.(1))
    && not warm.R.result.Fault.detected.(3));
  check int_t "pruned faults excluded from batching" 1 warm.R.batches_total;
  check int_t "stats count the pruned faults" 2
    warm.R.result.Fault.stats.Stats.cone_pruned;
  let has_pruned_record =
    List.exists
      (fun l ->
        match H.Jsonl.parse l with
        | j -> (
            match H.Jsonl.member "type" j with
            | Some (H.Jsonl.String "pruned") -> true
            | _ -> false)
        | exception H.Jsonl.Parse_error _ -> false)
      (journal_lines journal)
  in
  check bool_t "journal holds the typed pruned record" true has_pruned_record;
  (* a resume revalidates the pruned record and replays everything *)
  let resumed = R.run ~config:{ cfg with R.resume = true } g w faults in
  check int_t "resume re-executes nothing" 0 resumed.R.batches_executed;
  check bool_t "resumed verdicts identical" true
    (same_result warm.R.result resumed.R.result);
  check (Alcotest.list int_t) "pruned set recomputed on resume" [ 1; 3 ]
    resumed.R.pruned_faults;
  (* a tampered pruned record is a parameter mismatch, not silently used *)
  (match journal_lines journal with
  | header :: _pruned :: rest ->
      write_file journal
        (String.concat "\n"
           ((header :: [ "{\"type\":\"pruned\",\"ids\":[0]}" ]) @ rest)
        ^ "\n")
  | _ -> Alcotest.fail "journal too short");
  expect_error "tampered pruned record"
    (function R.Journal_corrupt _ -> true | _ -> false)
    (fun () -> R.run ~config:{ cfg with R.resume = true } g w faults);
  Sys.remove journal

(* ---- divergence quarantine ---- *)

let test_divergence_quarantined () =
  let _, g, w, faults = campaign "alu" in
  let oracle = H.Campaign.run H.Campaign.Ifsim g w faults in
  let journal = temp_journal () in
  let cfg =
    {
      R.default_config with
      R.batch_size = 7;
      journal = Some journal;
      oracle_sample = 1.0;
      inject_divergence = Some 3;
    }
  in
  let s = R.run ~config:cfg g w faults in
  check int_t "one divergence" 1 (List.length s.R.divergences);
  check bool_t "fault 3 quarantined" true (s.R.quarantined = [ 3 ]);
  let d = List.hd s.R.divergences in
  check int_t "divergent fault id" 3 d.R.div_fault;
  check bool_t "engine and oracle disagree" true
    (d.R.engine_detected <> d.R.oracle_detected);
  check bool_t "final verdicts follow the serial oracle" true
    (same_result oracle s.R.result);
  (* the divergence survives a journal replay *)
  let resumed = R.run ~config:{ cfg with R.resume = true } g w faults in
  Sys.remove journal;
  check int_t "nothing re-executed on replay" 0 resumed.R.batches_executed;
  check int_t "divergence replayed from the journal" 1
    (List.length resumed.R.divergences);
  check bool_t "replayed verdicts identical" true
    (same_result s.R.result resumed.R.result)

let test_divergence_fatal_without_quarantine () =
  let _, g, w, faults = campaign "alu" in
  expect_error "no-quarantine divergence"
    (function R.Engine_divergence [ d ] -> d.R.div_fault = 3 | _ -> false)
    (fun () ->
      R.run
        ~config:
          {
            R.default_config with
            R.batch_size = 7;
            oracle_sample = 1.0;
            inject_divergence = Some 3;
            quarantine = false;
          }
        g w faults)

(* ---- watchdog ---- *)

let test_cycle_budget_timeout () =
  let _, g, w, faults = campaign "alu" in
  expect_error "cycle budget"
    (function
      | R.Batch_timeout { batch = 0; cycle; _ } -> cycle = 5
      | _ -> false)
    (fun () ->
      R.run
        ~config:
          { R.default_config with R.batch_size = 8; max_batch_cycles = Some 5 }
        g w faults)

let test_wallclock_splits_to_single_fault () =
  let _, g, w, faults = campaign "alu" in
  (* an already-expired deadline trips every attempt: the runner must split
     all the way down to single-fault batches before giving up *)
  expect_error "expired deadline"
    (function
      | R.Batch_timeout { ids; _ } -> Array.length ids = 1
      | _ -> false)
    (fun () ->
      R.run
        ~config:
          {
            R.default_config with
            R.batch_size = 8;
            max_batch_seconds = Some 0.0;
            max_retries = 99;
          }
        g w faults)

let test_generous_budget_no_trip () =
  let _, g, w, faults = campaign "apb" in
  let mono = H.Campaign.run H.Campaign.Eraser g w faults in
  let s =
    R.run
      ~config:
        {
          R.default_config with
          R.batch_size = 9;
          max_batch_cycles = Some (w.Workload.cycles + 1);
          max_batch_seconds = Some 3600.0;
        }
      g w faults
  in
  check int_t "no splits" 0 s.R.retries;
  check bool_t "verdicts unchanged" true (same_result mono s.R.result)

(* ---- supervision ---- *)

let test_supervised_quarantine_bottom () =
  (* An always-expired deadline trips every attempt, at every batch size,
     down to single faults. Unsupervised that is a fatal Batch_timeout
     (pinned above); supervised, the runner must bottom out in per-fault
     quarantine — each fault tried once more alone, then abandoned — and
     complete the campaign instead of looping or aborting. *)
  let _, g, w, faults = campaign "alu" in
  let journal = temp_journal () in
  let cfg =
    {
      R.default_config with
      R.batch_size = 8;
      max_batch_seconds = Some 0.0;
      max_retries = 99;
      supervise = true;
      journal = Some journal;
    }
  in
  let s = R.run ~config:cfg g w faults in
  check int_t "every fault abandoned" (Array.length faults)
    (List.length s.R.failed_faults);
  check
    (Alcotest.list int_t)
    "abandoned in fault order"
    (List.init (Array.length faults) Fun.id)
    s.R.failed_faults;
  check bool_t "abandoned faults read undetected" true
    (Array.for_all not s.R.result.Fault.detected);
  check bool_t "watchdog splits recorded" true (s.R.retries > 0);
  (* the journal carries the failed ids and the retry events: a resume
     reconstructs the same summary without re-executing anything *)
  let resumed = R.run ~config:{ cfg with R.resume = true } g w faults in
  Sys.remove journal;
  check int_t "resume re-executes nothing" 0 resumed.R.batches_executed;
  check
    (Alcotest.list int_t)
    "failed faults replayed from the journal" s.R.failed_faults
    resumed.R.failed_faults;
  check int_t "retry events replayed from the journal" s.R.retries
    resumed.R.retries

let test_supervise_defaults_off () =
  (* the supervised paths must not change unsupervised behaviour: the
     default config still reports Batch_timeout (pinned by the watchdog
     tests above) and carries no supervision artefacts on a clean run *)
  let _, g, w, faults = campaign "apb" in
  let s =
    R.run ~config:{ R.default_config with R.batch_size = 9 } g w faults
  in
  check int_t "no restarts" 0 s.R.restarts;
  check (Alcotest.list int_t) "no failed faults" [] s.R.failed_faults;
  check (Alcotest.list Alcotest.string) "no repros" [] s.R.repros

(* ---- workload validation ---- *)

let test_budget_exceeded_unit () =
  let w =
    { Workload.cycles = 20; clock = 0; drive = (fun _ -> []) }
  in
  let wb = Workload.with_budget ~max_cycles:5 w in
  match
    Workload.run wb
      ~set_input:(fun _ _ -> ())
      ~step:(fun () -> ())
      ~observe:(fun _ -> true)
  with
  | () -> Alcotest.fail "expected Budget_exceeded"
  | exception Workload.Budget_exceeded { cycle; _ } ->
      check int_t "tripped at the budget" 5 cycle

let test_negative_cycles_rejected () =
  let w = { Workload.cycles = -1; clock = 0; drive = (fun _ -> []) } in
  (match
     Workload.run w
       ~set_input:(fun _ _ -> ())
       ~step:(fun () -> ())
       ~observe:(fun _ -> true)
   with
  | () -> Alcotest.fail "expected Invalid_workload"
  | exception Workload.Invalid_workload _ -> ());
  let _, g, _, faults = campaign "alu" in
  expect_error "negative cycles through the runner"
    (function R.Bad_workload _ -> true | _ -> false)
    (fun () -> ignore (R.run g w faults))

(* Every numeric runner limit is range-checked up front (Bad_workload, CLI
   exit 6). Zero stays valid: a zero budget is a legitimate (immediately
   tripping) watchdog, so those rows must not fail as Bad_workload. *)
let test_runner_limits_validated () =
  let _, g, w, faults = campaign "alu" in
  let d = R.default_config in
  List.iter
    (fun (name, config, rejected) ->
      match R.run ~config g w faults with
      | _ -> if rejected then Alcotest.failf "%s: accepted" name
      | exception R.Campaign_error (R.Bad_workload _ as e) ->
          if not rejected then Alcotest.failf "%s: rejected" name;
          check int_t (name ^ ": bad-workload exit code") 6 (R.exit_code e)
      | exception R.Campaign_error e ->
          if rejected then
            Alcotest.failf "%s: %s instead of a bad workload" name
              (R.error_message e))
    [
      ("max_batch_seconds -1", { d with R.max_batch_seconds = Some (-1.) },
       true);
      ("max_batch_seconds nan", { d with R.max_batch_seconds = Some nan },
       true);
      ("max_batch_seconds 0", { d with R.max_batch_seconds = Some 0.0 }, false);
      ("max_batch_cycles -1", { d with R.max_batch_cycles = Some (-1) }, true);
      ("max_batch_cycles 0", { d with R.max_batch_cycles = Some 0 }, false);
      ("max_retries -1", { d with R.max_retries = -1 }, true);
      ("max_retries 0", { d with R.max_retries = 0 }, false);
      ("progress -1", { d with R.progress = Some (-1.0) }, true);
      ("progress nan", { d with R.progress = Some nan }, true);
      ("progress 0", { d with R.progress = Some 0.0 }, false);
      ("oracle_sample nan", { d with R.oracle_sample = nan }, true);
      (* past the runtime's domain limit: rejected before any domain
         starts *)
      ("jobs 128", { d with R.jobs = 128 }, true);
    ]

let test_unknown_drive_target_rejected () =
  let _, g, w, faults = campaign "alu" in
  let bad = { w with Workload.drive = (fun _ -> [ (9999, Rtlir.Bits.one 1) ]) } in
  (match Engine.Concurrent.run g bad faults with
  | _ -> Alcotest.fail "expected Invalid_workload"
  | exception Workload.Invalid_workload msg ->
      check bool_t "message names the signal" true
        (String.length msg > 0
        && String.index_opt msg '9' <> None));
  (match Baselines.Serial.ifsim g bad faults with
  | _ -> Alcotest.fail "expected Invalid_workload (serial)"
  | exception Workload.Invalid_workload _ -> ());
  expect_error "unknown target through the runner"
    (function R.Bad_workload _ -> true | _ -> false)
    (fun () -> ignore (R.run g bad faults))

let test_clock_in_drive_rejected () =
  let _, g, w, faults = campaign "alu" in
  let bad =
    {
      w with
      Workload.drive = (fun _ -> [ (w.Workload.clock, Rtlir.Bits.one 1) ]);
    }
  in
  match Engine.Concurrent.run g bad faults with
  | _ -> Alcotest.fail "expected Invalid_workload"
  | exception Workload.Invalid_workload _ -> ()

(* ---- Jsonl ---- *)

let test_jsonl_roundtrip () =
  let v =
    H.Jsonl.Obj
      [
        ("type", H.Jsonl.String "batch");
        ("ids", H.Jsonl.List [ H.Jsonl.Int 1; H.Jsonl.Int (-2) ]);
        ("ok", H.Jsonl.Bool true);
        ("none", H.Jsonl.Null);
        ("rate", H.Jsonl.Float 0.25);
        ("text", H.Jsonl.String "a \"quoted\"\nline\twith\\escapes");
        ("nested", H.Jsonl.Obj [ ("empty", H.Jsonl.List []) ]);
      ]
  in
  check bool_t "roundtrip" true (H.Jsonl.parse (H.Jsonl.to_string v) = v);
  List.iter
    (fun s ->
      match H.Jsonl.parse s with
      | _ -> Alcotest.failf "parse %S should fail" s
      | exception H.Jsonl.Parse_error _ -> ())
    [ "{\"a\":1"; "[1,2,"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ]

(* A design whose clock edges oscillate fails every retry the same way:
   supervision lets [Sim.Simulator.Unstable] through instead of
   restarting and quarantining every batch. *)
let test_unstable_design_not_retried () =
  let d =
    Rtlir.Verilog_parser.parse
      "module osc(en, q); input en; output q; reg a; reg b; wire x; wire y;\n\
      \  assign x = en & ~(a ^ b); assign y = en & (a ^ b); assign q = a;\n\
      \  always @(posedge x) a <= ~a; always @(posedge y) b <= ~b;\n\
       endmodule\n"
  in
  let g = Rtlir.Elaborate.build d in
  let w =
    Circuits.Bench_circuit.random_workload ~clock:"en" ~seed:1L d ~cycles:10
  in
  let faults = Faultsim.Fault.generate ~max_faults:4 ~seed:1L d in
  let config = { R.default_config with R.supervise = true; batch_size = 2 } in
  match R.run ~config g w faults with
  | _ -> Alcotest.fail "an oscillating design completed"
  | exception Sim.Simulator.Unstable _ -> ()

let suite =
  [
    Alcotest.test_case "batched == monolithic verdicts" `Quick
      test_batched_equals_monolithic;
    Alcotest.test_case "batched serial engine" `Quick
      test_batched_serial_engine;
    Alcotest.test_case "resume after torn journal" `Quick
      test_resume_after_crash;
    Alcotest.test_case "resume of a complete journal" `Quick
      test_resume_noop_when_complete;
    Alcotest.test_case "corrupt middle record rejected" `Quick
      test_corrupt_middle_record;
    Alcotest.test_case "journal parameter mismatch rejected" `Quick
      test_parameter_mismatch;
    Alcotest.test_case "journal with a lanes header rejected" `Quick
      test_lanes_header_rejected;
    Alcotest.test_case "journal with a non-adaptive schedule rejected" `Quick
      test_schedule_header_rejected;
    Alcotest.test_case "stale journal overwritten without resume" `Quick
      test_journal_overwritten_without_resume;
    Alcotest.test_case "torn tail survives double resume" `Quick
      test_torn_tail_double_resume;
    Alcotest.test_case "resume adopts a warm journal" `Quick
      test_resume_adopts_warm_journal;
    Alcotest.test_case "resume adopts a cold journal" `Quick
      test_resume_adopts_cold_journal;
    Alcotest.test_case "statically undetectable faults pruned" `Quick
      test_static_pruning;
    Alcotest.test_case "read_journal torn-tail unit" `Quick
      test_read_journal_torn_tail;
    Alcotest.test_case "injected divergence quarantined" `Quick
      test_divergence_quarantined;
    Alcotest.test_case "divergence fatal without quarantine" `Quick
      test_divergence_fatal_without_quarantine;
    Alcotest.test_case "cycle-budget watchdog" `Quick
      test_cycle_budget_timeout;
    Alcotest.test_case "watchdog splits to single-fault batches" `Quick
      test_wallclock_splits_to_single_fault;
    Alcotest.test_case "generous budget never trips" `Quick
      test_generous_budget_no_trip;
    Alcotest.test_case "supervised quarantine bottoms out" `Quick
      test_supervised_quarantine_bottom;
    Alcotest.test_case "supervision defaults off" `Quick
      test_supervise_defaults_off;
    Alcotest.test_case "with_budget unit" `Quick test_budget_exceeded_unit;
    Alcotest.test_case "negative cycle count rejected" `Quick
      test_negative_cycles_rejected;
    Alcotest.test_case "numeric runner limits validated" `Quick
      test_runner_limits_validated;
    Alcotest.test_case "unknown drive target rejected" `Quick
      test_unknown_drive_target_rejected;
    Alcotest.test_case "clock in drive rejected" `Quick
      test_clock_in_drive_rejected;
    Alcotest.test_case "jsonl roundtrip and error cases" `Quick
      test_jsonl_roundtrip;
    Alcotest.test_case "supervision does not retry an unstable design" `Quick
      test_unstable_design_not_retried;
  ]
