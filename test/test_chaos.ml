(* Chaos-harness tests: deterministic injection plans, recovery of a
   supervised campaign to clean-run verdicts under every injection kind,
   retry/restart journal records surviving resume, the divergence shrinker's
   repro files, and the zero-cost guarantee of the disabled seams. *)
open Faultsim
module H = Harness
module R = Harness.Resilient
module C = Harness.Chaos

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let campaign () =
  let c = Circuits.find "alu" in
  Circuits.Bench_circuit.instantiate c ~scale:0.05

let verdicts_report ~design ~faults (r : Fault.result) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  H.Json_report.verdicts ppf ~design ~engine:"Eraser" ~faults r;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let supervised_config ~jobs ~journal =
  {
    R.default_config with
    R.jobs;
    batch_size = 6;
    max_batch_seconds = Some 0.5;
    oracle_sample = 1.0;
    supervise = true;
    journal;
  }

(* Run one campaign under an installed chaos plan, resuming from the
   journal whenever the torn-journal injection kills it. Returns the final
   summary, the per-kind injection counts observed before uninstall, and
   the journal's retry records in journal order. *)
let run_under_chaos plan ~jobs g w faults =
  let journal = Filename.temp_file "eraser_test_chaos" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      C.uninstall ();
      try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      C.install plan;
      let rec attempt n resume =
        let config =
          { (supervised_config ~jobs ~journal:(Some journal)) with R.resume }
        in
        try R.run ~config g w faults
        with C.Killed _ when n < 4 -> attempt (n + 1) true
      in
      let s = attempt 0 false in
      let retries =
        List.filter
          (fun l ->
            H.Jsonl.member "type" (H.Jsonl.parse l)
            = Some (H.Jsonl.String "retry"))
          (H.Jsonl.read_journal journal).H.Jsonl.complete
      in
      (s, C.counts (), retries))

(* ---- plan determinism ---- *)

let test_plan_determinism () =
  let plan = { C.default_plan with C.seed = 77L; rate = 0.5 } in
  let schedule () =
    List.concat_map
      (fun k -> List.init 64 (fun b -> C.targets plan k ~batch:b))
      C.all_kinds
  in
  check (Alcotest.list bool_t) "same seed, same schedule" (schedule ())
    (schedule ());
  let fired = List.filter Fun.id (schedule ()) in
  check bool_t "rate 0.5 fires sometimes" true (fired <> []);
  check bool_t "rate 0.5 spares sometimes" true
    (List.length fired < List.length (schedule ()));
  let other = { plan with C.seed = 78L } in
  check bool_t "different seed, different schedule" true
    (schedule ()
    <> List.concat_map
         (fun k -> List.init 64 (fun b -> C.targets other k ~batch:b))
         C.all_kinds);
  check bool_t "rate 0 never fires" false
    (C.targets { plan with C.rate = 0.0 } C.Raise_in_batch ~batch:3);
  check bool_t "rate 1 always fires" true
    (C.targets { plan with C.rate = 1.0 } C.Raise_in_batch ~batch:3);
  check bool_t "disabled kind never fires" false
    (C.targets
       { plan with C.kinds = [ C.Stall_past_deadline ]; rate = 1.0 }
       C.Raise_in_batch ~batch:3)

(* ---- recovery to clean verdicts, per kind ---- *)

let test_kind_converges kind jobs () =
  let design, g, w, faults = campaign () in
  let clean =
    R.run ~config:(supervised_config ~jobs ~journal:None) g w faults
  in
  let clean_report =
    verdicts_report ~design ~faults clean.R.result
  in
  let plan = { C.seed = 11L; kinds = [ kind ]; rate = 1.0 } in
  let s, counts, _ = run_under_chaos plan ~jobs g w faults in
  check bool_t "the injection actually fired" true
    (match List.assoc_opt kind counts with Some n -> n > 0 | None -> false);
  (match kind with
  | C.Raise_in_batch ->
      check bool_t "crashes were supervised" true (s.R.restarts > 0)
  | C.Stall_past_deadline ->
      check bool_t "stalls tripped the watchdog" true (s.R.retries > 0)
  | C.Corrupt_diffstore ->
      check bool_t "corruptions were quarantined" true
        (s.R.divergences <> [])
  | C.Torn_journal_write ->
      check bool_t "the kill forced a resume" true (s.R.batches_resumed >= 0));
  check bool_t "no fault abandoned" true (s.R.failed_faults = []);
  check Alcotest.string
    (Printf.sprintf "%s: verdicts identical to the clean run"
       (C.kind_name kind))
    clean_report
    (verdicts_report ~design ~faults s.R.result)

let test_all_kinds_converge () =
  let design, g, w, faults = campaign () in
  let clean =
    R.run ~config:(supervised_config ~jobs:2 ~journal:None) g w faults
  in
  let clean_report = verdicts_report ~design ~faults clean.R.result in
  List.iter
    (fun seed ->
      let plan = { C.default_plan with C.seed; rate = 0.6 } in
      let s, _, _ = run_under_chaos plan ~jobs:2 g w faults in
      check Alcotest.string
        (Printf.sprintf "seed %Ld converges" seed)
        clean_report
        (verdicts_report ~design ~faults s.R.result))
    [ 5L; 6L ]

(* ---- supervision is the same code at every jobs ---- *)

let test_retry_records_across_jobs () =
  (* Restarts and quarantines are decided on the coordinator in batch-index
     order, so the journaled retry records do not depend on where the
     batch tasks ran. *)
  let _, g, w, faults = campaign () in
  let plan =
    { C.seed = 11L; kinds = [ C.Raise_in_batch; C.Corrupt_diffstore ];
      rate = 0.5 }
  in
  let _, _, serial = run_under_chaos plan ~jobs:1 g w faults in
  let _, _, pooled = run_under_chaos plan ~jobs:2 g w faults in
  check bool_t "crashes were journaled" true (serial <> []);
  check
    (Alcotest.list Alcotest.string)
    "jobs 1 and 2 journal the same retry records" serial pooled

(* ---- retry records resume ---- *)

let test_retry_records_resume () =
  (* A chaos campaign's journal carries its retry/restart records; a plain
     (chaos-free) resume of the finished journal must reconstruct the same
     retry and restart totals without re-executing anything. *)
  let _, g, w, faults = campaign () in
  let journal = Filename.temp_file "eraser_test_chaos" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      C.uninstall ();
      try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      let plan =
        { C.seed = 9L; kinds = [ C.Raise_in_batch; C.Stall_past_deadline ];
          rate = 1.0 }
      in
      C.install plan;
      let s =
        R.run
          ~config:(supervised_config ~jobs:1 ~journal:(Some journal))
          g w faults
      in
      C.uninstall ();
      check bool_t "restarts happened" true (s.R.restarts > 0);
      check bool_t "splits happened" true (s.R.retries > 0);
      let resumed =
        R.run
          ~config:
            {
              (supervised_config ~jobs:1 ~journal:(Some journal)) with
              R.resume = true;
            }
          g w faults
      in
      check int_t "nothing re-executed" 0 resumed.R.batches_executed;
      check int_t "restart records replayed" s.R.restarts resumed.R.restarts;
      check int_t "split records replayed" s.R.retries resumed.R.retries)

(* ---- the shrinker ---- *)

let test_shrinker_writes_repro () =
  let _, g, w, faults = campaign () in
  let dir = Filename.temp_file "eraser_test_repro" "" in
  Sys.remove dir;
  let cfg =
    {
      (supervised_config ~jobs:2 ~journal:None) with
      R.inject_divergence = Some 3;
      repro_dir = Some dir;
      repro_meta = Some ("alu", 0.05);
    }
  in
  let s = R.run ~config:cfg g w faults in
  check
    (Alcotest.list Alcotest.string)
    "one repro written" [ "repro-3.json" ] s.R.repros;
  check bool_t "fault 3 quarantined" true (List.mem 3 s.R.quarantined);
  let path = Filename.concat dir "repro-3.json" in
  let ic = open_in_bin path in
  let line = input_line ic in
  close_in ic;
  let j = H.Jsonl.parse line in
  Sys.remove path;
  (try Sys.rmdir dir with Sys_error _ -> ());
  check Alcotest.string "record type" "repro" (H.Jsonl.get_string "type" j);
  let ids = List.map H.Jsonl.to_int (H.Jsonl.get_list "ids" j) in
  check bool_t "divergent fault in its minimal set" true (List.mem 3 ids);
  check bool_t "fault set minimal" true (List.length ids <= 10);
  let cycles = H.Jsonl.get_int "cycles" j in
  check bool_t "window minimal" true (cycles >= 1 && cycles <= 50);
  let ed = H.Jsonl.get_bool "engine_detected" j
  and ec = H.Jsonl.get_int "engine_cycle" j
  and od = H.Jsonl.get_bool "oracle_detected" j
  and oc = H.Jsonl.get_int "oracle_cycle" j in
  check bool_t "recorded verdicts diverge" true (ed <> od || (ed && ec <> oc));
  check bool_t "shrink stats recorded" true (H.Jsonl.get_int "attempts" j >= 1);
  (* deterministic: a jobs=1 campaign shrinks to the same reproducer *)
  Sys.mkdir dir 0o755;
  let s1 = R.run ~config:{ cfg with R.jobs = 1 } g w faults in
  check
    (Alcotest.list Alcotest.string)
    "jobs 1 writes the same repro" s.R.repros s1.R.repros;
  let ic = open_in_bin path in
  let line1 = input_line ic in
  close_in ic;
  Sys.remove path;
  (try Sys.rmdir dir with Sys_error _ -> ());
  check Alcotest.string "repro byte-identical across jobs" line line1

(* ---- disabled seams are free ---- *)

let test_disabled_seams_no_alloc () =
  C.uninstall ();
  (* warm up *)
  ignore (C.active ());
  C.batch_start ~batch:0;
  ignore (C.stall ~batch:0);
  ignore (C.torn_write ~batch:0 "x");
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    ignore (C.active ());
    C.batch_start ~batch:i;
    ignore (C.stall ~batch:i);
    ignore (C.torn_write ~batch:i "x");
    ignore (Atomic.get Engine.Concurrent.chaos_corrupt_diff)
  done;
  let after = Gc.minor_words () in
  check (Alcotest.float 0.0) "no minor allocation when uninstalled" 0.0
    (after -. before)

(* Rate 0 injects nothing, the per-run corruption included; any rate
   above 0 keeps it firing in every run. *)
let test_rate_zero_injects_nothing () =
  let _, g, w, faults = campaign () in
  let plan = { C.seed = 11L; kinds = C.all_kinds; rate = 0.0 } in
  let s, counts, _ = run_under_chaos plan ~jobs:2 g w faults in
  List.iter
    (fun (k, n) -> check Alcotest.int (C.kind_name k ^ " injections") 0 n)
    counts;
  check bool_t "no divergence quarantined" true (s.R.divergences = []);
  check bool_t "no retry or restart" true
    (s.R.retries = 0 && s.R.restarts = 0);
  let plan = { plan with C.kinds = [ C.Corrupt_diffstore ]; rate = 0.01 } in
  let _, counts, _ = run_under_chaos plan ~jobs:1 g w faults in
  check bool_t "a low rate still corrupts" true
    (List.assoc C.Corrupt_diffstore counts > 0)

let suite =
  [
    Alcotest.test_case "plans are pure functions of the seed" `Quick
      test_plan_determinism;
    Alcotest.test_case "raise-in-batch converges (jobs 2)" `Quick
      (test_kind_converges C.Raise_in_batch 2);
    Alcotest.test_case "raise-in-batch converges (jobs 1)" `Quick
      (test_kind_converges C.Raise_in_batch 1);
    Alcotest.test_case "stall-past-deadline converges" `Quick
      (test_kind_converges C.Stall_past_deadline 2);
    Alcotest.test_case "corrupt-diffstore converges" `Quick
      (test_kind_converges C.Corrupt_diffstore 2);
    Alcotest.test_case "torn-journal-write converges" `Quick
      (test_kind_converges C.Torn_journal_write 2);
    Alcotest.test_case "all kinds together converge" `Quick
      test_all_kinds_converge;
    Alcotest.test_case "retry records survive resume" `Quick
      test_retry_records_resume;
    Alcotest.test_case "shrinker writes a minimal repro" `Quick
      test_shrinker_writes_repro;
    Alcotest.test_case "disabled seams allocate nothing" `Quick
      test_disabled_seams_no_alloc;
    Alcotest.test_case "retry records equal across jobs" `Quick
      test_retry_records_across_jobs;
    Alcotest.test_case "rate 0 injects nothing" `Quick
      test_rate_zero_injects_nothing;
  ]
