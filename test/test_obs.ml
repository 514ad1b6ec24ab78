(* Observability layer: tracer rings and Chrome export, metrics registry,
   heartbeat pacing. The zero-allocation test is the contract that lets the
   instrumentation stay compiled into the engine's hot paths. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

module J = Harness.Jsonl

(* Every test owns the global tracer/metrics state: reset hard on entry so
   ordering between tests (or a traced test elsewhere) cannot leak. *)
let fresh () =
  Obs.Trace.disable ();
  Obs.Metrics.disable ();
  Obs.Metrics.reset ()

let parse_trace () =
  let doc = J.parse (Obs.Trace.to_chrome_string ()) in
  match J.member "traceEvents" doc with
  | Some (J.List l) -> l
  | _ -> Alcotest.fail "no traceEvents"

let test_span_nesting () =
  fresh ();
  Obs.Trace.enable ~capacity:1024 ();
  let outer = Obs.Trace.span_begin "outer" in
  let inner = Obs.Trace.span_begin "inner" in
  Obs.Trace.span_end "inner" inner;
  Obs.Trace.span_end "outer" outer;
  Obs.Trace.disable ();
  let events = parse_trace () in
  let find name =
    List.find (fun e -> J.get_string "name" e = name) events
  in
  let ts e = J.get_int "ts" e and dur e = J.get_int "dur" e in
  let o = find "outer" and i = find "inner" in
  check bool_t "outer starts first" true (ts o <= ts i);
  check bool_t "inner contained" true (ts i + dur i <= ts o + dur o);
  check bool_t "durations non-negative" true (dur o >= 0 && dur i >= 0);
  List.iter
    (fun e -> check Alcotest.string "phase" "X" (J.get_string "ph" e))
    events

let test_ring_wraparound () =
  fresh ();
  Obs.Trace.enable ~capacity:4 ();
  for i = 0 to 9 do
    Obs.Trace.instant (Printf.sprintf "ev%d" i)
  done;
  Obs.Trace.disable ();
  check int_t "ring keeps capacity events" 4 (Obs.Trace.event_count ());
  let names =
    List.map (fun e -> J.get_string "name" e) (parse_trace ())
    |> List.sort compare
  in
  check
    Alcotest.(list string)
    "last four survive" [ "ev6"; "ev7"; "ev8"; "ev9" ] names

let test_disabled_path_no_alloc () =
  fresh ();
  (* warm up the domain-local ring and any lazy state first *)
  Obs.Trace.enable ~capacity:16 ();
  Obs.Trace.instant "warmup";
  ignore (Obs.Metrics.on ());
  Obs.Trace.disable ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    let t0 = Obs.Trace.span_begin "hot" in
    Obs.Trace.span_end "hot" t0;
    Obs.Trace.instant "hot";
    Obs.Trace.counter "hot" 1.0;
    Obs.Metrics.add "hot" 1;
    Obs.Metrics.observe "hot" 1.0
  done;
  let after = Gc.minor_words () in
  check (Alcotest.float 0.0) "no minor allocation when disabled" 0.0
    (after -. before)

let test_chrome_export_shape () =
  fresh ();
  Obs.Trace.enable ~capacity:64 ();
  let t0 = Obs.Trace.span_begin "span \"quoted\"" in
  Obs.Trace.span_end "span \"quoted\"" t0;
  Obs.Trace.counter "ctr" 42.5;
  Obs.Trace.counter "bad" Float.nan;
  Obs.Trace.instant "mark";
  Obs.Trace.disable ();
  let doc = J.parse (Obs.Trace.to_chrome_string ()) in
  check Alcotest.string "display unit" "ms"
    (J.get_string "displayTimeUnit" doc);
  let events = parse_trace () in
  check int_t "all four events survive" 4 (List.length events);
  List.iter
    (fun e ->
      let ph = J.get_string "ph" e in
      check bool_t "known phase" true (List.mem ph [ "X"; "C"; "i" ]);
      check bool_t "ts present" true (J.get_int "ts" e >= 0);
      ignore (J.get_int "pid" e);
      ignore (J.get_int "tid" e);
      if ph = "C" && J.get_string "name" e = "bad" then
        (* the NaN sample must not become a bare nan token *)
        match J.member "args" e with
        | Some args -> check bool_t "nan exported as null" true
            (J.member "value" args = Some J.Null)
        | None -> Alcotest.fail "counter without args")
    events

let test_empty_trace_is_valid () =
  fresh ();
  Obs.Trace.enable ~capacity:8 ();
  Obs.Trace.disable ();
  check int_t "no events" 0 (List.length (parse_trace ()))

let test_metrics_counters () =
  fresh ();
  Obs.Metrics.enable ();
  Obs.Metrics.add "a" 2;
  Obs.Metrics.add "a" 3;
  Obs.Metrics.add "b" 1;
  check (Alcotest.option int_t) "a" (Some 5) (Obs.Metrics.counter_value "a");
  check (Alcotest.option int_t) "b" (Some 1) (Obs.Metrics.counter_value "b");
  check (Alcotest.option int_t) "absent" None (Obs.Metrics.counter_value "c");
  Obs.Metrics.disable ();
  Obs.Metrics.add "a" 100;
  check (Alcotest.option int_t) "disabled add ignored" (Some 5)
    (Obs.Metrics.counter_value "a")

let test_metrics_histogram () =
  fresh ();
  Obs.Metrics.enable ();
  List.iter (Obs.Metrics.observe "h") [ 1.0; 2.0; 3.0; 100.0 ];
  (match Obs.Metrics.histogram_stats "h" with
  | Some (count, sum, max) ->
      check int_t "count" 4 count;
      check (Alcotest.float 1e-9) "sum" 106.0 sum;
      check (Alcotest.float 1e-9) "max" 100.0 max
  | None -> Alcotest.fail "histogram not registered");
  (* local accumulation merges like direct observation *)
  let buckets = Array.make Obs.Metrics.nbuckets 0 in
  let bump v = buckets.(Obs.Metrics.bucket_of v) <- buckets.(Obs.Metrics.bucket_of v) + 1 in
  bump 1.0;
  bump 2.0;
  bump 3.0;
  bump 100.0;
  Obs.Metrics.merge_histogram "h2" buckets ~count:4 ~sum:106.0 ~max:100.0;
  check
    (Alcotest.option (Alcotest.triple int_t (Alcotest.float 1e-9) (Alcotest.float 1e-9)))
    "merged equals observed"
    (Obs.Metrics.histogram_stats "h")
    (Obs.Metrics.histogram_stats "h2")

let test_metrics_json () =
  fresh ();
  Obs.Metrics.enable ();
  Obs.Metrics.add "z.counter" 7;
  Obs.Metrics.observe "a.hist" 5.0;
  let doc = J.parse (Obs.Metrics.to_json_string ()) in
  let metrics =
    match J.member "metrics" doc with
    | Some (J.Obj kvs) -> kvs
    | _ -> Alcotest.fail "no metrics object"
  in
  check
    Alcotest.(list string)
    "names sorted" [ "a.hist"; "z.counter" ] (List.map fst metrics);
  let c = List.assoc "z.counter" metrics in
  check Alcotest.string "counter type" "counter" (J.get_string "type" c);
  check int_t "counter value" 7 (J.get_int "value" c);
  let h = List.assoc "a.hist" metrics in
  check Alcotest.string "hist type" "histogram" (J.get_string "type" h);
  check int_t "hist count" 1 (J.get_int "count" h);
  check int_t "one non-empty bucket" 1 (List.length (J.get_list "buckets" h))

let test_heartbeat () =
  let t = ref 0.0 in
  let hb = Obs.Heartbeat.create ~now:(fun () -> !t) ~interval:10.0 ~total:1000 () in
  (* inside the interval: silent *)
  t := 5.0;
  check bool_t "quiet before interval" true
    (Obs.Heartbeat.update hb ~done_:100 ~detected:50 = None);
  t := 10.0;
  (match Obs.Heartbeat.update hb ~done_:200 ~detected:80 with
  | None -> Alcotest.fail "tick expected at the interval"
  | Some tick ->
      check int_t "done" 200 tick.Obs.Heartbeat.hb_done;
      check (Alcotest.float 1e-9) "rate" 20.0 tick.Obs.Heartbeat.hb_rate;
      check (Alcotest.float 1e-9) "eta" 40.0 tick.Obs.Heartbeat.hb_eta_s;
      let line = Obs.Heartbeat.to_line hb tick in
      check bool_t "line mentions progress" true
        (String.length line > 0 && line.[0] = '[');
      let j = J.parse (Obs.Heartbeat.to_json hb tick) in
      check Alcotest.string "journal type" "heartbeat" (J.get_string "type" j);
      check int_t "journal done" 200 (J.get_int "done" j);
      check int_t "journal total" 1000 (J.get_int "total" j));
  (* the emission resets the pacing clock *)
  t := 15.0;
  check bool_t "quiet again after a tick" true
    (Obs.Heartbeat.update hb ~done_:300 ~detected:90 = None)

(* The journal heartbeat record shape is a stability contract: resume
   replay skips these records by field lookup, and the progress line is
   denominated in faults/s in both modes. *)
let test_heartbeat_shape_unchanged () =
  let t = ref 0.0 in
  let hb =
    Obs.Heartbeat.create ~now:(fun () -> !t) ~interval:1.0 ~total:128 ()
  in
  t := 2.0;
  match Obs.Heartbeat.update hb ~done_:64 ~detected:16 with
  | None -> Alcotest.fail "tick expected"
  | Some tick ->
      let j = J.parse (Obs.Heartbeat.to_json hb tick) in
      (match j with
      | J.Obj kvs ->
          Alcotest.(check (list string))
            "heartbeat field set and order"
            [
              "type"; "done"; "total"; "detected"; "elapsed_s";
              "faults_per_sec"; "eta_s";
            ]
            (List.map fst kvs)
      | _ -> Alcotest.fail "heartbeat record is not an object");
      Alcotest.(check string)
        "record type" "heartbeat" (J.get_string "type" j);
      Alcotest.(check int) "done" 64 (J.get_int "done" j);
      (* rate is faults per second: 64 faults over 2 s *)
      Alcotest.(check (float 1e-9))
        "faults/s" 32.0
        (J.get_float "faults_per_sec" j);
      let line = Obs.Heartbeat.to_line hb tick in
      let has_substr s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        "progress line is denominated in faults/s" true
        (has_substr line "faults/s")

(* The engine's convergence counters: [engine.transients_retired] counts
   fired SEUs retired for holding no diff, [engine.cycles_stepped] the
   cycles a run actually stepped. A register reloaded every cycle masks
   any flip at the next edge. *)
let test_engine_convergence_counters () =
  let module B = Rtlir.Builder in
  let open B.Ops in
  let ctx = B.create "reload" in
  let clk = B.input ctx "clk" 1 in
  let din = B.input ctx "din" 4 in
  let m = B.reg ctx "m" 4 in
  B.always_ff ctx ~clock:clk [ m <-- din ];
  let o = B.output ctx "o" 4 in
  B.assign ctx o m;
  let d = B.finalize ctx in
  let g = Rtlir.Elaborate.build d in
  let w =
    Circuits.Bench_circuit.random_workload ~seed:5L d ~cycles:20
  in
  let msig = Rtlir.Design.find_signal d "m" in
  let fault fid stuck = { Faultsim.Fault.fid; signal = msig; bit = 1; stuck } in
  let counters faults =
    fresh ();
    Obs.Metrics.enable ();
    let r = Engine.Concurrent.run g w faults in
    Obs.Metrics.disable ();
    let get n = Option.value ~default:0 (Obs.Metrics.counter_value n) in
    let c =
      (get "engine.runs", get "engine.transients_retired",
       get "engine.cycles_stepped")
    in
    Obs.Metrics.reset ();
    (r, c)
  in
  let r, (runs, retired, stepped) =
    counters
      [| fault 0 (Faultsim.Fault.Flip_at 3); fault 1 (Faultsim.Fault.Flip_at 6) |]
  in
  check int_t "one run" 1 runs;
  check bool_t "masked flips undetected" true
    (not (Array.exists Fun.id r.Faultsim.Fault.detected));
  check int_t "both flips retired" 2 retired;
  check int_t "stepped through the last flip's cycle only" 7 stepped;
  let _, (_, retired, stepped) =
    counters [| fault 0 (Faultsim.Fault.Flip_at 25) |]
  in
  check int_t "a flip past the stimulus never fires" 0 retired;
  check int_t "so every cycle is stepped" 20 stepped;
  let r, (_, retired, stepped) =
    counters [| fault 0 Faultsim.Fault.Stuck_at_0 |]
  in
  check int_t "stuck-at faults never retire" 0 retired;
  check int_t "stepped until detection"
    (r.Faultsim.Fault.detection_cycle.(0) + 1)
    stepped

(* The runner's once-per-run phases each record one span: a warm
   campaign at jobs 2, resumed from a journal cut after its first batch
   records, captures, plans, replays the journal and merges exactly once. *)
let test_runner_phase_spans () =
  fresh ();
  let module R = Harness.Resilient in
  let _, g, w, faults =
    Circuits.Bench_circuit.instantiate (Circuits.find "alu") ~scale:0.05
  in
  let journal = Filename.temp_file "eraser_test_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.disable ();
      try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      let config =
        {
          R.default_config with
          R.jobs = 2;
          batch_size = 6;
          warmstart = true;
          journal = Some journal;
        }
      in
      ignore (R.run ~config g w faults);
      let lines = (J.read_journal journal).J.complete in
      let oc = open_out_bin journal in
      List.iteri
        (fun i l ->
          if 2 * i < List.length lines then output_string oc (l ^ "\n"))
        lines;
      close_out oc;
      Obs.Trace.enable ~capacity:1024 ();
      let s = R.run ~config:{ config with R.resume = true } g w faults in
      Obs.Trace.disable ();
      check bool_t "the cut journal resumed some batches" true
        (s.R.batches_resumed > 0 && s.R.batches_executed > 0);
      let names = List.map (J.get_string "name") (parse_trace ()) in
      List.iter
        (fun span ->
          check int_t (span ^ " recorded once") 1
            (List.length (List.filter (String.equal span) names)))
        [ "capture"; "plan"; "journal_replay"; "merge" ])

(* The two spans below a batch: a warm start from a mid snapshot records
   one [snapshot_restore], and every journal line is one [journal_append]. *)
let test_restore_and_append_spans () =
  fresh ();
  let module R = Harness.Resilient in
  let _, g, w, faults =
    Circuits.Bench_circuit.instantiate (Circuits.find "alu") ~scale:0.05
  in
  let trace = Engine.Concurrent.capture ~snapshot_every:4 g w in
  let start = Sim.Goodtrace.start_for trace ~activation:8 in
  check int_t "cycle 8 is a snapshot" 8 start;
  let journal = Filename.temp_file "eraser_test_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.disable ();
      try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      Obs.Trace.enable ~capacity:4096 ();
      ignore
        (Engine.Concurrent.run ~goodtrace:{ Sim.Goodtrace.trace; start } g w
           [||]);
      let config = { R.default_config with R.journal = Some journal } in
      ignore (R.run ~config g w faults);
      Obs.Trace.disable ();
      let names = List.map (J.get_string "name") (parse_trace ()) in
      let count span = List.length (List.filter (String.equal span) names) in
      check int_t "one snapshot restore" 1 (count "snapshot_restore");
      check int_t "one append per journal line"
        (List.length (J.read_journal journal).J.complete)
        (count "journal_append"))

(* A domain's ring outlives it only as a free ring for the next domain:
   repeated traced pools keep at most one ring per domain alive at once
   (the caller's and two workers'), not one per domain ever spawned. *)
let test_rings_reused_across_pools () =
  fresh ();
  Obs.Trace.enable ~capacity:8 ();
  Fun.protect ~finally:Obs.Trace.disable (fun () ->
      for _ = 1 to 30 do
        Harness.Pool.with_pool ~jobs:2 (fun pool ->
            List.init 16 (fun _ ->
                Harness.Pool.submit pool (fun _ -> Obs.Trace.instant "task"))
            |> List.iter Harness.Pool.await)
      done);
  check bool_t "events bounded by three rings" true
    (Obs.Trace.event_count () <= 3 * 8)

let suite =
  [
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "disabled path allocates nothing" `Quick
      test_disabled_path_no_alloc;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
    Alcotest.test_case "empty trace is valid JSON" `Quick
      test_empty_trace_is_valid;
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "metrics histogram" `Quick test_metrics_histogram;
    Alcotest.test_case "metrics JSON export" `Quick test_metrics_json;
    Alcotest.test_case "heartbeat pacing" `Quick test_heartbeat;
    Alcotest.test_case "journal heartbeat record shape unchanged" `Quick
      test_heartbeat_shape_unchanged;
    Alcotest.test_case "engine convergence counters" `Quick
      test_engine_convergence_counters;
    Alcotest.test_case "runner phases record one span each" `Quick
      test_runner_phase_spans;
    Alcotest.test_case "snapshot restore and journal append spans" `Quick
      test_restore_and_append_spans;
    Alcotest.test_case "trace rings reused across pools" `Quick
      test_rings_reused_across_pools;
  ]
