(* Good-trace warm-start regression suite.

   The contract under test (DESIGN.md section 13): a warm-started campaign
   — good trace captured once, every batch replaying recorded good writes
   and starting from the latest snapshot at or before its earliest fault
   activation — produces a verdicts report byte-identical to the cold
   run's, for every concurrent engine and any worker count, while bn_good
   drops to zero for every batch. *)

open Faultsim
module H = Harness

(* Z01X-proxy is omitted: it runs Eraser-'s config (test_engines). *)
let concurrent_engines =
  [ H.Campaign.Eraser_mm; H.Campaign.Eraser_m; H.Campaign.Eraser ]

let render_verdicts ~design ~engine ~faults r =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  H.Json_report.verdicts ppf ~design ~engine:(H.Campaign.engine_name engine)
    ~faults r;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* Warm vs cold byte-identity: every concurrent engine, jobs 1/2/4, on the
   alu stuck-at campaign. The cold reference is the monolithic run. *)
let test_warm_byte_identical () =
  let c = Circuits.find "alu" in
  let d, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale:0.1 in
  List.iter
    (fun engine ->
      let cold = H.Campaign.run engine g w faults in
      let cold_s = render_verdicts ~design:d ~engine ~faults cold in
      List.iter
        (fun jobs ->
          let warm =
            (H.Resilient.run
               ~config:
                 {
                   H.Resilient.default_config with
                   H.Resilient.engine;
                   jobs;
                   warmstart = true;
                 }
               g w faults)
              .H.Resilient.result
          in
          let warm_s = render_verdicts ~design:d ~engine ~faults warm in
          if warm_s <> cold_s then
            Alcotest.failf
              "%s at -j %d: warm-started verdicts report differs from cold"
              (H.Campaign.engine_name engine)
              jobs;
          Alcotest.(check int)
            (Printf.sprintf "%s -j %d: bn_good is zero under replay"
               (H.Campaign.engine_name engine) jobs)
            0 warm.Fault.stats.Stats.bn_good;
          Alcotest.(check int)
            "exactly one capture behind the warm campaign" 1
            warm.Fault.stats.Stats.goodtrace_captures)
        [ 1; 2; 4 ])
    concurrent_engines

(* Activation-window batching: transient faults spread evenly over the
   workload force distinct activation windows; in batches of 8 the later
   batch's earliest activation is past the first snapshot, so the dead
   prefix must actually be skipped — and verdicts still match cold. *)
let test_transient_windows_skip_prefix () =
  let c = Circuits.find "alu" in
  let d, g, w, _ = Circuits.Bench_circuit.instantiate c ~scale:0.1 in
  let base =
    Fault.generate_transients ~seed:0x5EEDL ~count:16
      ~max_cycle:(w.Workload.cycles - 1) d
  in
  let n = Array.length base in
  let faults =
    Array.mapi
      (fun i f ->
        { f with Fault.stuck = Fault.Flip_at (i * (w.Workload.cycles - 1) / (n - 1)) })
      base
  in
  let engine = H.Campaign.Eraser in
  let cold = H.Campaign.run engine g w faults in
  let warm =
    (H.Resilient.run
       ~config:
         {
           H.Resilient.default_config with
           H.Resilient.engine;
           jobs = 2;
           batch_size = 8;
           warmstart = true;
         }
       g w faults)
      .H.Resilient.result
  in
  Alcotest.(check string)
    "transient verdicts identical"
    (render_verdicts ~design:d ~engine ~faults cold)
    (render_verdicts ~design:d ~engine ~faults warm);
  if warm.Fault.stats.Stats.good_cycles_skipped <= 0 then
    Alcotest.failf "expected a skipped dead prefix, got %d cycles"
      warm.Fault.stats.Stats.good_cycles_skipped

(* A batch whose faults all activate late must start from a mid snapshot
   and still reproduce the cold batch exactly (restore-at-c-then-run
   equals straight run, at the engine level). *)
let test_warm_batch_equals_cold_batch () =
  let c = Circuits.find "alu" in
  let _, g, w, stuck = Circuits.Bench_circuit.instantiate c ~scale:0.1 in
  let config =
    { Engine.Concurrent.default_config with mode = Engine.Concurrent.Full }
  in
  let capture = Engine.Concurrent.capture ~config g w in
  let late = w.Workload.cycles / 2 in
  let faults =
    Array.mapi
      (fun i f -> { f with Fault.stuck = Fault.Flip_at (late + (i mod (w.Workload.cycles - late))) })
      (Array.sub stuck 0 (min 8 (Array.length stuck)))
  in
  let acts = Engine.Concurrent.activations capture g faults in
  let earliest = Array.fold_left min max_int acts in
  let trace =
    Sim.Goodtrace.with_snapshots capture
      ~base:(Sim.State.create g.Rtlir.Elaborate.design)
      ~at:[ earliest ]
  in
  let start = Sim.Goodtrace.start_for trace ~activation:earliest in
  if start <= 0 then
    Alcotest.failf "test premise broken: expected a mid snapshot, got %d" start;
  let ids = Array.init (Array.length faults) (fun i -> i) in
  let cold = Engine.Concurrent.run ~config g w faults ~ids in
  let warm =
    Engine.Concurrent.run ~config
      ~goodtrace:{ Sim.Goodtrace.trace; start }
      g w faults ~ids
  in
  Alcotest.(check (array bool))
    "detected equal" cold.Fault.detected warm.Fault.detected;
  Alcotest.(check (array int))
    "detection cycles equal" cold.Fault.detection_cycle
    warm.Fault.detection_cycle;
  Alcotest.(check int) "prefix skipped" start
    warm.Fault.stats.Stats.good_cycles_skipped

(* The trace itself: replaying the capture (zero faults, warm, start 0)
   must reproduce the recorded per-cycle output vectors. *)
let test_trace_outputs_stable () =
  let c = Circuits.find "apb" in
  let _, g, w, _ = Circuits.Bench_circuit.instantiate c ~scale:0.05 in
  let config =
    { Engine.Concurrent.default_config with mode = Engine.Concurrent.Full }
  in
  let t1 = Engine.Concurrent.capture ~config g w in
  let t2 = Engine.Concurrent.capture ~config g w in
  for cyc = 0 to t1.Sim.Goodtrace.cycles - 1 do
    if
      Sim.Goodtrace.output_row t1 cyc <> Sim.Goodtrace.output_row t2 cyc
    then Alcotest.failf "capture not deterministic at cycle %d" cyc
  done;
  Alcotest.(check (array int))
    "capture holds exactly one snapshot, at cycles"
    [| t1.Sim.Goodtrace.cycles |]
    (Array.map fst t1.Sim.Goodtrace.snapshots);
  if t1.Sim.Goodtrace.capture_bytes <= 0 then
    Alcotest.fail "capture_bytes must be positive"

let suite =
  [
    Alcotest.test_case
      "warm campaign verdicts byte-identical to cold (all engines, jobs 1/2/4)"
      `Slow test_warm_byte_identical;
    Alcotest.test_case "activation windows skip the dead prefix" `Quick
      test_transient_windows_skip_prefix;
    Alcotest.test_case "warm batch from mid snapshot equals cold batch" `Quick
      test_warm_batch_equals_cold_batch;
    Alcotest.test_case "capture is deterministic" `Quick
      test_trace_outputs_stable;
  ]
