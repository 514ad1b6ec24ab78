(* Transient (SEU) fault extension: engine agreement and basic semantics. *)
open Rtlir
open Faultsim
module H = Harness

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* a 1-bit flip in an isolated counter is detected exactly once and the
   corrupted count persists *)
let test_seu_semantics () =
  let module B = Builder in
  let open B.Ops in
  let ctx = B.create "seu_counter" in
  let clk = B.input ctx "clk" 1 in
  let q = B.reg ctx "q" 8 in
  B.always_ff ctx ~clock:clk [ q <-- (q +: B.const 8 1) ];
  let o = B.output ctx "o" 8 in
  B.assign ctx o q;
  let d = B.finalize ctx in
  let g = Elaborate.build d in
  let w =
    {
      Workload.cycles = 30;
      clock = Design.find_signal d "clk";
      drive = (fun _ -> []);
    }
  in
  let faults =
    [|
      { Fault.fid = 0; signal = Design.find_signal d "q"; bit = 7;
        stuck = Fault.Flip_at 10 };
      (* a flip on a bit that the counter rewrites next cycle in the same
         way: bit 0 flips, then increments diverge *)
      { Fault.fid = 1; signal = Design.find_signal d "q"; bit = 0;
        stuck = Fault.Flip_at 5 };
    |]
  in
  let oracle = Baselines.Serial.ifsim g w faults in
  check bool_t "flip detected" true oracle.Fault.detected.(0);
  check bool_t "flip 2 detected" true oracle.Fault.detected.(1);
  check bool_t "detected at its cycle" true
    (oracle.Fault.detection_cycle.(0) = 10);
  let r = Engine.Concurrent.run g w faults in
  check bool_t "concurrent agrees" true (Fault.same_verdict oracle r);
  check bool_t "same detection cycles" true
    (oracle.Fault.detection_cycle = r.Fault.detection_cycle)

let seu_circuit_case name =
  Alcotest.test_case (name ^ " seu engines agree") `Quick (fun () ->
      let c = Circuits.find name in
      let d, g, w, _ = Circuits.Bench_circuit.instantiate c ~scale:0.06 in
      let faults =
        Fault.generate_transients ~seed:11L ~count:40
          ~max_cycle:(w.Workload.cycles / 2)
          d
      in
      let oracle = Baselines.Serial.ifsim g w faults in
      List.iter
        (fun e ->
          let r = H.Campaign.run e g w faults in
          if not (Fault.same_verdict oracle r) then
            Alcotest.failf "%s: %s disagrees on transients" name
              (H.Campaign.engine_name e))
        [ H.Campaign.Vfsim; H.Campaign.Eraser_m; H.Campaign.Eraser ])

let test_seu_random_designs () =
  for seed = 1 to 25 do
    let s =
      H.Rand_design.generate ~cycles:80 ~seed:(Int64.of_int (50_000 + seed)) ()
    in
    let d = s.H.Rand_design.design in
    let g = s.H.Rand_design.graph in
    let w = s.H.Rand_design.workload in
    let faults =
      Fault.generate_transients ~seed:(Int64.of_int seed) ~count:25
        ~max_cycle:60 d
    in
    if Array.length faults > 0 then begin
      let oracle = Baselines.Serial.ifsim g w faults in
      let r = Engine.Concurrent.run g w faults in
      if not (Fault.same_verdict oracle r) then
        Alcotest.failf "seed %d: transient verdicts differ" seed
    end
  done

(* mixed campaigns: stuck-at and transient faults in one fault list *)
let test_mixed_campaign () =
  let c = Circuits.find "alu" in
  let d, g, w, stuck = Circuits.Bench_circuit.instantiate c ~scale:0.06 in
  let transients =
    Fault.generate_transients ~seed:3L ~count:30 ~max_cycle:50 d
  in
  let faults =
    Array.mapi
      (fun i f -> { f with Fault.fid = i })
      (Array.append stuck transients)
  in
  let oracle = Baselines.Serial.ifsim g w faults in
  let r = Engine.Concurrent.run g w faults in
  check bool_t "mixed campaign agrees" true (Fault.same_verdict oracle r)

(* ---- retiring converged transients ----
   A fired SEU whose faulty network holds no signal or memory diff at a
   cycle boundary is the good network from then on, so the engine retires
   it undetected and its batch may stop early. Each case compares the
   engine with the per-fault serial oracle, cold and warm, on verdicts and
   detection cycles. *)

(* [m] and [r] are reloaded from [din] every cycle, so a flip in either
   dies at the next edge. [r] also feeds the RAM: a flip of [r] in a
   cycle with [we] high outlives the register in a RAM word, which the
   output [o_r] reads cycles later. [m]'s bit 7 is 0 until cycle 10. *)
let retire_design () =
  let module B = Builder in
  let open B.Ops in
  let ctx = B.create "retire" in
  let clk = B.input ctx "clk" 1 in
  let din = B.input ctx "din" 8 in
  let we = B.input ctx "we" 1 in
  let waddr = B.input ctx "waddr" 2 in
  let raddr = B.input ctx "raddr" 2 in
  let m = B.reg ctx "m" 8 in
  let r = B.reg ctx "r" 8 in
  let ram = B.ram ctx "ram" ~width:8 ~size:4 in
  B.always_ff ctx ~name:"regs" ~clock:clk [ m <-- din; r <-- din ];
  B.always_ff ctx ~name:"store" ~clock:clk
    [ B.when_ we [ B.write_mem ram waddr r ] ];
  let o_m = B.output ctx "o_m" 8 in
  B.assign ctx o_m m;
  let o_r = B.output ctx "o_r" 8 in
  B.assign ctx o_r (B.read_mem ram raddr);
  let d = B.finalize ctx in
  let id = Design.find_signal d in
  let drive c =
    let din = if c >= 10 then 0x80 lor c else ((c * 5) + 3) land 0x7f in
    [
      (id "din", Bits.of_int 8 din);
      (id "we", Bits.of_int 1 (if c = 5 || c = 8 then 1 else 0));
      (id "waddr", Bits.of_int 2 (if c = 8 then 3 else 2));
      (id "raddr", Bits.of_int 2 (if c = 14 then 2 else if c = 16 then 3 else 0));
    ]
  in
  (d, { Workload.cycles = 30; clock = id "clk"; drive })

let seu d name bit c =
  { Fault.fid = 0; signal = Design.find_signal d name; bit;
    stuck = Fault.Flip_at c }

let stuck0 d name bit =
  { Fault.fid = 0; signal = Design.find_signal d name; bit;
    stuck = Fault.Stuck_at_0 }

let numbered faults = Array.mapi (fun i f -> { f with Fault.fid = i }) faults

(* Run [f] with metrics on; return its result and the engine's retirement
   and stepped-cycle counters. *)
let with_engine_counters f =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let r =
    Fun.protect f ~finally:(fun () -> Obs.Metrics.disable ())
  in
  let get n = Option.value ~default:0 (Obs.Metrics.counter_value n) in
  let counts =
    (get "engine.transients_retired", get "engine.cycles_stepped")
  in
  Obs.Metrics.reset ();
  (r, counts)

let int_array = Alcotest.(array int)

let agrees_with_oracle ~what oracle (r : Fault.result) =
  check (Alcotest.array bool_t) (what ^ " detected") oracle.Fault.detected
    r.Fault.detected;
  check int_array (what ^ " detection cycles") oracle.Fault.detection_cycle
    r.Fault.detection_cycle

(* Cold single-batch engine run plus cold and warm campaigns over every
   concurrent engine, all against the serial oracle. *)
let check_cold_and_warm g w faults =
  let oracle = Baselines.Serial.ifsim g w faults in
  agrees_with_oracle ~what:"engine" oracle (Engine.Concurrent.run g w faults);
  List.iter
    (fun warmstart ->
      List.iter
        (fun e ->
          agrees_with_oracle
            ~what:
              (Printf.sprintf "%s %s" (H.Campaign.engine_name e)
                 (if warmstart then "warm" else "cold"))
            oracle
            (H.Resilient.run
               ~config:
                 {
                   H.Resilient.default_config with
                   H.Resilient.engine = e;
                   warmstart;
                 }
               g w faults)
              .H.Resilient.result)
        [ H.Campaign.Eraser; H.Campaign.Eraser_m; H.Campaign.Eraser_mm ])
    [ false; true ];
  oracle

let test_masked_seu_retires () =
  let d, w = retire_design () in
  let g = Elaborate.build d in
  let faults = numbered [| seu d "m" 2 6; seu d "r" 1 3 |] in
  let oracle = check_cold_and_warm g w faults in
  check bool_t "both masked" true
    (not (Array.exists Fun.id oracle.Fault.detected));
  let _, (retired, stepped) =
    with_engine_counters (fun () -> Engine.Concurrent.run g w faults)
  in
  check int_t "both retired" 2 retired;
  check int_t "batch stops after the last flip converges" 7 stepped

let test_seu_lives_on_in_memory () =
  let d, w = retire_design () in
  let g = Elaborate.build d in
  (* flips of [r] in the two write cycles, read back at cycles 14 and 16 *)
  let faults = numbered [| seu d "r" 0 5; seu d "r" 3 8 |] in
  let oracle = check_cold_and_warm g w faults in
  check int_array "reached the output through the RAM" [| 14; 16 |]
    oracle.Fault.detection_cycle;
  let _, (retired, _) =
    with_engine_counters (fun () -> Engine.Concurrent.run g w faults)
  in
  check int_t "a RAM diff keeps its fault live" 0 retired

let test_seu_at_snapshot_boundary () =
  let d, w = retire_design () in
  let g = Elaborate.build d in
  let trace =
    Sim.Goodtrace.with_snapshots
      (Engine.Concurrent.capture g w)
      ~base:(Sim.State.create d) ~at:[ 8 ]
  in
  let start = Sim.Goodtrace.start_for trace ~activation:8 in
  check int_t "cycle 8 is a snapshot" 8 start;
  (* masked and memory-held flips exactly at the warm start, and after it *)
  let faults =
    numbered [| seu d "m" 1 8; seu d "r" 3 8; seu d "m" 0 9; seu d "r" 6 12 |]
  in
  let oracle = check_cold_and_warm g w faults in
  let warm, (retired, _) =
    with_engine_counters (fun () ->
        Engine.Concurrent.run ~goodtrace:{ Sim.Goodtrace.trace; start } g w
          faults)
  in
  agrees_with_oracle ~what:"warm from the boundary" oracle warm;
  check int_t "the three masked flips retire" 3 retired

let test_seu_outside_stimulus () =
  let d, w = retire_design () in
  let g = Elaborate.build d in
  let faults =
    numbered
      [| seu d "m" 0 (-1); seu d "r" 2 w.Workload.cycles; seu d "m" 5 1_000;
         seu d "r" 4 5 |]
  in
  let oracle = check_cold_and_warm g w faults in
  check int_array "only the in-range flip is detected" [| -1; -1; -1; 14 |]
    oracle.Fault.detection_cycle;
  let _, (retired, stepped) =
    with_engine_counters (fun () -> Engine.Concurrent.run g w faults)
  in
  check int_t "flips that never fire never retire" 0 retired;
  check int_t "so the batch runs the whole stimulus" w.Workload.cycles stepped

let test_mixed_batch_keeps_stuck_at () =
  let d, w = retire_design () in
  let g = Elaborate.build d in
  (* the stuck-at faults hold no diff at the early cycle boundaries: [m]'s
     bit 7 is 0 until cycle 10, and [r]'s bit 7 differs only after the
     last RAM write, so it is never detected *)
  let faults =
    numbered
      [| seu d "m" 3 2; stuck0 d "m" 7; seu d "r" 0 5; stuck0 d "r" 7;
         seu d "m" 4 4 |]
  in
  let oracle = check_cold_and_warm g w faults in
  check int_array "stuck-at detected late, SEUs masked or via RAM"
    [| -1; 10; 14; -1; -1 |] oracle.Fault.detection_cycle;
  let _, (retired, stepped) =
    with_engine_counters (fun () -> Engine.Concurrent.run g w faults)
  in
  check int_t "only the two masked SEUs retire" 2 retired;
  check int_t "the undetected stuck-at keeps the batch stepping"
    w.Workload.cycles stepped

let suite =
  [ Alcotest.test_case "seu semantics" `Quick test_seu_semantics ]
  @ List.map seu_circuit_case [ "apb"; "sodor"; "sha256_hv"; "conv_acc";
                                "riscv_mini"; "picorv32"; "mips"; "fpu" ]
  @ [
      Alcotest.test_case "seu on random designs" `Quick
        test_seu_random_designs;
      Alcotest.test_case "mixed stuck+transient campaign" `Quick
        test_mixed_campaign;
      Alcotest.test_case "masked seu retires" `Quick test_masked_seu_retires;
      Alcotest.test_case "seu lives on in a ram word" `Quick
        test_seu_lives_on_in_memory;
      Alcotest.test_case "seu at a warm-start snapshot boundary" `Quick
        test_seu_at_snapshot_boundary;
      Alcotest.test_case "seu outside the stimulus" `Quick
        test_seu_outside_stimulus;
      Alcotest.test_case "stuck-at never retires in a mixed batch" `Quick
        test_mixed_batch_keeps_stuck_at;
    ]
