(* Single-network simulator: settle semantics, edge handling, derived
   clocks, stuck-at forcing, and agreement across all scheduler/evaluator
   configurations. *)
open Rtlir
open Sim
module B = Builder
open B.Ops

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let peek_int sim id = Int64.to_int (Bits.to_int64 (Simulator.peek sim id))

let counter_design () =
  let ctx = B.create "counter" in
  let clk = B.input ctx "clk" 1 in
  let en = B.input ctx "en" 1 in
  let q = B.reg ctx "q" 8 in
  let nxt = B.wire ctx "nxt" 8 in
  B.assign ctx nxt (q +: B.const 8 1);
  B.always_ff ctx ~clock:clk [ B.when_ en [ q <-- nxt ] ];
  let o = B.output ctx "o" 8 in
  B.assign ctx o q;
  B.finalize ctx

let tick sim clk =
  Simulator.set_input sim clk (Bits.one 1);
  Simulator.step sim;
  Simulator.set_input sim clk (Bits.zero 1);
  Simulator.step sim

let test_counter () =
  let d = counter_design () in
  let g = Elaborate.build d in
  let sim = Simulator.create g in
  let clk = Design.find_signal d "clk" in
  let en = Design.find_signal d "en" in
  let o = Design.find_signal d "o" in
  Simulator.set_input sim en (Bits.one 1);
  for _ = 1 to 5 do
    tick sim clk
  done;
  check int_t "counted 5" 5 (peek_int sim o);
  Simulator.set_input sim en (Bits.zero 1);
  tick sim clk;
  check int_t "enable gates" 5 (peek_int sim o);
  (* no posedge, no count: raising and lowering without a posedge *)
  Simulator.set_input sim en (Bits.one 1);
  Simulator.step sim;
  Simulator.step sim;
  check int_t "no edge no count" 5 (peek_int sim o)

let test_negedge () =
  let ctx = B.create "neg" in
  let clk = B.input ctx "clk" 1 in
  let q = B.reg ctx "q" 4 in
  B.always_ff ctx ~edge:Design.Negedge ~clock:clk [ q <-- (q +: B.const 4 1) ];
  let o = B.output ctx "o" 4 in
  B.assign ctx o q;
  let d = B.finalize ctx in
  let sim = Simulator.create (Elaborate.build d) in
  let clk_id = Design.find_signal d "clk" in
  let o_id = Design.find_signal d "o" in
  tick sim clk_id;
  (* one full cycle = one negedge *)
  check int_t "negedge counted" 1 (peek_int sim o_id)

let test_derived_clock () =
  (* a divided clock from a register drives a second domain within the same
     time slot cascade *)
  let ctx = B.create "divclk" in
  let clk = B.input ctx "clk" 1 in
  let div = B.reg ctx "div" 1 in
  B.always_ff ctx ~clock:clk [ div <-- ~:div ];
  let divw = B.wire ctx "divw" 1 in
  B.assign ctx divw div;
  let q = B.reg ctx "q" 8 in
  B.always_ff ctx ~clock:divw [ q <-- (q +: B.const 8 1) ];
  let o = B.output ctx "o" 8 in
  B.assign ctx o q;
  let d = B.finalize ctx in
  let sim = Simulator.create (Elaborate.build d) in
  let clk_id = Design.find_signal d "clk" in
  for _ = 1 to 8 do
    tick sim clk_id
  done;
  (* div toggles per posedge: 8 posedges -> 4 rising edges of div *)
  check int_t "derived clock" 4 (peek_int sim (Design.find_signal d "o"))

let test_force () =
  let d = counter_design () in
  let g = Elaborate.build d in
  let q = Design.find_signal d "q" in
  let sim = Simulator.create ~force:(q, 0, false) g in
  let clk = Design.find_signal d "clk" in
  let en = Design.find_signal d "en" in
  Simulator.set_input sim en (Bits.one 1);
  for _ = 1 to 4 do
    tick sim clk
  done;
  (* bit 0 of q stuck at 0: q goes 0 -> 0|1=0... increments with bit0
     cleared each write: 0,0( from 1),... sequence: q=0; q+1=1 forced->0;
     stays 0 forever *)
  check int_t "stuck counter" 0 (peek_int sim (Design.find_signal d "o"))

let test_all_configs_agree () =
  let styles = [ Simulator.Closures; Simulator.Bytecode ] in
  let scheds = [ Simulator.Levelized; Simulator.Fifo; Simulator.Cycle_based ] in
  for seed = 1 to 25 do
    let s = Harness.Rand_design.generate ~seed:(Int64.of_int (4000 + seed)) () in
    let g = s.Harness.Rand_design.graph in
    let w = s.Harness.Rand_design.workload in
    let trace config =
      Baselines.Serial.golden_trace ~config g { w with cycles = 60 }
    in
    let base = trace Simulator.default_config in
    List.iter
      (fun eval ->
        List.iter
          (fun scheduler ->
            if trace { Simulator.eval; scheduler } <> base then
              Alcotest.failf "seed %d: config disagrees" seed)
          scheds)
      styles
  done

let test_proc_executions_counted () =
  let d = counter_design () in
  let sim = Simulator.create (Elaborate.build d) in
  let clk = Design.find_signal d "clk" in
  let en = Design.find_signal d "en" in
  Simulator.set_input sim en (Bits.one 1);
  let before = Simulator.proc_executions sim in
  tick sim clk;
  check bool_t "executions increase" true (Simulator.proc_executions sim > before)

let suite =
  [
    Alcotest.test_case "enabled counter" `Quick test_counter;
    Alcotest.test_case "negedge process" `Quick test_negedge;
    Alcotest.test_case "derived clock cascade" `Quick test_derived_clock;
    Alcotest.test_case "stuck-at force" `Quick test_force;
    Alcotest.test_case "all 6 configs agree" `Quick test_all_configs_agree;
    Alcotest.test_case "proc execution counter" `Quick
      test_proc_executions_counted;
  ]
