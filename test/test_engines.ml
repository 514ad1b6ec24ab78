(* Engine integration tests: detected-set equivalence across every engine
   configuration on every benchmark circuit, ablation monotonicity,
   redundancy accounting invariants, and the fake-event regression. *)
open Rtlir
open Faultsim
module H = Harness

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let scale = 0.06

let campaign (c : Circuits.Bench_circuit.t) =
  let _, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
  (g, w, faults)

let equivalence_case (c : Circuits.Bench_circuit.t) =
  Alcotest.test_case (c.name ^ " all engines agree") `Quick (fun () ->
      let g, w, faults = campaign c in
      let oracle = H.Campaign.run H.Campaign.Ifsim g w faults in
      List.iter
        (fun e ->
          let r = H.Campaign.run e g w faults in
          if not (Fault.same_verdict oracle r) then
            Alcotest.failf "%s disagrees with the oracle on %s"
              (H.Campaign.engine_name e) c.name)
        [
          H.Campaign.Vfsim; H.Campaign.Eraser_mm; H.Campaign.Eraser_m;
          H.Campaign.Eraser;
        ])

(* Z01X-proxy is Eraser-'s engine configuration under its own report name
   (PAPER.md section 2), so the matrices here run that configuration once,
   as Eraser-. *)
let test_z01x_is_eraser_m () =
  check bool_t "same concurrent mode" true
    (H.Campaign.concurrent_mode H.Campaign.Z01x_proxy
    = H.Campaign.concurrent_mode H.Campaign.Eraser_m);
  check bool_t "distinct report names" true
    (H.Campaign.engine_name H.Campaign.Z01x_proxy
    <> H.Campaign.engine_name H.Campaign.Eraser_m)

let test_ablation_monotonic () =
  List.iter
    (fun (c : Circuits.Bench_circuit.t) ->
      let g, w, faults = campaign c in
      let run mode =
        let config = { Engine.Concurrent.default_config with mode } in
        (Engine.Concurrent.run ~config g w faults).Fault.stats
      in
      let mm = run Engine.Concurrent.No_redundancy in
      let m = run Engine.Concurrent.Explicit_only in
      let full = run Engine.Concurrent.Full in
      (* executed faulty behavioral executions can only shrink *)
      if
        not
          (mm.Stats.bn_fault_exec >= m.Stats.bn_fault_exec
          && m.Stats.bn_fault_exec >= full.Stats.bn_fault_exec)
      then
        Alcotest.failf "%s: execution counts not monotone (%d, %d, %d)"
          c.name mm.Stats.bn_fault_exec m.Stats.bn_fault_exec
          full.Stats.bn_fault_exec;
      (* no elimination mode records no skips *)
      check int_t "eraser-- skips nothing" 0 (Stats.eliminated mm);
      check int_t "eraser- implicit is zero" 0 m.Stats.bn_skipped_implicit;
      (* accounting identity: total is conserved across the two
         eliminating modes *)
      check bool_t "totals comparable" true
        (Stats.total_bn_executions full > 0))
    Circuits.all

(* A fault on the clock input must suppress register updates in the faulty
   network: the deferred-edge engine (the paper's fake-event fix) matches
   the serial oracle. *)
let clock_fault_design () =
  let module B = Builder in
  let open B.Ops in
  let ctx = B.create "clkfault" in
  let clk = B.input ctx "clk" 1 in
  let q = B.reg ctx "q" 8 in
  B.always_ff ctx ~clock:clk [ q <-- (q +: B.const 8 1) ];
  let o = B.output ctx "o" 8 in
  B.assign ctx o q;
  B.finalize ctx

let test_fake_events () =
  let d = clock_fault_design () in
  let g = Elaborate.build d in
  let clk = Design.find_signal d "clk" in
  let w =
    {
      Workload.cycles = 20;
      clock = clk;
      drive = (fun _ -> []);
    }
  in
  (* the single fault: clock stuck at 0 *)
  let faults =
    [| { Fault.fid = 0; signal = clk; bit = 0; stuck = Fault.Stuck_at_0 } |]
  in
  let oracle = Baselines.Serial.ifsim g w faults in
  check bool_t "oracle detects the stuck clock" true oracle.Fault.detected.(0);
  let r = Engine.Concurrent.run g w faults in
  check bool_t "deferred edge evaluation is correct" true
    (Fault.same_verdict oracle r)

(* Solo activations: a stuck-at-1 clock gives the faulty network an edge
   the good network sees later; coverage must still match the oracle. *)
let test_clock_stuck_at_1 () =
  let d = clock_fault_design () in
  let g = Elaborate.build d in
  let clk = Design.find_signal d "clk" in
  let w = { Workload.cycles = 20; clock = clk; drive = (fun _ -> []) } in
  let faults =
    [| { Fault.fid = 0; signal = clk; bit = 0; stuck = Fault.Stuck_at_1 } |]
  in
  let oracle = Baselines.Serial.ifsim g w faults in
  let r = Engine.Concurrent.run g w faults in
  check bool_t "sa1 clock matches oracle" true (Fault.same_verdict oracle r)

(* Multi-writer memory commit order: two processes (A, C) write
   overlapping words of one RAM on the same clock, and a register-only
   process (B) sits between them in process order. The clock net is
   [clk ^ ph] with [ph] held at 0, so faults on [clk], [ph] and the net
   itself drive the suppressed-edge and solo-edge paths (a stuck-at-1 [ph]
   inverts the faulty clock: every good rising edge is suppressed and every
   falling one becomes a solo edge of all three processes). Every site of
   the design is faulted, which covers A's and C's address, data and
   enable, and B's inputs. *)
let multi_writer_design () =
  let module B = Builder in
  let open B.Ops in
  let ctx = B.create "multi_writer" in
  let clk = B.input ctx "clk" 1 in
  let ph = B.input ctx "ph" 1 in
  let a_addr = B.input ctx "a_addr" 2 in
  let a_data = B.input ctx "a_data" 4 in
  let a_en = B.input ctx "a_en" 1 in
  let b_in = B.input ctx "b_in" 4 in
  let c_addr = B.input ctx "c_addr" 2 in
  let c_data = B.input ctx "c_data" 4 in
  let c_en = B.input ctx "c_en" 1 in
  let r_addr = B.input ctx "r_addr" 2 in
  let gclk = B.wire ctx "gclk" 1 in
  B.assign ctx gclk (clk ^: ph);
  let ram = B.ram ctx "ram" ~width:4 ~size:4 in
  let breg = B.reg ctx "breg" 4 in
  B.always_ff ctx ~name:"writer_a" ~clock:gclk
    [ B.when_ a_en [ B.write_mem ram a_addr a_data ] ];
  B.always_ff ctx ~name:"reg_b" ~clock:gclk [ breg <-- (breg +: b_in) ];
  B.always_ff ctx ~name:"writer_c" ~clock:gclk
    [
      B.when_ c_en
        [ B.write_mem ram c_addr (c_data ^: B.read_mem ram c_addr) ];
    ];
  let o = B.output ctx "o" 4 in
  B.assign ctx o (B.read_mem ram r_addr);
  let ob = B.output ctx "ob" 4 in
  B.assign ctx ob breg;
  let d = B.finalize ctx in
  let id = Design.find_signal d in
  let w =
    {
      Workload.cycles = 80;
      clock = id "clk";
      drive =
        Workload.random_drive ~seed:11L
          ~inputs:
            (List.map
               (fun n -> (id n, Design.signal_width d (id n)))
               [ "a_addr"; "a_data"; "a_en"; "b_in"; "c_addr"; "c_data";
                 "c_en"; "r_addr" ])
          ();
    }
  in
  (d, w)

let test_multi_writer_memory () =
  let d, w = multi_writer_design () in
  let g = Elaborate.build d in
  let pid n =
    match Array.find_opt (fun p -> p.Design.pname = n) d.Design.procs with
    | Some p -> p.Design.pid
    | None -> Alcotest.failf "no process %s" n
  in
  check bool_t "register-only process lies between the two writers" true
    (pid "writer_a" < pid "reg_b" && pid "reg_b" < pid "writer_c");
  let faults = Fault.generate ~seed:1L d in
  let oracle = Baselines.Serial.ifsim g w faults in
  let ndet = Fault.count_detected oracle in
  check bool_t "oracle detects some but not all faults" true
    (ndet > 0 && ndet < Array.length faults);
  List.iter
    (fun warmstart ->
      List.iter
        (fun e ->
          let r =
            (H.Resilient.run
               ~config:
                 {
                   H.Resilient.default_config with
                   H.Resilient.engine = e;
                   warmstart;
                 }
               g w faults)
              .H.Resilient.result
          in
          let name =
            Printf.sprintf "%s (%s)" (H.Campaign.engine_name e)
              (if warmstart then "warm" else "cold")
          in
          check (Alcotest.array bool_t) (name ^ " detected")
            oracle.Fault.detected r.Fault.detected;
          check (Alcotest.array int_t)
            (name ^ " detection cycles")
            oracle.Fault.detection_cycle r.Fault.detection_cycle)
        [ H.Campaign.Eraser; H.Campaign.Eraser_m; H.Campaign.Eraser_mm ])
    [ false; true ]

let test_per_proc_stats () =
  List.iter
    (fun name ->
      let g, w, faults = campaign (Circuits.find name) in
      let r = H.Campaign.run H.Campaign.Eraser g w faults in
      let s = r.Fault.stats in
      let sum f = Array.fold_left (fun acc p -> acc + f p) 0 s.Stats.per_proc in
      check int_t (name ^ " per-proc exec sums") s.Stats.bn_fault_exec
        (sum (fun r -> r.Stats.pr_exec));
      check int_t (name ^ " per-proc implicit sums")
        s.Stats.bn_skipped_implicit
        (sum (fun r -> r.Stats.pr_impl));
      check int_t (name ^ " per-proc explicit sums")
        s.Stats.bn_skipped_explicit
        (sum (fun r -> r.Stats.pr_expl)))
    [ "sha256_hv"; "riscv_mini"; "apb"; "picorv32" ]

let test_mem_check_ablation () =
  (* the conservative whole-memory rule stays correct and can only skip
     fewer executions than the per-word check *)
  List.iter
    (fun name ->
      let g, w, faults = campaign (Circuits.find name) in
      let run exact =
        Engine.Concurrent.run
          ~config:
            { Engine.Concurrent.default_config with exact_mem_check = exact }
          g w faults
      in
      let exact = run true in
      let conservative = run false in
      check bool_t (name ^ " conservative verdict equal") true
        (Fault.same_verdict exact conservative);
      check bool_t (name ^ " conservative skips fewer") true
        (conservative.Fault.stats.Stats.bn_skipped_implicit
        <= exact.Fault.stats.Stats.bn_skipped_implicit))
    [ "sha256_hv"; "riscv_mini"; "apb" ]

let test_instrumentation () =
  let g, w, faults = campaign (Circuits.find "apb") in
  let r =
    H.Campaign.run ~instrument:true H.Campaign.Eraser g w faults
  in
  let s = r.Fault.stats in
  check bool_t "bn time measured" true (s.Stats.bn_seconds > 0.0);
  check bool_t "bn time below total" true
    (s.Stats.bn_seconds <= s.Stats.total_seconds);
  check bool_t "wall time recorded" true (r.Fault.wall_time > 0.0)

let test_early_stop () =
  (* all faults detected -> the campaign may stop early but coverage is
     still 100% and equal to the oracle's *)
  let module B = Builder in
  let open B.Ops in
  let ctx = B.create "allvisible" in
  let clk = B.input ctx "clk" 1 in
  let a = B.input ctx "a" 4 in
  let q = B.reg ctx "q" 4 in
  B.always_ff ctx ~clock:clk [ q <-- a ];
  let o = B.output ctx "o" 4 in
  B.assign ctx o q;
  let d = B.finalize ctx in
  let g = Elaborate.build d in
  let w =
    Circuits.Bench_circuit.random_workload ~seed:3L d ~cycles:200
  in
  let faults =
    Fault.generate ~include_inputs:false ~seed:1L d
    |> Array.to_seq
    |> Seq.filter (fun (f : Fault.t) ->
           Design.signal_name d f.signal <> "clk")
    |> Array.of_seq
    |> Array.mapi (fun i f -> { f with Fault.fid = i })
  in
  let oracle = Baselines.Serial.ifsim g w faults in
  let r = Engine.Concurrent.run g w faults in
  check bool_t "equal" true (Fault.same_verdict oracle r);
  check (Alcotest.float 0.001) "full coverage" 100.0 r.Fault.coverage_pct

let suite =
  List.map equivalence_case Circuits.all
  @ [
      Alcotest.test_case "ablation monotonicity" `Quick
        test_ablation_monotonic;
      Alcotest.test_case "fake-event regression" `Quick test_fake_events;
      Alcotest.test_case "clock stuck-at-1 (solo edges)" `Quick
        test_clock_stuck_at_1;
      Alcotest.test_case "multi-writer memory commit order (cold and warm)"
        `Quick test_multi_writer_memory;
      Alcotest.test_case "per-proc stats consistency" `Quick
        test_per_proc_stats;
      Alcotest.test_case "mem-check ablation" `Quick test_mem_check_ablation;
      Alcotest.test_case "instrumented timing" `Quick test_instrumentation;
      Alcotest.test_case "early stop at full coverage" `Quick test_early_stop;
      Alcotest.test_case "z01x runs eraser-'s config" `Quick
        test_z01x_is_eraser_m;
    ]
