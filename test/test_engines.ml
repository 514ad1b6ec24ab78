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

(* Engine counters pinned to exact values, so a refactor that moves a
   counter (rather than only breaking monotonicity or the per-process sums)
   fails here. Cold runs cover every redundancy mode on a behavioral ALU, a
   pipelined CPU, a flat Chisel-style core and the multi-writer memory
   design (suppressed and solo clock edges); the SEU campaign covers warm
   replay, snapshot starts and converged-transient retirement. *)
type pin = {
  bn_good : int;
  fault_exec : int;
  skip_explicit : int;
  skip_implicit : int;
  rtl_good : int;
  rtl_fault : int;
  cycles_skipped : int;
  procs : (string * int * int * int) list;  (** name, exec, impl, expl *)
}

let pin_of (s : Stats.t) =
  {
    bn_good = s.Stats.bn_good;
    fault_exec = s.Stats.bn_fault_exec;
    skip_explicit = s.Stats.bn_skipped_explicit;
    skip_implicit = s.Stats.bn_skipped_implicit;
    rtl_good = s.Stats.rtl_good_eval;
    rtl_fault = s.Stats.rtl_fault_eval;
    cycles_skipped = s.Stats.good_cycles_skipped;
    procs =
      Array.to_list
        (Array.map
           (fun (r : Stats.proc_row) ->
             (r.Stats.pr_name, r.Stats.pr_exec, r.Stats.pr_impl,
              r.Stats.pr_expl))
           s.Stats.per_proc);
  }

let check_pin what expected (s : Stats.t) =
  let got = pin_of s in
  let c name e g = check int_t (what ^ " " ^ name) e g in
  c "bn_good" expected.bn_good got.bn_good;
  c "bn_fault_exec" expected.fault_exec got.fault_exec;
  c "bn_skipped_explicit" expected.skip_explicit got.skip_explicit;
  c "bn_skipped_implicit" expected.skip_implicit got.skip_implicit;
  c "rtl_good_eval" expected.rtl_good got.rtl_good;
  c "rtl_fault_eval" expected.rtl_fault got.rtl_fault;
  c "good_cycles_skipped" expected.cycles_skipped got.cycles_skipped;
  check
    Alcotest.(list (pair string (triple int int int)))
    (what ^ " per_proc")
    (List.map (fun (n, e, i, x) -> (n, (e, i, x))) expected.procs)
    (List.map (fun (n, e, i, x) -> (n, (e, i, x))) got.procs)

let cold_pins =
  [
    ( "alu eraser--",
      { bn_good = 132; fault_exec = 1195; skip_explicit = 0;
        skip_implicit = 0; rtl_good = 405; rtl_fault = 519;
        cycles_skipped = 0;
        procs =
          [
            ("alu_main", 770, 0, 0);
            ("alu_flags", 425, 0, 0);
          ] } );
    ( "alu eraser-",
      { bn_good = 132; fault_exec = 337; skip_explicit = 858;
        skip_implicit = 0; rtl_good = 405; rtl_fault = 519;
        cycles_skipped = 0;
        procs =
          [
            ("alu_main", 284, 0, 486);
            ("alu_flags", 53, 0, 372);
          ] } );
    ( "alu eraser",
      { bn_good = 132; fault_exec = 119; skip_explicit = 858;
        skip_implicit = 218; rtl_good = 405; rtl_fault = 519;
        cycles_skipped = 0;
        procs =
          [
            ("alu_main", 66, 218, 486);
            ("alu_flags", 53, 0, 372);
          ] } );
    ( "riscv_mini eraser--",
      { bn_good = 2766; fault_exec = 69576; skip_explicit = 0;
        skip_implicit = 0; rtl_good = 4599; rtl_fault = 304;
        cycles_skipped = 0;
        procs =
          [
            ("rs1val_bp", 7623, 0, 0);
            ("rs2val_bp", 7623, 0, 0);
            ("load_bp", 9029, 0, 0);
            ("execute", 9085, 0, 0);
            ("fetch", 9054, 0, 0);
            ("xstage", 9054, 0, 0);
            ("writeback", 9054, 0, 0);
            ("csr_unit", 9054, 0, 0);
          ] } );
    ( "riscv_mini eraser-",
      { bn_good = 2766; fault_exec = 4649; skip_explicit = 64927;
        skip_implicit = 0; rtl_good = 4599; rtl_fault = 304;
        cycles_skipped = 0;
        procs =
          [
            ("rs1val_bp", 918, 0, 6705);
            ("rs2val_bp", 9, 0, 7614);
            ("load_bp", 364, 0, 8665);
            ("execute", 394, 0, 8691);
            ("fetch", 2, 0, 9052);
            ("xstage", 4, 0, 9050);
            ("writeback", 364, 0, 8690);
            ("csr_unit", 2594, 0, 6460);
          ] } );
    ( "riscv_mini eraser",
      { bn_good = 2766; fault_exec = 3034; skip_explicit = 64927;
        skip_implicit = 1615; rtl_good = 4599; rtl_fault = 304;
        cycles_skipped = 0;
        procs =
          [
            ("rs1val_bp", 913, 5, 6705);
            ("rs2val_bp", 3, 6, 7614);
            ("load_bp", 361, 3, 8665);
            ("execute", 393, 1, 8691);
            ("fetch", 2, 0, 9052);
            ("xstage", 4, 0, 9050);
            ("writeback", 274, 90, 8690);
            ("csr_unit", 1084, 1510, 6460);
          ] } );
    ( "sha256_c2v eraser--",
      { bn_good = 6720; fault_exec = 358960; skip_explicit = 0;
        skip_implicit = 0; rtl_good = 11467; rtl_fault = 120134;
        cycles_skipped = 0;
        procs =
          [
            ("reg_r0", 12820, 0, 0);
            ("reg_r1", 12820, 0, 0);
            ("reg_r2", 12820, 0, 0);
            ("reg_r3", 12820, 0, 0);
            ("reg_r4", 12820, 0, 0);
            ("reg_r5", 12820, 0, 0);
            ("reg_r6", 12820, 0, 0);
            ("reg_r7", 12820, 0, 0);
            ("reg_hh0", 12820, 0, 0);
            ("reg_hh1", 12820, 0, 0);
            ("reg_hh2", 12820, 0, 0);
            ("reg_hh3", 12820, 0, 0);
            ("reg_hh4", 12820, 0, 0);
            ("reg_hh5", 12820, 0, 0);
            ("reg_hh6", 12820, 0, 0);
            ("reg_hh7", 12820, 0, 0);
            ("reg_dig0", 12820, 0, 0);
            ("reg_dig1", 12820, 0, 0);
            ("reg_dig2", 12820, 0, 0);
            ("reg_dig3", 12820, 0, 0);
            ("reg_dig4", 12820, 0, 0);
            ("reg_dig5", 12820, 0, 0);
            ("reg_dig6", 12820, 0, 0);
            ("reg_dig7", 12820, 0, 0);
            ("reg_state", 12820, 0, 0);
            ("reg_t", 12820, 0, 0);
            ("reg_done", 12820, 0, 0);
            ("w_port", 12820, 0, 0);
          ] } );
    ( "sha256_c2v eraser-",
      { bn_good = 6720; fault_exec = 28624; skip_explicit = 330336;
        skip_implicit = 0; rtl_good = 11467; rtl_fault = 120134;
        cycles_skipped = 0;
        procs =
          [
            ("reg_r0", 3013, 0, 9807);
            ("reg_r1", 2911, 0, 9909);
            ("reg_r2", 2895, 0, 9925);
            ("reg_r3", 2870, 0, 9950);
            ("reg_r4", 2983, 0, 9837);
            ("reg_r5", 2915, 0, 9905);
            ("reg_r6", 2848, 0, 9972);
            ("reg_r7", 2849, 0, 9971);
            ("reg_hh0", 825, 0, 11995);
            ("reg_hh1", 288, 0, 12532);
            ("reg_hh2", 208, 0, 12612);
            ("reg_hh3", 46, 0, 12774);
            ("reg_hh4", 202, 0, 12618);
            ("reg_hh5", 53, 0, 12767);
            ("reg_hh6", 194, 0, 12626);
            ("reg_hh7", 351, 0, 12469);
            ("reg_dig0", 793, 0, 12027);
            ("reg_dig1", 268, 0, 12552);
            ("reg_dig2", 123, 0, 12697);
            ("reg_dig3", 271, 0, 12549);
            ("reg_dig4", 355, 0, 12465);
            ("reg_dig5", 358, 0, 12462);
            ("reg_dig6", 188, 0, 12632);
            ("reg_dig7", 556, 0, 12264);
            ("reg_state", 1, 0, 12819);
            ("reg_t", 17, 0, 12803);
            ("reg_done", 0, 0, 12820);
            ("w_port", 243, 0, 12577);
          ] } );
    ( "sha256_c2v eraser",
      { bn_good = 6720; fault_exec = 28600; skip_explicit = 330336;
        skip_implicit = 24; rtl_good = 11467; rtl_fault = 73045;
        cycles_skipped = 0;
        procs =
          [
            ("reg_r0", 3013, 0, 9807);
            ("reg_r1", 2911, 0, 9909);
            ("reg_r2", 2895, 0, 9925);
            ("reg_r3", 2870, 0, 9950);
            ("reg_r4", 2983, 0, 9837);
            ("reg_r5", 2915, 0, 9905);
            ("reg_r6", 2848, 0, 9972);
            ("reg_r7", 2849, 0, 9971);
            ("reg_hh0", 825, 0, 11995);
            ("reg_hh1", 288, 0, 12532);
            ("reg_hh2", 208, 0, 12612);
            ("reg_hh3", 46, 0, 12774);
            ("reg_hh4", 202, 0, 12618);
            ("reg_hh5", 53, 0, 12767);
            ("reg_hh6", 194, 0, 12626);
            ("reg_hh7", 351, 0, 12469);
            ("reg_dig0", 793, 0, 12027);
            ("reg_dig1", 268, 0, 12552);
            ("reg_dig2", 123, 0, 12697);
            ("reg_dig3", 271, 0, 12549);
            ("reg_dig4", 355, 0, 12465);
            ("reg_dig5", 358, 0, 12462);
            ("reg_dig6", 188, 0, 12632);
            ("reg_dig7", 556, 0, 12264);
            ("reg_state", 1, 0, 12819);
            ("reg_t", 17, 0, 12803);
            ("reg_done", 0, 0, 12820);
            ("w_port", 219, 24, 12577);
          ] } );
    ( "multi_writer eraser--",
      { bn_good = 240; fault_exec = 1143; skip_explicit = 0;
        skip_implicit = 0; rtl_good = 358; rtl_fault = 658;
        cycles_skipped = 0;
        procs =
          [
            ("writer_a", 381, 0, 0);
            ("reg_b", 381, 0, 0);
            ("writer_c", 381, 0, 0);
          ] } );
    ( "multi_writer eraser-",
      { bn_good = 240; fault_exec = 355; skip_explicit = 788;
        skip_implicit = 0; rtl_good = 358; rtl_fault = 658;
        cycles_skipped = 0;
        procs =
          [
            ("writer_a", 124, 0, 257);
            ("reg_b", 92, 0, 289);
            ("writer_c", 139, 0, 242);
          ] } );
    ( "multi_writer eraser",
      { bn_good = 240; fault_exec = 303; skip_explicit = 788;
        skip_implicit = 52; rtl_good = 358; rtl_fault = 658;
        cycles_skipped = 0;
        procs =
          [
            ("writer_a", 108, 16, 257);
            ("reg_b", 92, 0, 289);
            ("writer_c", 103, 36, 242);
          ] } );
  ]

let seu_pin =
  { bn_good = 0; fault_exec = 58; skip_explicit = 6093;
    skip_implicit = 82; rtl_good = 0; rtl_fault = 36;
    cycles_skipped = 278;
    procs =
      [
        ("stage1", 0, 0, 2209);
        ("align_add", 13, 4, 619);
        ("normalize", 8, 7, 616);
        ("mulpath", 22, 0, 526);
        ("stage2", 15, 71, 2123);
      ] }

let test_pinned_counters () =
  List.iter
    (fun (what, expected) ->
      let name, mode_name =
        match String.split_on_char ' ' what with
        | [ n; m ] -> (n, m)
        | _ -> assert false
      in
      let mode =
        List.find
          (fun m -> Engine.Concurrent.mode_name m = mode_name)
          Engine.Concurrent.[ No_redundancy; Explicit_only; Full ]
      in
      let g, w, faults =
        if name = "multi_writer" then
          let d, w = multi_writer_design () in
          (Elaborate.build d, w, Fault.generate ~seed:1L d)
        else campaign (Circuits.find name)
      in
      let config = { Engine.Concurrent.default_config with mode } in
      check_pin what expected
        (Engine.Concurrent.run ~config g w faults).Fault.stats)
    cold_pins;
  let d, g, _, _ =
    Circuits.Bench_circuit.instantiate (Circuits.find "fpu") ~scale
  in
  let w = Circuits.Bench_circuit.random_workload ~seed:7L d ~cycles:300 in
  let faults =
    Fault.generate_transients ~seed:13L ~count:48 ~max_cycle:300 d
  in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let s =
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.disable ())
      (fun () ->
        H.Resilient.run
          ~config:
            {
              H.Resilient.default_config with
              H.Resilient.warmstart = true;
              batch_size = 16;
            }
          g w faults)
  in
  let get n = Option.value ~default:0 (Obs.Metrics.counter_value n) in
  let stepped = get "engine.cycles_stepped"
  and retired = get "engine.transients_retired" in
  Obs.Metrics.reset ();
  let r = s.H.Resilient.result in
  check_pin "fpu seu warm" seu_pin r.Fault.stats;
  check int_t "fpu seu warm engine.cycles_stepped" 568 stepped;
  check int_t "fpu seu warm engine.transients_retired" 28 retired;
  check int_t "fpu seu warm detected" 20 (Fault.count_detected r)

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

(* One batch of over a thousand stuck-at faults on sha256_c2v. The
   equivalence cases run at [scale], where no diff table holds more than a
   few dozen faults; here a single batch puts about 500 faults into each
   32-bit round register's table, so insertion, swap-removal and the scans
   run at full batch width. The stimulus runs 100 cycles so that those
   diffs reach the outputs and decide verdicts: at 80 cycles or fewer, a
   table that maps entries past slot 255 to the wrong fault changes no
   verdict. Verdicts and detection cycles must equal the serial
   oracle's. *)
let test_wide_batch () =
  let c = Circuits.find "sha256_c2v" in
  let d = c.Circuits.Bench_circuit.build () in
  let g = Elaborate.build d in
  let w = c.Circuits.Bench_circuit.workload d ~cycles:100 in
  let faults = Fault.generate ~max_faults:1100 ~seed:0x5EEDL d in
  let n = Array.length faults in
  if n < 1024 then Alcotest.failf "only %d faults in the wide batch" n;
  let oracle = H.Campaign.run H.Campaign.Ifsim g w faults in
  let r = H.Campaign.run H.Campaign.Eraser g w faults in
  let nd = Fault.count_detected oracle in
  if nd = 0 || nd = n then
    Alcotest.failf "oracle detects %d of %d faults: no contrast" nd n;
  check int_t "detected count" nd (Fault.count_detected r);
  check bool_t "same detected set and detection cycles" true
    (Fault.same_verdict oracle r)

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
      Alcotest.test_case "pinned engine counters" `Quick test_pinned_counters;
      Alcotest.test_case "instrumented timing" `Quick test_instrumentation;
      Alcotest.test_case "early stop at full coverage" `Quick test_early_stop;
      Alcotest.test_case "z01x runs eraser-'s config" `Quick
        test_z01x_is_eraser_m;
      Alcotest.test_case "wide batch (1,100 faults) matches the oracle"
        `Quick test_wide_batch;
    ]
