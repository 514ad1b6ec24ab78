(* Cone-of-influence activation analysis (DESIGN.md section 14).

   Covers the static cone's shape on a hand-built design, the good-trace
   scan's cycle-attribution boundaries (init-settle prefix, last recorded
   cycle), activation edge cases (never-written sites, transient clamps),
   and the randomized soundness property: the cone-refined activation
   window never exceeds the cycle at which a cold per-fault run first
   diverges on an output, under both value representations. *)
open Faultsim
module H = Harness
module G = Sim.Goodtrace

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* A warm-started Eraser campaign through the batched runner. *)
let warm_run g w faults =
  (H.Resilient.run
     ~config:{ H.Resilient.default_config with H.Resilient.warmstart = true }
     g w faults)
    .H.Resilient.result

(* clk -> [ff q] -> o, plus a register no path connects to any output and
   an input port nothing ever drives *)
let cone_design () =
  let module B = Rtlir.Builder in
  let open B.Ops in
  let ctx = B.create "cone_shape" in
  let clk = B.input ctx "clk" 1 in
  let a = B.input ctx "a" 4 in
  let u = B.input ctx "u" 4 in
  let q = B.reg ctx "q" 4 in
  let dead = B.reg ctx "dead" 4 in
  B.always_ff ctx ~clock:clk [ q <-- (q +: a) ];
  B.always_ff ctx ~clock:clk [ dead <-- (dead +: B.const 4 1) ];
  let o = B.output ctx "o" 4 in
  B.assign ctx o (q +: u);
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

(* ---- cone shape ---- *)

let test_cone_shape () =
  let d, g, _ = cone_design () in
  let cone = Flow.Cone.build g in
  let id n = Rtlir.Design.find_signal d n in
  check bool_t "q observable" true (Flow.Cone.observable cone (id "q"));
  check bool_t "o observable" true (Flow.Cone.observable cone (id "o"));
  check bool_t "u observable" true (Flow.Cone.observable cone (id "u"));
  check bool_t "clk observable" true (Flow.Cone.observable cone (id "clk"));
  check bool_t "dead unobservable" false
    (Flow.Cone.observable cone (id "dead"));
  (* register stages: o is an output (0); q and u reach o combinationally
     (0); clk reaches o only through the q flop (1) *)
  check int_t "stages o" 0 cone.Flow.Cone.stages.(id "o");
  check int_t "stages q" 0 cone.Flow.Cone.stages.(id "q");
  check int_t "stages u" 0 cone.Flow.Cone.stages.(id "u");
  check int_t "stages clk" 1 cone.Flow.Cone.stages.(id "clk");
  check int_t "stages dead" (-1) cone.Flow.Cone.stages.(id "dead");
  (* classification flags *)
  check bool_t "q is state" true cone.Flow.Cone.state_sig.(id "q");
  check bool_t "dead is state" true cone.Flow.Cone.state_sig.(id "dead");
  check bool_t "u is not state" false cone.Flow.Cone.state_sig.(id "u");
  check bool_t "o reaches an output combinationally" true
    cone.Flow.Cone.out_comb.(id "o");
  check bool_t "u reaches an output combinationally" true
    cone.Flow.Cone.out_comb.(id "u");
  check bool_t "q reaches an output combinationally" true
    cone.Flow.Cone.out_comb.(id "q");
  check bool_t "clk has no comb path to an output" false
    cone.Flow.Cone.out_comb.(id "clk");
  check bool_t "clk is in a clock cone" true
    cone.Flow.Cone.clock_comb.(id "clk")

(* ---- scan boundaries (satellite: cycle_of cursor) ---- *)

(* Hand-build a 3-cycle trace: one assign in the init-settle prefix, one
   input write at the start of cycle 0, a silent cycle 1, and one assign
   landing on the last recorded cycle. The scan must attribute the prefix
   to cycle 0 and the final write to [cycles - 1]. *)
let test_scan_write_boundaries () =
  let _, g, _ = cone_design () in
  let st = Sim.State.create g.Rtlir.Elaborate.design in
  let outputs = [| 0L |] in
  let b = G.builder ~cycles:3 ~clock:0 ~nout:1 in
  G.rec_assign b ~pos:0 ~target:5 7L;
  G.rec_init_done b;
  G.rec_input b 1 1L;
  G.rec_step b;
  G.rec_cycle_done b ~outputs ~state:st;
  G.rec_cycle_done b ~outputs ~state:st;
  G.rec_assign b ~pos:0 ~target:5 3L;
  G.rec_cycle_done b ~outputs ~state:st;
  let t = G.finish b in
  let seen = ref [] in
  G.scan_writes t (fun cyc id v -> seen := (cyc, id, v) :: !seen);
  check
    (Alcotest.list (Alcotest.triple int_t int_t Alcotest.int64))
    "write stream with cycle attribution"
    [ (0, 5, 7L); (0, 1, 1L); (2, 5, 3L) ]
    (List.rev !seen);
  (* the same boundaries drive first_divergence: a stuck-at-1 whose bit
     only ever differs on the last recorded cycle activates there, and the
     init-settle write counts as cycle 0 *)
  let comb = Array.make 8 true in
  let site sig_ bit kind = { G.s_signal = sig_; s_bit = bit; s_kind = kind } in
  let acts =
    G.first_divergence t ~comb_driven:comb
      [|
        (* signal 5 holds bit1 from the init settle (7), loses it in the
           write on cycle 2 (3 -> bit2 clears): stuck-at-1 on bit 2
           diverges exactly at the last recorded cycle *)
        site 5 2 G.Stuck1;
        (* bit 0 is set by the init-settle write: stuck-at-0 differs at 0 *)
        site 5 0 G.Stuck0;
        (* bit 3 is never set by any write: stuck-at-0 never differs *)
        site 5 3 G.Stuck0;
      |]
  in
  check int_t "last-cycle write activates at cycles - 1" 2 acts.(0);
  check int_t "init-settle write counts as cycle 0" 0 acts.(1);
  check int_t "never-differing site never activates" 3 acts.(2)

(* ---- activation edge cases (satellite: never-written sites, clamps) ---- *)

let stuck fid signal bit k = { Fault.fid; signal; bit; stuck = k }

let test_never_written_sites () =
  let d, g, w = cone_design () in
  let u = Rtlir.Design.find_signal d "u" in
  (* the workload never drives u: the good run records no write to it, so
     a stuck-at-0 site there (matching the pristine zero state) keeps
     activation t.cycles — and the campaign must still simulate it rather
     than silently skip the batch *)
  let faults =
    [|
      stuck 0 u 0 Fault.Stuck_at_0;
      stuck 1 u 3 Fault.Stuck_at_0;
      stuck 2 u 1 Fault.Stuck_at_1;
    |]
  in
  let trace = Engine.Concurrent.capture g w in
  let acts = Engine.Concurrent.activations trace g faults in
  check int_t "never-written stuck-at-0 keeps t.cycles" w.Workload.cycles
    acts.(0);
  check int_t "never-written stuck-at-0 keeps t.cycles (bit 3)"
    w.Workload.cycles acts.(1);
  check int_t "stuck-at-1 on an undriven input activates immediately" 0
    acts.(2);
  let cold = H.Campaign.run H.Campaign.Eraser g w faults in
  check bool_t "stuck-at-1 detected cold" true cold.Fault.detected.(2);
  (* batch size 1 isolates each never-activating fault in its own batch,
     warm-started from the end-of-workload snapshot: it must still produce
     a verdict identical to the cold run's, not be dropped *)
  let s =
    Harness.Resilient.run
      ~config:
        {
          Harness.Resilient.default_config with
          Harness.Resilient.batch_size = 1;
          warmstart = true;
        }
      g w faults
  in
  check int_t "every fault got its own batch" (Array.length faults)
    s.Harness.Resilient.batches_total;
  check bool_t "warm verdicts equal cold" true
    (cold.Fault.detected = s.Harness.Resilient.result.Fault.detected
    && cold.Fault.detection_cycle
       = s.Harness.Resilient.result.Fault.detection_cycle)

let test_transient_clamps () =
  let d, g, w = cone_design () in
  let q = Rtlir.Design.find_signal d "q" in
  let faults =
    [|
      { Fault.fid = 0; signal = q; bit = 0; stuck = Fault.Flip_at (-5) };
      { Fault.fid = 1; signal = q; bit = 0; stuck = Fault.Flip_at 7 };
      {
        Fault.fid = 2;
        signal = q;
        bit = 0;
        stuck = Fault.Flip_at (w.Workload.cycles + 100);
      };
    |]
  in
  let trace = Engine.Concurrent.capture g w in
  let acts = Engine.Concurrent.activations trace g faults in
  check int_t "negative flip cycle clamps to 0" 0 acts.(0);
  check int_t "in-window flip keeps its cycle" 7 acts.(1);
  check int_t "past-the-end flip clamps to t.cycles" w.Workload.cycles
    acts.(2);
  (* clamped windows stay sound end to end *)
  let cold = H.Campaign.run H.Campaign.Eraser g w faults in
  let warm = warm_run g w faults in
  check bool_t "warm verdicts equal cold under clamping" true
    (cold.Fault.detected = warm.Fault.detected
    && cold.Fault.detection_cycle = warm.Fault.detection_cycle)

(* ---- randomized soundness property ---- *)

(* First cycle the faulty network's output ports differ from the good
   network's, both stepped in lockstep by the serial oracle's simulator.
   [None] when they never differ over the workload. *)
let first_output_divergence g w (f : Fault.t) =
  let config = Baselines.Serial.ifsim_config in
  let good = Sim.Simulator.create ~config g in
  let bad, on_cycle_start = Baselines.Serial.faulty_sim ~config g f in
  let div = ref None in
  Workload.run ~on_cycle_start w
    ~set_input:(fun id v ->
      Sim.Simulator.set_input good id v;
      Sim.Simulator.set_input bad id v)
    ~step:(fun () ->
      Sim.Simulator.step good;
      Sim.Simulator.step bad)
    ~observe:(fun c ->
      if Sim.Simulator.outputs good <> Sim.Simulator.outputs bad then begin
        div := Some c;
        false
      end
      else true);
  !div

(* The pre-cone conservative rule, straight from
   {!Sim.Goodtrace.first_divergence}: comb-driven signals are the targets
   of continuous assigns and comb-process blocking writes. *)
let legacy_windows trace (g : Rtlir.Elaborate.t) faults =
  let comb_driven =
    Array.make (Rtlir.Design.num_signals g.Rtlir.Elaborate.design) false
  in
  Array.iter
    (Array.iter (fun id -> comb_driven.(id) <- true))
    g.Rtlir.Elaborate.comb_writes;
  Sim.Goodtrace.first_divergence trace ~comb_driven
    (Array.map
       (fun (f : Fault.t) ->
         {
           Sim.Goodtrace.s_signal = f.Fault.signal;
           s_bit = f.Fault.bit;
           s_kind =
             (match f.Fault.stuck with
             | Fault.Stuck_at_0 -> Sim.Goodtrace.Stuck0
             | Fault.Stuck_at_1 -> Sim.Goodtrace.Stuck1
             | Fault.Flip_at c -> Sim.Goodtrace.Transient c);
         })
       faults)

(* The soundness contract of the refined rule, checked per scenario:
   - refined activations are pointwise >= the legacy first-divergence rule
     (the window only ever moves later);
   - a detected fault's activation never exceeds its detection cycle (a
     warm start at the activation snapshot cannot land past the event it
     must reproduce);
   - statically-unobservable sites are never detected by the oracle;
   - the warm-started concurrent campaign reproduces the cold verdicts;
   - the lockstep per-fault output-divergence oracle never diverges
     before the activation. *)
let check_scenario name g w faults =
  let n = Array.length faults in
  if n > 0 then begin
    let cone = Flow.Cone.build g in
    let trace = Engine.Concurrent.capture g w in
    let acts = Engine.Concurrent.activations ~cone trace g faults in
    let legacy = legacy_windows trace g faults in
    let dead = Engine.Concurrent.statically_undetectable ~cone g faults in
    let oracle = Baselines.Serial.ifsim g w faults in
    Array.iteri
      (fun i (f : Fault.t) ->
        if acts.(i) < legacy.(i) then
          Alcotest.failf "%s: fault %d refined activation %d < legacy %d"
            name f.Fault.fid acts.(i) legacy.(i);
        if oracle.Fault.detected.(i) then begin
          if acts.(i) > oracle.Fault.detection_cycle.(i) then
            Alcotest.failf
              "%s: fault %d activates at %d after its detection cycle %d"
              name f.Fault.fid acts.(i) oracle.Fault.detection_cycle.(i);
          if dead.(i) then
            Alcotest.failf
              "%s: fault %d statically pruned but detected by the oracle"
              name f.Fault.fid
        end)
      faults;
    let cold = H.Campaign.run H.Campaign.Eraser g w faults in
    let warm = warm_run g w faults in
    if
      cold.Fault.detected <> warm.Fault.detected
      || cold.Fault.detection_cycle <> warm.Fault.detection_cycle
    then Alcotest.failf "%s: warm-started verdicts differ from cold" name;
    (* sample a handful of faults for the lockstep oracle *)
    let step = max 1 (n / 8) in
    let i = ref 0 in
    while !i < n do
      let f = faults.(!i) in
      (match first_output_divergence g w f with
      | Some c when acts.(!i) > c ->
          Alcotest.failf
            "%s: fault %d outputs diverge at %d before activation %d" name
            f.Fault.fid c acts.(!i)
      | _ -> ());
      i := !i + step
    done
  end

let test_property_rand_designs () =
  for seed = 1 to 8 do
    let s =
      H.Rand_design.generate ~cycles:60
        ~seed:(Int64.of_int (77_000 + seed))
        ()
    in
    check_scenario
      (Printf.sprintf "rand seed %d" seed)
      s.H.Rand_design.graph s.H.Rand_design.workload s.H.Rand_design.faults
  done

let circuit_property_case name scale =
  Alcotest.test_case
    (Printf.sprintf "%s activation soundness" name)
    `Quick
    (fun () ->
      let c = Circuits.find name in
      let _, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
      check_scenario name g w faults)

let suite =
  [
    Alcotest.test_case "cone shape on a hand-built design" `Quick
      test_cone_shape;
    Alcotest.test_case "scan-write cycle attribution boundaries" `Quick
      test_scan_write_boundaries;
    Alcotest.test_case "never-written sites keep full windows" `Quick
      test_never_written_sites;
    Alcotest.test_case "transient activation clamps" `Quick
      test_transient_clamps;
    Alcotest.test_case "refined activations sound on random designs" `Quick
      test_property_rand_designs;
    circuit_property_case "alu" 0.08;
    circuit_property_case "fpu" 0.08;
  ]
