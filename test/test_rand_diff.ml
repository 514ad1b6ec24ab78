(* Differential property test: on randomly generated designs, every engine
   produces the serial oracle's detected-fault set and detection cycles
   (DESIGN.md section 4). This is the strongest soundness check of the
   concurrent engine and of Algorithm 1 (an unsound skip shows up as a
   verdict or cycle mismatch). Each design's stuck-at list is extended
   with SEUs, so converged transients retire inside mixed batches, and
   Eraser also runs warm-started. The standalone fuzz harness in examples/
   runs the same property over many more seeds. *)
open Faultsim
module H = Harness

let engines_agree seed =
  let s = H.Rand_design.generate ~cycles:100 ~max_faults:40 ~seed () in
  let g = s.H.Rand_design.graph in
  let w = s.H.Rand_design.workload in
  let seus =
    Fault.generate_transients ~seed ~count:10 ~max_cycle:w.Workload.cycles
      s.H.Rand_design.design
  in
  let faults =
    Array.mapi
      (fun i f -> { f with Fault.fid = i })
      (Array.append s.H.Rand_design.faults seus)
  in
  let oracle = Baselines.Serial.ifsim g w faults in
  List.for_all
    (fun (e, warmstart) ->
      let r =
        (H.Resilient.run
           ~config:
             { H.Resilient.default_config with H.Resilient.engine = e; warmstart }
           g w faults)
          .H.Resilient.result
      in
      Fault.same_verdict oracle r
      && oracle.Fault.detection_cycle = r.Fault.detection_cycle)
    [
      (H.Campaign.Vfsim, false); (H.Campaign.Eraser_mm, false);
      (H.Campaign.Eraser_m, false); (H.Campaign.Eraser, false);
      (H.Campaign.Eraser, true);
    ]

let qcheck =
  QCheck2.Test.make ~count:60 ~name:"random-design engine equivalence"
    (QCheck2.Gen.map Int64.of_int (QCheck2.Gen.int_range 20_000 1_000_000))
    engines_agree

(* Coverage sanity across engines on random designs: the Eraser result is
   byte-identical to the Eraser- and Eraser-- results, so coverage numbers
   in the tables can never drift between ablation modes. *)
let test_ablation_equal_verdicts () =
  for seed = 1 to 15 do
    let s =
      H.Rand_design.generate ~cycles:80 ~max_faults:30
        ~seed:(Int64.of_int (31_000 + seed))
        ()
    in
    let g = s.H.Rand_design.graph in
    let w = s.H.Rand_design.workload in
    let faults = s.H.Rand_design.faults in
    let r1 = H.Campaign.run H.Campaign.Eraser_mm g w faults in
    let r2 = H.Campaign.run H.Campaign.Eraser g w faults in
    if not (Fault.same_verdict r1 r2) then
      Alcotest.failf "seed %d: ablation modes disagree" seed
  done

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck;
    Alcotest.test_case "ablation verdict equality" `Quick
      test_ablation_equal_verdicts;
  ]
