(* Differential fuzz harness: on random designs, every engine must produce
   the serial oracle's detected-fault set and detection cycles. Each
   design's stuck-at list is extended with SEUs, and the concurrent engine
   runs both cold and warm-started from a captured good trace.

     fuzz.exe [SEEDS] [FIRST_SEED]

   checks SEEDS designs (default 100) starting at FIRST_SEED (default 1)
   and exits 1 on any mismatch. *)
open Faultsim

let () =
  let n = try int_of_string Sys.argv.(1) with _ -> 100 in
  let first = try int_of_string Sys.argv.(2) with _ -> 1 in
  let failures = ref 0 in
  for seed = first to first + n - 1 do
    let s = Harness.Rand_design.generate ~seed:(Int64.of_int seed) () in
    let g = s.Harness.Rand_design.graph in
    let w = s.Harness.Rand_design.workload in
    let seus =
      Fault.generate_transients ~seed:(Int64.of_int seed) ~count:40
        ~max_cycle:w.Workload.cycles s.Harness.Rand_design.design
    in
    let faults =
      Array.mapi
        (fun i f -> { f with Fault.fid = i })
        (Array.append s.Harness.Rand_design.faults seus)
    in
    let oracle = Baselines.Serial.ifsim g w faults in
    let check name r =
      if not (Fault.same_verdict oracle r) then begin
        incr failures;
        Printf.printf "seed %d: %s verdict MISMATCH\n%!" seed name
      end
      else if oracle.Fault.detection_cycle <> r.Fault.detection_cycle then begin
        incr failures;
        Printf.printf "seed %d: %s detection-cycle MISMATCH\n%!" seed name
      end
    in
    check "vfsim" (Baselines.Serial.vfsim g w faults);
    List.iter
      (fun mode ->
        let cfg = { Engine.Concurrent.default_config with mode } in
        check
          (Engine.Concurrent.mode_name mode)
          (Engine.Concurrent.run ~config:cfg g w faults))
      [
        Engine.Concurrent.No_redundancy;
        Engine.Concurrent.Explicit_only;
        Engine.Concurrent.Full;
      ];
    List.iter
      (fun e ->
        check
          (Harness.Campaign.engine_name e ^ " warm")
          (Harness.Resilient.run
             ~config:
               {
                 Harness.Resilient.default_config with
                 Harness.Resilient.engine = e;
                 warmstart = true;
               }
             g w faults)
            .Harness.Resilient.result)
      [ Harness.Campaign.Eraser_m; Harness.Campaign.Eraser ];
    if seed mod 100 = 0 then Printf.printf "... %d seeds done\n%!" seed
  done;
  Printf.printf "fuzz: %d seeds, %d failures\n" n !failures;
  exit (if !failures = 0 then 0 else 1)
