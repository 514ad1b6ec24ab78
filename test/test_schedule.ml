(* Fault-schedule planner regression suite.

   The contract under test (DESIGN.md section 15): Schedule.plan produces a
   permutation partition of the unpruned fault set under every policy and
   granularity; a journaled plan resumes across worker counts to a
   byte-identical report; every warm plan places its own snapshots; and
   the satellite seams — post-hoc snapshot reconstruction,
   halve/singleton refinement — preserve replay exactly. *)

open Faultsim
module H = Harness

let render_verdicts ~design ~engine ~faults r =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  H.Json_report.verdicts ppf ~design ~engine:(H.Campaign.engine_name engine)
    ~faults r;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let render_resilient ~design ~engine ~faults ~verdicts s =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  H.Json_report.resilient ppf ~design ~engine:(H.Campaign.engine_name engine)
    ~faults ~verdicts s;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* Transient faults spread over the workload give the planner genuinely
   distinct activation windows to reorder by. *)
let transient_faults d (w : Workload.t) ~count =
  let base =
    Fault.generate_transients ~seed:0x5EEDL ~count
      ~max_cycle:(w.Workload.cycles - 1) d
  in
  let n = Array.length base in
  Array.mapi
    (fun i f ->
      { f with Fault.stuck = Fault.Flip_at (i * (w.Workload.cycles - 1) / max 1 (n - 1)) })
    base

let warm_input g w faults =
  let cone = Flow.Cone.build g in
  let trace = Engine.Concurrent.capture g w in
  let acts = Engine.Concurrent.activations ~cone trace g faults in
  let pruned = Engine.Concurrent.statically_undetectable ~cone g faults in
  { H.Schedule.wi_trace = trace; wi_acts = acts; wi_pruned = pruned }

(* Property: under every policy x granularity x (cold | warm), the plan's
   batches plus its pruned set are a permutation partition of 0..n-1 —
   every fault id exactly once — batch indexes are sequential, costs are
   positive, and warm starts never exceed each batch's earliest
   activation. *)
let test_partition_property () =
  let c = Circuits.find "alu" in
  let d, g, w, stuck = Circuits.Bench_circuit.instantiate c ~scale:0.1 in
  let fault_sets =
    [ ("stuck", stuck); ("transient", transient_faults d w ~count:17) ]
  in
  let granularities =
    [
      H.Schedule.Size 1; H.Schedule.Size 3; H.Schedule.Size 1000;
      H.Schedule.Chunks 1; H.Schedule.Chunks 4; H.Schedule.Chunks 97;
    ]
  in
  List.iter
    (fun (fname, faults) ->
      let n = Array.length faults in
      let warm = warm_input g w faults in
      List.iter
        (fun (wname, warm) ->
          List.iter
            (fun policy ->
              List.iter
                (fun granularity ->
                  let plan =
                    H.Schedule.plan ~policy ~granularity ?warm ~design:g ~n ()
                  in
                  let ctx =
                    Printf.sprintf "%s/%s/%s" fname wname
                      (H.Schedule.policy_name plan.H.Schedule.sp_policy)
                  in
                  let seen = Array.make n 0 in
                  Array.iter
                    (fun id -> seen.(id) <- seen.(id) + 1)
                    plan.H.Schedule.sp_pruned;
                  Array.iteri
                    (fun bi (b : H.Schedule.batch) ->
                      Alcotest.(check int)
                        (ctx ^ ": batch index sequential") bi
                        b.H.Schedule.sb_index;
                      if Array.length b.H.Schedule.sb_ids = 0 then
                        Alcotest.failf "%s: empty batch %d" ctx bi;
                      if b.H.Schedule.sb_cost <= 0.0 then
                        Alcotest.failf "%s: non-positive cost in batch %d" ctx
                          bi;
                      (match (plan.H.Schedule.sp_acts, warm) with
                      | Some acts, Some wi ->
                          let min_act =
                            Array.fold_left
                              (fun m id -> min m acts.(id))
                              max_int b.H.Schedule.sb_ids
                          in
                          if b.H.Schedule.sb_start > min_act then
                            Alcotest.failf
                              "%s: batch %d starts at %d past activation %d"
                              ctx bi b.H.Schedule.sb_start min_act;
                          ignore wi
                      | _ ->
                          Alcotest.(check int)
                            (ctx ^ ": cold batches start at 0") 0
                            b.H.Schedule.sb_start);
                      Array.iter
                        (fun id -> seen.(id) <- seen.(id) + 1)
                        b.H.Schedule.sb_ids)
                    plan.H.Schedule.sp_batches;
                  Array.iteri
                    (fun id k ->
                      if k <> 1 then
                        Alcotest.failf "%s: fault %d planned %d times" ctx id
                          k)
                    seen)
                granularities)
            [ H.Schedule.Fixed; H.Schedule.Adaptive ])
        [ ("cold", None); ("warm", Some warm) ])
    fault_sets

(* A cold Fixed plan must reproduce the historical decompositions exactly:
   Chunks k cuts the i*n/k contiguous ranges, Size s ascending windows. *)
let test_fixed_cold_reproduces_chunks () =
  let n = 59 in
  let g =
    let c = Circuits.find "alu" in
    let _, g, _, _ = Circuits.Bench_circuit.instantiate c ~scale:0.05 in
    g
  in
  List.iter
    (fun k ->
      let plan =
        H.Schedule.plan ~policy:H.Schedule.Adaptive
          ~granularity:(H.Schedule.Chunks k) ~design:g ~n ()
      in
      Alcotest.(check string)
        "cold plans degrade to fixed" "fixed"
        (H.Schedule.policy_name plan.H.Schedule.sp_policy);
      let k' = min k n in
      Alcotest.(check int)
        (Printf.sprintf "chunks %d: batch count" k)
        k'
        (Array.length plan.H.Schedule.sp_batches);
      Array.iteri
        (fun i (b : H.Schedule.batch) ->
          let lo = i * n / k' and hi = (i + 1) * n / k' in
          Alcotest.(check (array int))
            (Printf.sprintf "chunks %d: batch %d is the historical range" k i)
            (Array.init (hi - lo) (fun j -> lo + j))
            b.H.Schedule.sb_ids)
        plan.H.Schedule.sp_batches)
    [ 1; 2; 4; 7; 97 ]

(* Simulate a mid-campaign crash: drop the journal's final record. *)
let drop_last_line path =
  let ic = open_in_bin path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let kept = List.rev (match !lines with _ :: tl -> tl | [] -> []) in
  let oc = open_out_bin path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    kept;
  close_out oc

(* A warm journal carries the plan (header field + typed record); a torn
   campaign resumed at a different worker count replays to a
   byte-identical resilient report. *)
let test_plan_resumes_across_jobs () =
  let c = Circuits.find "alu" in
  let d, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale:0.1 in
  let engine = H.Campaign.Eraser in
  let verdicts = Classify.classify g faults in
  let journal = Filename.temp_file "eraser_schedule" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      let cfg =
        {
          H.Resilient.default_config with
          H.Resilient.engine;
          jobs = 1;
          batch_size = 8;
          journal = Some journal;
          warmstart = true;
        }
      in
      let full = H.Resilient.run ~config:cfg g w faults in
      let reference =
        render_resilient ~design:d ~engine ~faults ~verdicts full
      in
      drop_last_line journal;
      let resumed =
        H.Resilient.run
          ~config:{ cfg with H.Resilient.resume = true; jobs = 4 }
          g w faults
      in
      if resumed.H.Resilient.batches_resumed = 0 then
        Alcotest.fail "resume replayed nothing from the journal";
      Alcotest.(check string)
        "resumed resilient report byte-identical" reference
        (render_resilient ~design:d ~engine ~faults ~verdicts resumed))

(* Refinement helpers: halve is an order-preserving exact split, singletons
   the per-fault grain, and warm_for the latest snapshot at or before a
   subset's earliest activation. *)
let test_refinement_invariants () =
  Alcotest.(check (option (pair (array int) (array int))))
    "halve of a singleton" None
    (H.Schedule.halve [| 7 |]);
  (match H.Schedule.halve [| 5; 3; 9; 1; 2 |] with
  | Some (l, r) ->
      Alcotest.(check (array int)) "halve left" [| 5; 3 |] l;
      Alcotest.(check (array int)) "halve right" [| 9; 1; 2 |] r
  | None -> Alcotest.fail "halve refused a splittable batch");
  Alcotest.(check (array (array int)))
    "singletons"
    [| [| 4 |]; [| 2 |] |]
    (H.Schedule.singletons [| 4; 2 |]);
  let c = Circuits.find "alu" in
  let d, g, w, _ = Circuits.Bench_circuit.instantiate c ~scale:0.1 in
  let faults = transient_faults d w ~count:17 in
  let n = Array.length faults in
  let warm = warm_input g w faults in
  let plan =
    H.Schedule.plan ~policy:H.Schedule.Adaptive
      ~granularity:(H.Schedule.Size 4) ~warm ~design:g ~n ()
  in
  (* the journaled plan record: a drifting snapshot budget or placement
     would change a warm journal's plan line and break resume *)
  Alcotest.(check string)
    "plan record"
    {|{"type":"plan","policy":"adaptive","batches":5,"starts":[0,37,74,111,149]}|}
    (H.Jsonl.to_string (H.Schedule.to_json plan));
  let trace =
    match plan.H.Schedule.sp_trace with
    | Some t -> t
    | None -> Alcotest.fail "warm plan retained no trace"
  in
  let acts = Option.get plan.H.Schedule.sp_acts in
  Array.iter
    (fun (b : H.Schedule.batch) ->
      Array.iter
        (fun half ->
          match H.Schedule.warm_for plan half with
          | None -> Alcotest.fail "warm plan gave no warm start"
          | Some wstart ->
              let min_act =
                Array.fold_left (fun m id -> min m acts.(id)) max_int half
              in
              Alcotest.(check int)
                "refined warm start is the snapshot at the subset's \
                 activation"
                (Sim.Goodtrace.start_for trace
                   ~activation:(min min_act trace.Sim.Goodtrace.cycles))
                wstart.Sim.Goodtrace.start)
        (match H.Schedule.halve b.H.Schedule.sb_ids with
        | Some (l, r) -> [| b.H.Schedule.sb_ids; l; r |]
        | None -> [| b.H.Schedule.sb_ids |]))
    plan.H.Schedule.sp_batches

(* A warm Fixed plan places its own snapshots: with no more batches than
   the snapshot budget, every batch starts exactly at its earliest
   activation, not at some coarser point below it. *)
let test_fixed_warm_places_snapshots () =
  let c = Circuits.find "alu" in
  let d, g, w, _ = Circuits.Bench_circuit.instantiate c ~scale:0.1 in
  let faults = transient_faults d w ~count:17 in
  let n = Array.length faults in
  let warm = warm_input g w faults in
  let plan =
    H.Schedule.plan ~policy:H.Schedule.Fixed ~granularity:(H.Schedule.Size 4)
      ~warm ~design:g ~n ()
  in
  Alcotest.(check string)
    "warm fixed plans stay fixed" "fixed"
    (H.Schedule.policy_name plan.H.Schedule.sp_policy);
  Array.iter
    (fun (b : H.Schedule.batch) ->
      let min_act =
        Array.fold_left
          (fun m id -> min m warm.H.Schedule.wi_acts.(id))
          max_int b.H.Schedule.sb_ids
      in
      Alcotest.(check int)
        (Printf.sprintf "batch %d starts at its activation" b.H.Schedule.sb_index)
        (min min_act w.Workload.cycles)
        b.H.Schedule.sb_start)
    plan.H.Schedule.sp_batches;
  if Array.for_all (fun b -> b.H.Schedule.sb_start = 0) plan.H.Schedule.sp_batches
  then Alcotest.fail "test premise broken: every batch starts cold"

(* The snapshot seam: with_snapshots must reconstruct, from the event
   stream alone, exactly the good state at each requested boundary [c] —
   the end snapshot of a capture of the same workload cut to [c] cycles
   (signals and memory words). *)
let test_with_snapshots_reconstructs_exact_states () =
  let c = Circuits.find "sha256_hv" in
  let d, g, w, _ = Circuits.Bench_circuit.instantiate c ~scale:0.05 in
  let capture = Engine.Concurrent.capture g w in
  let cycles = capture.Sim.Goodtrace.cycles in
  let at = [ 1; 2; cycles / 3; (2 * cycles / 3) + 1; cycles - 1; cycles ] in
  let rebuilt =
    Sim.Goodtrace.with_snapshots capture ~base:(Sim.State.create d) ~at
  in
  Array.iter
    (fun (cyc, (st : Sim.State.t)) ->
      let want =
        Sim.Goodtrace.snapshot_at
          (Engine.Concurrent.capture g { w with Workload.cycles = cyc })
          cyc
      in
      for i = 0 to st.Sim.State.nsig - 1 do
        if Bigarray.Array1.get st.Sim.State.sig_v i
           <> Bigarray.Array1.get want.Sim.State.sig_v i
        then
          Alcotest.failf "cycle %d: signal %d differs (%Ld vs %Ld)" cyc i
            (Bigarray.Array1.get st.Sim.State.sig_v i)
            (Bigarray.Array1.get want.Sim.State.sig_v i)
      done;
      for k = 0 to Bigarray.Array1.dim st.Sim.State.mem_v - 1 do
        if Bigarray.Array1.get st.Sim.State.mem_v k
           <> Bigarray.Array1.get want.Sim.State.mem_v k
        then Alcotest.failf "cycle %d: memory word %d differs" cyc k
      done)
    rebuilt.Sim.Goodtrace.snapshots;
  (* the rebuilt snapshot set is what the planner asked for *)
  let got = Array.map fst rebuilt.Sim.Goodtrace.snapshots in
  let want =
    Array.of_list
      (List.sort_uniq compare
         (cycles :: List.filter (fun x -> x >= 1 && x <= cycles) at))
  in
  Alcotest.(check (array int)) "snapshot cycles as requested" want got

let suite =
  [
    Alcotest.test_case
      "plan is a permutation partition (policies x granularities x cold/warm)"
      `Quick test_partition_property;
    Alcotest.test_case "cold fixed plan reproduces historical chunking"
      `Quick test_fixed_cold_reproduces_chunks;
    Alcotest.test_case "journaled plan resumes across jobs byte-identically"
      `Quick test_plan_resumes_across_jobs;
    Alcotest.test_case "halve / singletons / warm_for refinement invariants"
      `Quick test_refinement_invariants;
    Alcotest.test_case "warm fixed plan places its own snapshots" `Quick
      test_fixed_warm_places_snapshots;
    Alcotest.test_case "with_snapshots reconstructs exact engine states"
      `Quick test_with_snapshots_reconstructs_exact_states;
  ]
