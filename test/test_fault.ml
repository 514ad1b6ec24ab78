(* Fault model, workload protocol and result helpers. *)
open Rtlir
open Faultsim

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let small_design () =
  let module B = Builder in
  let ctx = B.create "tiny" in
  let _clk = B.input ctx "clk" 1 in
  let a = B.input ctx "a" 3 in
  let w = B.wire ctx "w" 3 in
  B.assign ctx w a;
  let o = B.output ctx "o" 3 in
  B.assign ctx o w;
  B.finalize ctx

let test_generate_all () =
  let d = small_design () in
  let faults = Fault.generate ~seed:1L d in
  (* clk(1) + a(3) + w(3) + o(3) bits, SA0 and SA1 each *)
  check int_t "site count" 20 (Array.length faults);
  Array.iteri
    (fun i (f : Fault.t) -> check int_t "dense ids" i f.fid)
    faults;
  let no_inputs = Fault.generate ~include_inputs:false ~seed:1L d in
  check int_t "without inputs" 12 (Array.length no_inputs)

let test_generate_sampled () =
  let d = small_design () in
  let f1 = Fault.generate ~max_faults:7 ~seed:42L d in
  let f2 = Fault.generate ~max_faults:7 ~seed:42L d in
  let f3 = Fault.generate ~max_faults:7 ~seed:43L d in
  check int_t "sampled size" 7 (Array.length f1);
  check bool_t "deterministic" true (f1 = f2);
  check bool_t "seed dependent" true (f1 <> f3)

let test_force () =
  let f = { Fault.fid = 0; signal = 0; bit = 2; stuck = Fault.Stuck_at_1 } in
  check Alcotest.int64 "forces bit" 0b100L
    (Bits.to_int64 (Fault.force f (Bits.make 4 0L)));
  let f0 = { f with stuck = Fault.Stuck_at_0 } in
  check Alcotest.int64 "clears bit" 0b1011L
    (Bits.to_int64 (Fault.force f0 (Bits.make 4 0b1111L)))

let test_result_helpers () =
  let stats = Stats.create () in
  let r =
    Fault.make_result
      ~detected:[| true; false; true; true |]
      ~detection_cycle:[| 3; -1; 5; 10 |]
      ~stats ~wall_time:1.0 ()
  in
  check int_t "count" 3 (Fault.count_detected r);
  check (Alcotest.float 0.01) "coverage" 75.0 r.Fault.coverage_pct;
  let r2 =
    Fault.make_result
      ~detected:[| true; false; true; false |]
      ~stats ~wall_time:2.0 ()
  in
  check bool_t "same_verdict self" true (Fault.same_verdict r r);
  check bool_t "same_verdict differs" false (Fault.same_verdict r r2);
  check (Alcotest.float 0.01) "mean latency" 6.0
    (Fault.mean_detection_latency r)

(* The verdict contract covers detection cycles: the same detected set
   with one detection at a different cycle is a different verdict, while
   the cycles of undetected faults do not take part. *)
let test_same_verdict_cycles () =
  let stats = Stats.create () in
  let result detection_cycle =
    Fault.make_result ~detected:[| true; false; true |] ~detection_cycle
      ~stats ~wall_time:0.0 ()
  in
  let r = result [| 3; -1; 5 |] in
  check bool_t "same cycles" true (Fault.same_verdict r (result [| 3; -1; 5 |]));
  check bool_t "one detection later" false
    (Fault.same_verdict r (result [| 3; -1; 6 |]));
  check bool_t "undetected cycle ignored" true
    (Fault.same_verdict r (result [| 3; 7; 5 |]))

let test_stats_accounting () =
  let s = Stats.create () in
  s.Stats.bn_fault_exec <- 10;
  s.Stats.bn_skipped_explicit <- 60;
  s.Stats.bn_skipped_implicit <- 30;
  check int_t "total" 100 (Stats.total_bn_executions s);
  check int_t "eliminated" 90 (Stats.eliminated s);
  check (Alcotest.float 0.01) "explicit pct" 60.0 (Stats.explicit_pct s);
  check (Alcotest.float 0.01) "implicit pct" 30.0 (Stats.implicit_pct s)

let row name exec impl expl =
  { Stats.pr_name = name; pr_exec = exec; pr_impl = impl; pr_expl = expl }

let rows_t =
  Alcotest.testable
    (fun ppf (r : Stats.proc_row) ->
      Format.fprintf ppf "%s:%d/%d/%d" r.Stats.pr_name r.pr_exec r.pr_impl
        r.pr_expl)
    ( = )

let test_stats_add_merges_per_proc () =
  (* the parallel merge must sum per-process rows by name, not append the
     tables (the old behaviour duplicated every process once per worker) *)
  let a = Stats.create () and b = Stats.create () in
  a.Stats.per_proc <- [| row "alu" 10 1 2; row "ctl" 3 0 0 |];
  b.Stats.per_proc <- [| row "alu" 5 1 0; row "ctl" 1 2 3 |];
  check (Alcotest.array rows_t) "same-order tables sum row by row"
    [| row "alu" 15 2 2; row "ctl" 4 2 3 |]
    (Stats.add a b).Stats.per_proc;
  (* keyed merge when the tables disagree on order or membership *)
  let c = Stats.create () and d = Stats.create () in
  c.Stats.per_proc <- [| row "alu" 1 0 0; row "ctl" 2 0 0 |];
  d.Stats.per_proc <- [| row "ctl" 10 0 0; row "mem" 4 0 0 |];
  check (Alcotest.array rows_t) "keyed merge keeps first-occurrence order"
    [| row "alu" 1 0 0; row "ctl" 12 0 0; row "mem" 4 0 0 |]
    (Stats.add c d).Stats.per_proc;
  (* merging from an empty accumulator copies, never aliases *)
  let e = Stats.add (Stats.create ()) d in
  d.Stats.per_proc.(0).Stats.pr_exec <- 999;
  check int_t "copied row unaffected by source mutation" 10
    e.Stats.per_proc.(0).Stats.pr_exec

let test_stats_add_time_semantics () =
  (* workers contribute CPU seconds (summed); the coordinator owns the wall
     clock (max, then overwritten) — summing wall times across workers was
     inflating the bn_time_pct denominator by the worker count *)
  let a = Stats.create () and b = Stats.create () in
  a.Stats.total_seconds <- 2.0;
  a.Stats.cpu_seconds <- 2.0;
  a.Stats.bn_seconds <- 1.0;
  b.Stats.total_seconds <- 3.0;
  b.Stats.cpu_seconds <- 3.0;
  b.Stats.bn_seconds <- 2.0;
  let m = Stats.add a b in
  check (Alcotest.float 1e-9) "cpu seconds sum" 5.0 m.Stats.cpu_seconds;
  check (Alcotest.float 1e-9) "wall time is the max, not the sum" 3.0
    m.Stats.total_seconds;
  check (Alcotest.float 1e-9) "bn seconds sum" 3.0 m.Stats.bn_seconds;
  (* pct uses the aggregate CPU denominator, so it stays a fraction of the
     work actually done rather than drifting with the worker count *)
  check (Alcotest.float 0.01) "bn time pct" 60.0 (Stats.bn_time_pct m)

let test_workload_protocol () =
  (* the protocol applies inputs, raises the clock, lowers it, observes *)
  let log = ref [] in
  let w =
    {
      Workload.cycles = 3;
      clock = 99;
      drive = (fun c -> [ (1, Bits.of_int 4 c) ]);
    }
  in
  Workload.run w
    ~set_input:(fun id v ->
      log := Printf.sprintf "set %d=%Ld" id (Bits.to_int64 v) :: !log)
    ~step:(fun () -> log := "step" :: !log)
    ~observe:(fun c ->
      log := Printf.sprintf "obs %d" c :: !log;
      c < 1);
  let got = List.rev !log in
  check (Alcotest.list Alcotest.string) "protocol"
    [
      "set 1=0"; "set 99=1"; "step"; "set 99=0"; "step"; "obs 0";
      "set 1=1"; "set 99=1"; "step"; "set 99=0"; "step"; "obs 1";
    ]
    got

let test_random_drive_deterministic () =
  let drive = Workload.random_drive ~seed:5L ~inputs:[ (0, 8); (1, 16) ] () in
  check bool_t "pure function of cycle" true (drive 3 = drive 3);
  check bool_t "varies by cycle" true (drive 3 <> drive 4);
  let directed = [| [ (0, Bits.make 8 7L) ] |] in
  let drive2 =
    Workload.random_drive ~seed:5L ~inputs:[ (0, 8) ] ~directed ()
  in
  check bool_t "directed prefix" true (drive2 0 = [ (0, Bits.make 8 7L) ])

let suite =
  [
    Alcotest.test_case "generate all sites" `Quick test_generate_all;
    Alcotest.test_case "generate sampled" `Quick test_generate_sampled;
    Alcotest.test_case "force" `Quick test_force;
    Alcotest.test_case "result helpers" `Quick test_result_helpers;
    Alcotest.test_case "same_verdict compares detection cycles" `Quick
      test_same_verdict_cycles;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "stats merge keys per_proc by name" `Quick
      test_stats_add_merges_per_proc;
    Alcotest.test_case "stats merge time semantics" `Quick
      test_stats_add_time_semantics;
    Alcotest.test_case "workload protocol" `Quick test_workload_protocol;
    Alcotest.test_case "random drive deterministic" `Quick
      test_random_drive_deterministic;
  ]
