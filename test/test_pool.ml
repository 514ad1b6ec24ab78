(* Work-stealing domain pool and fault-partition parallelism: submission
   ordering, exception propagation, discard-on-shutdown, per-partition RNG
   splitting, and the determinism guarantee — identical verdicts and
   byte-identical resilient reports for any --jobs. *)
open Faultsim
module H = Harness
module Pool = Harness.Pool

let check = Alcotest.check
let int_t = Alcotest.int

(* --- pool mechanics --- *)

let test_ordering () =
  (* Tasks only report their worker index: Alcotest's check is not
     domain-safe, so every assertion runs on the coordinator after await. *)
  let results =
    Pool.with_pool ~jobs:3 (fun pool ->
        let futures =
          List.init 50 (fun i ->
              Pool.submit pool (fun (ctx : Pool.ctx) ->
                  (* stagger completions so steal order differs from
                     submission order *)
                  if i mod 7 = 0 then Unix.sleepf 0.002;
                  (ctx.Pool.worker, i * i)))
        in
        List.map Pool.await futures)
  in
  List.iter
    (fun (worker, _) ->
      check Alcotest.bool "worker in range" true (worker >= 0 && worker < 3))
    results;
  check (Alcotest.list int_t) "futures keep submission order"
    (List.init 50 (fun i -> i * i))
    (List.map snd results)

let test_exception_propagation () =
  match
    Pool.with_pool ~jobs:2 (fun pool ->
        let ok = Pool.submit pool (fun _ -> 1) in
        let bad = Pool.submit pool (fun _ -> failwith "boom42") in
        let _ = Pool.await ok in
        Pool.await bad)
  with
  | _ -> Alcotest.fail "task exception was swallowed"
  | exception Failure m -> check Alcotest.string "original exception" "boom42" m

let test_discard_on_shutdown () =
  let started = Atomic.make false in
  let release = Atomic.make false in
  let pool = Pool.create ~jobs:1 () in
  let running =
    Pool.submit pool (fun _ ->
        Atomic.set started true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        42)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  (* the only worker is busy, so this stays queued *)
  let queued = Pool.submit pool (fun _ -> 7) in
  let closer = Domain.spawn (fun () -> Pool.shutdown ~discard:true pool) in
  (* the discard completes the queued future with Shutdown while the
     running task is still spinning — await must wake up, not hang *)
  (match Pool.await queued with
  | exception Pool.Shutdown -> ()
  | v -> Alcotest.failf "discarded task ran anyway (returned %d)" v);
  Atomic.set release true;
  Domain.join closer;
  check int_t "running task still completed" 42 (Pool.await running);
  match Pool.submit pool (fun _ -> 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "submit after shutdown accepted"

let test_cancel_completion_race () =
  (* Stress the cancel/worker-completion race: many short tasks, with the
     coordinator racing [cancel] against the workers finishing them. The
     future's state transition is atomic under its lock, so exactly one
     side wins: [cancel] returning true guarantees [await] raises
     [Shutdown], and returning false guarantees the task's own outcome is
     preserved. Nothing may hang either way. *)
  let rounds = 20 and per_round = 64 in
  for round = 0 to rounds - 1 do
    Pool.with_pool ~jobs:4 (fun pool ->
        let ran = Array.make per_round false in
        let futures =
          Array.init per_round (fun i ->
              Pool.submit pool (fun _ ->
                  if i land 3 = 0 then Domain.cpu_relax ();
                  ran.(i) <- true;
                  i))
        in
        let cancelled =
          (* vary the contention window across rounds *)
          Array.mapi
            (fun i fut ->
              if (i + round) land 1 = 0 then Pool.cancel fut else false)
            futures
        in
        Array.iteri
          (fun i fut ->
            match Pool.await_result fut with
            | Ok v ->
                check int_t "completed task kept its result" i v;
                if cancelled.(i) then
                  Alcotest.failf "task %d: cancel won but await returned Ok" i
            | Error (Pool.Shutdown, _) ->
                if not cancelled.(i) then
                  Alcotest.failf
                    "task %d: cancel lost but await raised Shutdown" i
            | Error (e, _) -> raise e)
          futures;
        (* a task whose cancel won before a worker claimed it never runs;
           one that lost must have run to completion *)
        Array.iteri
          (fun i c ->
            if (not c) && not ran.(i) then
              Alcotest.failf "task %d: not cancelled yet never ran" i)
          cancelled)
  done

(* --- Rng.split --- *)

let test_split_deterministic () =
  let a = Rng.create 99L and b = Rng.create 99L in
  let ca = Rng.split a 4 and cb = Rng.split b 4 in
  check int_t "family size" 4 (Array.length ca);
  check Alcotest.bool "parent advanced identically" true
    (Rng.seed a = Rng.seed b);
  Array.iteri
    (fun i c ->
      for k = 0 to 99 do
        if Rng.next c <> Rng.next cb.(i) then
          Alcotest.failf "child %d diverges at draw %d" i k
      done)
    ca;
  match Rng.split a (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative split accepted"

let test_split_statistics () =
  (* smoke test, not a PRNG certification: sibling streams must be
     pairwise distinct and individually roughly uniform *)
  let children = Rng.split (Rng.create 0xD15EA5EL) 8 in
  let firsts = Array.map Rng.next children in
  Array.iteri
    (fun i x ->
      Array.iteri
        (fun j y -> if i < j && x = y then Alcotest.fail "colliding siblings")
        firsts)
    firsts;
  Array.iter
    (fun c ->
      let buckets = Array.make 16 0 in
      let draws = 4096 in
      for _ = 1 to draws do
        let b = Rng.int c 16 in
        buckets.(b) <- buckets.(b) + 1
      done;
      let expected = draws / 16 in
      Array.iteri
        (fun b n ->
          (* ~3.9 sigma window around the expected 256 *)
          if n < expected - 60 || n > expected + 60 then
            Alcotest.failf "bucket %d has %d draws, expected ~%d" b n expected)
        buckets)
    children

(* --- parallel campaigns --- *)

let sample = lazy (H.Rand_design.generate ~seed:4242L ())

let render_report (s : H.Rand_design.t) (summary : H.Resilient.summary) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let verdicts = Classify.classify s.H.Rand_design.graph s.H.Rand_design.faults in
  H.Json_report.resilient ppf ~design:s.H.Rand_design.design ~engine:"Eraser"
    ~faults:s.H.Rand_design.faults ~verdicts summary;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_resilient_jobs_identical () =
  let s = Lazy.force sample in
  let report jobs =
    let config =
      { H.Resilient.default_config with H.Resilient.jobs; batch_size = 5 }
    in
    render_report s
      (H.Resilient.run ~config s.H.Rand_design.graph s.H.Rand_design.workload
         s.H.Rand_design.faults)
  in
  let r1 = report 1 in
  check Alcotest.string "jobs 2 report byte-identical to jobs 1" r1 (report 2);
  check Alcotest.string "jobs 4 report byte-identical to jobs 1" r1 (report 4)

let test_campaign_jobs_verdicts () =
  let s = Lazy.force sample in
  let g = s.H.Rand_design.graph
  and w = s.H.Rand_design.workload
  and faults = s.H.Rand_design.faults in
  let mono = H.Campaign.run H.Campaign.Eraser g w faults in
  let par =
    (H.Resilient.run
       ~config:
         { H.Resilient.default_config with H.Resilient.jobs = 3; batch_size = 5 }
       g w faults)
      .H.Resilient.result
  in
  check Alcotest.bool "verdicts match the monolithic run" true
    (Fault.same_verdict mono par);
  check
    (Alcotest.array int_t)
    "detection cycles match" mono.Fault.detection_cycle
    par.Fault.detection_cycle

let test_campaign_jobs_per_proc () =
  (* regression for the parallel stats merge: the per-process table counts
     fault-network work only, so it is a pure function of the fault list
     and its batches — it must come out identical whatever the worker
     count (it used to be one concatenated copy per worker) *)
  let s = Lazy.force sample in
  let g = s.H.Rand_design.graph
  and w = s.H.Rand_design.workload
  and faults = s.H.Rand_design.faults in
  let per_proc jobs =
    let summary =
      H.Resilient.run
        ~config:{ H.Resilient.default_config with H.Resilient.jobs; batch_size = 5 }
        g w faults
    in
    Array.to_list summary.H.Resilient.result.Fault.stats.Stats.per_proc
    |> List.map (fun (row : Stats.proc_row) ->
           Printf.sprintf "%s exec=%d impl=%d expl=%d" row.Stats.pr_name
             row.pr_exec row.pr_impl row.pr_expl)
  in
  let p1 = per_proc 1 in
  check Alcotest.bool "non-trivial table" true (p1 <> []);
  check
    (Alcotest.list Alcotest.string)
    "jobs 4 per-proc table identical to jobs 1" p1 (per_proc 4)

let test_parallel_watchdog () =
  let s = Lazy.force sample in
  let config =
    {
      H.Resilient.default_config with
      H.Resilient.jobs = 2;
      batch_size = 8;
      max_batch_seconds = Some 0.0;
      max_retries = 99;
    }
  in
  (match
     H.Resilient.run ~config s.H.Rand_design.graph s.H.Rand_design.workload
       s.H.Rand_design.faults
   with
  | _ -> Alcotest.fail "zero budget did not trip the watchdog"
  | exception H.Resilient.Campaign_error (H.Resilient.Batch_timeout t) ->
      (* with unlimited retries the batch was split down to one fault *)
      check int_t "timeout reported on a single fault" 1 (Array.length t.ids)
  | exception e -> raise e);
  (* the pool shut down cleanly: the same campaign still runs afterwards *)
  let ok =
    H.Resilient.run
      ~config:
        { H.Resilient.default_config with H.Resilient.jobs = 2; batch_size = 8 }
      s.H.Rand_design.graph s.H.Rand_design.workload s.H.Rand_design.faults
  in
  check Alcotest.bool "campaign after aborted campaign" true
    (ok.H.Resilient.batches_total > 0)

let test_jobs_validation () =
  let s = Lazy.force sample in
  match
    H.Resilient.run
      ~config:{ H.Resilient.default_config with H.Resilient.jobs = 0 }
      s.H.Rand_design.graph s.H.Rand_design.workload s.H.Rand_design.faults
  with
  | _ -> Alcotest.fail "jobs = 0 accepted"
  | exception H.Resilient.Campaign_error (H.Resilient.Bad_workload _) -> ()

let suite =
  [
    Alcotest.test_case "futures keep submission order" `Quick test_ordering;
    Alcotest.test_case "exceptions propagate" `Quick test_exception_propagation;
    Alcotest.test_case "discard on shutdown" `Quick test_discard_on_shutdown;
    Alcotest.test_case "cancel vs completion race" `Quick
      test_cancel_completion_race;
    Alcotest.test_case "Rng.split is deterministic" `Quick
      test_split_deterministic;
    Alcotest.test_case "Rng.split streams look independent" `Quick
      test_split_statistics;
    Alcotest.test_case "resilient reports byte-identical across jobs" `Quick
      test_resilient_jobs_identical;
    Alcotest.test_case "partitioned campaign verdicts" `Quick
      test_campaign_jobs_verdicts;
    Alcotest.test_case "per-proc table independent of jobs" `Quick
      test_campaign_jobs_per_proc;
    Alcotest.test_case "watchdog aborts a parallel campaign cleanly" `Quick
      test_parallel_watchdog;
    Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
  ]
