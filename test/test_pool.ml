(* FIFO domain pool and fault-partition parallelism: submission and start
   ordering, exception propagation, discard-on-shutdown, Rng.split streams,
   and the determinism guarantee — identical verdicts and byte-identical
   resilient reports for any --jobs. *)
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
              Pool.submit pool (fun worker ->
                  (* stagger completions so completion order differs from
                     submission order *)
                  if i mod 7 = 0 then Unix.sleepf 0.002;
                  (worker, i * i)))
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

(* Block the only worker of a [jobs:1] pool: returns the running task's
   future once it has started, and the flag that lets it return 42. *)
let occupy pool =
  let started = Atomic.make false in
  let release = Atomic.make false in
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
  (running, release)

let test_discard_on_shutdown () =
  let closed = ref None and running = ref None and waiter = ref None in
  (match
     Pool.with_pool ~jobs:1 (fun pool ->
         closed := Some pool;
         let fut, release = occupy pool in
         running := Some fut;
         (* the only worker is busy, so this stays queued *)
         let queued = Pool.submit pool (fun _ -> 7) in
         (* the discard must complete the queued future while the running
            task still spins: only then is it released, so a discard that
            waited for the running task would hang here *)
         waiter :=
           Some
             (Domain.spawn (fun () ->
                  let r = Pool.await_result queued in
                  Atomic.set release true;
                  r));
         raise Exit)
   with
  | () -> Alcotest.fail "with_pool swallowed the exception"
  | exception Exit -> ());
  (match Domain.join (Option.get !waiter) with
  | Error (Pool.Shutdown, _) -> ()
  | Error (e, _) -> raise e
  | Ok v -> Alcotest.failf "discarded task ran anyway (returned %d)" v);
  check int_t "running task still completed" 42
    (Pool.await (Option.get !running));
  match Pool.submit (Option.get !closed) (fun _ -> 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "submit after shutdown accepted"

(* One worker, busy: tasks queued behind it start in submission order, so a
   caller that submits its costliest batch first has it started first. *)
let test_start_order () =
  let order =
    Pool.with_pool ~jobs:1 (fun pool ->
        let running, release = occupy pool in
        let seen = Atomic.make [] in
        let rec record i =
          let l = Atomic.get seen in
          if not (Atomic.compare_and_set seen l (i :: l)) then record i
        in
        let futures =
          List.init 8 (fun i -> Pool.submit pool (fun _ -> record (i + 1)))
        in
        Atomic.set release true;
        ignore (Pool.await running);
        List.iter Pool.await futures;
        List.rev (Atomic.get seen))
  in
  check (Alcotest.list int_t) "tasks start in submission order"
    [ 1; 2; 3; 4; 5; 6; 7; 8 ] order

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
    Alcotest.test_case "tasks start in submission order" `Quick
      test_start_order;
  ]
