(* The campaign benchmark. One process per run:

     perfbench oracle  --workload W --seed N          fill the oracle cache
     perfbench measure --workload W --seed N --seconds S --trace 0|1
     perfbench calls   --workload W --seed N --seconds S  one part of --trace 0
     perfbench selftest BENCHMARK.json                 tiny end-to-end check

   [measure --trace 0] repeats the workload's campaign entry call for S
   seconds, split over fresh [calls] processes, and prints the end-to-end
   metrics; [--trace 1] prints the
   per-layer metrics of a traced pass. The last stdout line is the result
   object; the line before it holds diagnostics (host-speed probe, sample
   counts) that are not metrics. See README.md. *)

module J = Harness.Jsonl
module W = Workloads

let now = Unix.gettimeofday

let median l =
  match List.sort compare l with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Process high-water RSS. The capture, snapshots and diff stores live in
   Bigarrays outside the OCaml heap, so [Gc] statistics would miss them. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> Float.nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* The lower decile: the speed a call reaches outside the host's slow
   windows (see README.md). *)
let decile l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.((Array.length a - 1) / 10)

(* Host-speed probe: a fixed allocation-heavy kernel (short-lived lists of
   boxed floats, like the engines' own garbage), timed before and after
   every campaign call. A diagnostic beside the run, not a metric: it
   tells a slow host window from a regression. *)
let probe () =
  let t0 = now () in
  let l = ref [] in
  for k = 1 to 1_000_000 do
    l := (k, float_of_int k) :: !l;
    if k land 1023 = 0 then l := []
  done;
  ignore (Sys.opaque_identity !l);
  now () -. t0

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : int;
  mutable tiny : bool;  (** self-test sizes, oracle computed in memory *)
  mutable dir : string;  (** benchmark directory, relative to the cwd *)
}

(* ---- timed campaign calls ---- *)

type sample = {
  wall : float;
  cpu : float;
  probe_before : float;
  probe_after : float;
  setup : float;
}

type timed = {
  samples : sample list;
  attempted : int;
  failed : int;
  last : W.entry option;  (** the last successful call *)
}

let journal_path o spec =
  Filename.concat (Filename.concat o.dir "out")
    (Printf.sprintf "journal-%s-%d.jsonl" spec.W.name (Unix.getpid ()))

(* Repeat [setup; probe; entry call; probe] until [seconds] have passed
   and at least [min_reps] calls were made. Each call's verdicts are scored
   against the oracle; a call that raises counts all its faults as
   errors. Setup is re-run before every call, so its samples spread over
   the run like the calls do. *)
let timed_loop o spec ~oracle ~seconds ~min_reps =
  let journal = journal_path o spec in
  let stop = now () +. seconds in
  let rec go acc attempted failed last reps =
    if reps >= min_reps && now () >= stop then
      { samples = List.rev acc; attempted; failed; last }
    else begin
      let t0 = now () in
      let i = W.setup spec ~seed:o.seed in
      let setup = now () -. t0 in
      let n = Array.length i.W.faults in
      Gc.full_major ();
      let probe_before = probe () in
      let c0 = Sys.time () in
      let t0 = now () in
      let outcome = try Ok (W.run_entry spec ~journal i) with e -> Error e in
      let wall = now () -. t0 in
      let cpu = Sys.time () -. c0 in
      let probe_after = probe () in
      if Sys.file_exists journal then Sys.remove journal;
      match outcome with
      | Ok e ->
          let r = e.W.result in
          let bad =
            Oracle.errors oracle ~detected:r.Faultsim.Fault.detected
              ~cycle:r.Faultsim.Fault.detection_cycle
          in
          go ({ wall; cpu; probe_before; probe_after; setup } :: acc)
            (attempted + n) (failed + bad) (Some e) (reps + 1)
      | Error ex ->
          prerr_endline ("perfbench: campaign raised " ^ Printexc.to_string ex);
          go acc (attempted + n) (failed + n) last (reps + 1)
    end
  in
  go [] 0 0 None 0

(* ---- output ---- *)

let num v = if Float.is_integer v && Float.abs v < 1e15 then J.Int (int_of_float v) else J.Float v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        if not (Float.is_finite v) then failwith ("metric not finite: " ^ name);
        (name, J.Obj [ ("value", num v); ("unit", J.String unit) ]))
      metrics
  in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct); ("attempted", J.Int attempted);
            ("failed", J.Int failed); ("metrics", J.Obj m) ]))

(* ---- oracle ---- *)

let oracle_for o spec (i : W.inputs) ~compute =
  if o.tiny then Some (Oracle.compute i)
  else
    let fp = Oracle.fingerprint spec ~seed:o.seed i in
    let file = Oracle.path ~dir:(Filename.concat o.dir "oracle") spec ~seed:o.seed in
    match Oracle.load file ~fp with
    | Some v -> Some v
    | None when compute ->
        let v = Oracle.compute i in
        Oracle.save file ~fp v;
        Some v
    | None -> None

let spec_of o =
  match W.find o.workload with
  | Some s -> if o.tiny then W.tiny s else s
  | None -> failwith ("unknown workload " ^ o.workload)

(* ---- end-to-end pass (--trace 0) ---- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  diagnostics : (string * J.t) list;
}

let walls t = List.map (fun s -> s.wall) t.samples
let cpus t = List.map (fun s -> s.cpu) t.samples

let probe_diag t =
  let walls = walls t in
  let probes = List.concat_map (fun s -> [ s.probe_before; s.probe_after ]) t.samples in
  let norm = List.map (fun s -> s.wall /. ((s.probe_before +. s.probe_after) /. 2.0)) t.samples in
  [ ("calls", J.Int (List.length t.samples));
    ("wall_s_min", J.Float (List.fold_left min infinity walls));
    ("wall_s_median", J.Float (median walls));
    ("wall_s_max", J.Float (List.fold_left max 0.0 walls));
    ("probe_s_min", J.Float (List.fold_left min infinity probes));
    ("probe_s_median", J.Float (median probes));
    ("probe_s_max", J.Float (List.fold_left max 0.0 probes));
    ("wall_per_probe_decile", J.Float (decile norm));
    ("wall_per_probe_median", J.Float (median norm)) ]

let min_calls = 10

(* The end-to-end pass splits its time over [parts] fresh processes, run
   one after another: some processes run every call slower than the rest
   (see README.md), and pooling their calls lets the lower decile come from
   the others. *)
let parts = 3

let sample_to_json s =
  J.List (List.map (fun v -> J.Float v) [ s.wall; s.cpu; s.probe_before; s.probe_after; s.setup ])

let sample_of_json = function
  | J.List l -> (
      match List.map (function J.Float v -> v | J.Int v -> float_of_int v | _ -> Float.nan) l with
      | [ wall; cpu; probe_before; probe_after; setup ] ->
          { wall; cpu; probe_before; probe_after; setup }
      | _ -> failwith "malformed sample")
  | _ -> failwith "malformed sample"

(* One part (the [calls] command): the timed loop, printed as JSON. *)
let calls_cmd o spec ~oracle =
  let t = timed_loop o spec ~oracle ~seconds:o.seconds ~min_reps:((min_calls + parts - 1) / parts) in
  print_endline
    (J.to_string
       (J.Obj
          [ ("samples", J.List (List.map sample_to_json t.samples));
            ("attempted", J.Int t.attempted); ("failed", J.Int t.failed);
            ("peak_rss_mb", J.Float (peak_rss_mb ())) ]))

let run_part o =
  let args =
    [ Sys.executable_name; "calls"; "--workload"; o.workload; "--seed";
      string_of_int o.seed; "--seconds";
      Printf.sprintf "%.17g" (o.seconds /. float_of_int parts); "--dir"; o.dir ]
    @ if o.tiny then [ "--tiny" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> J.parse (List.hd (List.rev (String.split_on_char '\n' (String.trim out))))
  | _ -> failwith "a measuring process failed"

let end_to_end o ~n =
  let runs = List.init parts (fun _ -> run_part o) in
  let sum key = List.fold_left (fun acc r -> acc + J.get_int key r) 0 runs in
  let t =
    { samples = List.concat_map (fun r -> List.map sample_of_json (J.get_list "samples" r)) runs;
      attempted = sum "attempted"; failed = sum "failed"; last = None }
  in
  if t.samples = [] then failwith "every campaign call raised";
  let wall = decile (walls t) in
  let error_rate = float_of_int t.failed /. float_of_int t.attempted in
  { correct = t.failed = 0; attempted = t.attempted; failed = t.failed;
    metrics =
      [ ("wall_s", wall, "s");
        ("faults_per_s", float_of_int n /. wall, "faults/s");
        ("cpu_s", decile (cpus t), "s");
        ("setup_s", decile (List.map (fun s -> s.setup) t.samples), "s");
        ("peak_rss_mb",
         List.fold_left (fun acc r -> Float.max acc (J.get_float "peak_rss_mb" r)) 0.0 runs, "MB");
        ("verdict_accuracy", 1.0 -. error_rate, "fraction") ];
    diagnostics =
      ("verdict_error_rate", J.Float error_rate)
      :: ("part_wall_deciles",
          J.List (List.map (fun r ->
              J.Float (decile (List.map (fun s -> (sample_of_json s).wall) (J.get_list "samples" r))))
            runs))
      :: probe_diag t }

(* ---- per-layer pass (--trace 1) ---- *)

(* Run [f] with tracing on; return its value, the Chrome document, and the
   number of events recorded. [capacity] is the ring size per domain: the
   run fails rather than report a wrapped (truncated) trace. *)
let traced ~capacity f =
  Obs.Trace.enable ~capacity ();
  let v = Fun.protect ~finally:Obs.Trace.disable f in
  let count = Obs.Trace.event_count () in
  if count >= capacity then
    failwith (Printf.sprintf "trace ring full (%d events): raise the capacity" count);
  (v, Obs.Trace.to_chrome_string (), count)

let save_artifact o spec suffix doc =
  let file =
    Filename.concat (Filename.concat o.dir "out")
      (Printf.sprintf "%s-%s.trace.json" spec.W.name suffix)
  in
  Out_channel.with_open_bin file (fun oc -> output_string oc doc);
  file

(* Value at the highest percentile with at least ten samples beyond it,
   and that percentile; the maximum (100) when that percentile would not
   lie above the median (20 samples or fewer). *)
let tail xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n > 20 then (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)
  else (a.(n - 1), 100.0)

let layers o spec ~oracle ~n =
  let open Faultsim in
  let base = timed_loop o spec ~oracle ~seconds:(o.seconds /. 2.0) ~min_reps:min_calls in
  let timed_r =
    match base.last with
    | Some e -> e.W.result
    | None -> failwith "every campaign call raised"
  in
  let wall0 = decile (walls base) and cpu0 = decile (cpus base) in
  let cap = spec.W.trace_capacity in
  (* the entry call itself, traced: overhead, runner and pool figures *)
  let i = W.setup spec ~seed:o.seed in
  let journal = journal_path o spec in
  let (entry, wall_traced), doc, entry_events =
    traced ~capacity:cap (fun () ->
        let t0 = now () in
        let e = W.run_entry spec ~journal i in
        (e, now () -. t0))
  in
  if Sys.file_exists journal then Sys.remove journal;
  let entry_file = save_artifact o spec "entry" doc in
  let evs = Chrome.events doc in
  let batch_span = match spec.W.kind with W.Cold -> "fault_sim_run" | W.Warm_resilient _ -> "batch" in
  let in_batches = Chrome.covered evs batch_span in
  let pool_idle = Chrome.last_counter evs "pool.worker_idle_s" in
  let pool_steals = Chrome.last_counter evs "pool.worker_steals" in
  (* the pipeline replayed one public call at a time *)
  let (setups, r), doc, replay_events =
    traced ~capacity:cap (fun () ->
        let setups =
          List.init 3 (fun _ ->
              let tm = ref [] in
              let phase name f =
                let t0 = now () in
                let v = Obs.Trace.with_span name f in
                tm := (name, now () -. t0) :: !tm;
                v
              in
              let d, _ = phase "rtlir.elaborate_s" (fun () -> W.elaborate spec) in
              ignore (phase "fault.generate_s" (fun () -> W.generate spec ~seed:o.seed d));
              !tm)
        in
        (setups, W.replay spec i))
  in
  let replay_file = save_artifact o spec "replay" doc in
  let self = Chrome.self_times (Chrome.events doc) in
  let setup_s name = median (List.map (List.assoc name) setups) in
  let get name = List.assoc name r.W.times in
  let st = r.W.stats in
  let exec_s = get "core.exec_s" in
  let expl = st.Stats.bn_skipped_explicit and impl = st.Stats.bn_skipped_implicit in
  let execd = st.Stats.bn_fault_exec in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let p50 = median (Array.to_list r.W.batch_s) in
  let tail_s, tail_pct = tail r.W.batch_s in
  let cycles = i.W.w.Workload.cycles in
  let replay_cycles =
    Array.fold_left
      (fun acc b -> acc + cycles - b.Harness.Schedule.sb_start)
      0 r.W.plan.Harness.Schedule.sp_batches
  in
  let replay_errors = Oracle.errors oracle ~detected:r.W.detected ~cycle:r.W.cycle in
  let entry_errors =
    Oracle.errors oracle ~detected:entry.W.result.Fault.detected
      ~cycle:entry.W.result.Fault.detection_cycle
  in
  let replay_matches =
    r.W.detected = timed_r.Fault.detected && r.W.cycle = timed_r.Fault.detection_cycle
  in
  let failed = base.failed + entry_errors + replay_errors in
  let jobs = float_of_int (W.jobs spec) in
  let c = float_of_int in
  { correct = failed = 0 && replay_matches;
    attempted = base.attempted + (2 * n);
    failed;
    metrics =
      [ ("rtlir.elaborate_s", setup_s "rtlir.elaborate_s", "s");
        ("fault.generate_s", setup_s "fault.generate_s", "s");
        ("core.compile_s", get "core.compile_s", "s");
        ("core.capture_s", get "core.capture_s", "s");
        ("sim.capture_mb",
         (match r.W.trace with
          | Some t -> c t.Sim.Goodtrace.capture_bytes /. 1048576.0
          | None -> 0.0), "MB");
        ("sim.snapshots",
         (match r.W.trace with
          | Some t -> c (Array.length t.Sim.Goodtrace.snapshots)
          | None -> 0.0), "count");
        ("cfg.cone_s", get "cfg.cone_s", "s");
        ("cfg.pruned", c r.W.pruned, "count");
        ("harness.plan_s", get "harness.plan_s", "s");
        ("harness.plan_batches", c (Array.length r.W.plan.Harness.Schedule.sp_batches), "count");
        ("harness.plan_snapshots",
         (match r.W.plan.Harness.Schedule.sp_trace with
          | Some t -> c (Array.length t.Sim.Goodtrace.snapshots)
          | None -> 0.0), "count");
        ("core.exec_s", exec_s, "s");
        ("core.batch_s.p50", p50, "s");
        ("core.batch_s.tail", tail_s, "s");
        ("core.batch_s.tail_pct", tail_pct, "%");
        ("core.batch_count", c (Array.length r.W.batch_s), "count");
        ("core.replay_cycles", c replay_cycles, "cycles");
        ("core.good_cycles_skipped", c st.Stats.good_cycles_skipped, "cycles");
        ("core.bn_s", st.Stats.bn_seconds, "s");
        ("core.bn_share", st.Stats.bn_seconds /. exec_s, "fraction");
        ("core.bn_exec", c execd, "count");
        ("core.bn_good", c st.Stats.bn_good, "count");
        ("core.bn_skip_explicit", c expl, "count");
        ("core.bn_skip_implicit", c impl, "count");
        ("core.bn_elim_ratio", ratio (expl + impl) (execd + expl + impl), "fraction");
        ("cfg.vdg_hit_ratio", ratio impl (impl + execd), "fraction");
        ("core.rtl_s", exec_s -. st.Stats.bn_seconds, "s");
        ("core.rtl_fault_eval", c st.Stats.rtl_fault_eval, "count");
        ("core.rtl_good_eval", c st.Stats.rtl_good_eval, "count");
        ("harness.runner_s",
         wall_traced -. in_batches -. get "core.capture_s" -. get "cfg.cone_s"
         -. get "harness.plan_s", "s");
        ("harness.journal_kb", c entry.W.journal_bytes /. 1024.0, "KB");
        ("harness.retries", c entry.W.retries, "count");
        ("harness.pool_idle_s", pool_idle, "s");
        ("harness.pool_steals", pool_steals, "count");
        ("harness.pool_efficiency", cpu0 /. (jobs *. wall0), "fraction");
        ("obs.trace_overhead", (wall_traced /. wall0) -. 1.0, "fraction");
        ("verdict_error_rate", c replay_errors /. c n, "fraction") ];
    diagnostics =
      [ ("untraced_wall_s", J.Float wall0);
        ("traced_wall_s", J.Float wall_traced);
        ("trace_capacity", J.Int cap);
        ("entry_events", J.Int entry_events);
        ("replay_events", J.Int replay_events);
        ("entry_trace", J.String entry_file);
        ("replay_trace", J.String replay_file);
        ("replay_matches_timed", J.Bool replay_matches);
        ("self_s",
         J.Obj (List.map (fun (name, s, k) ->
                    (name, J.Obj [ ("self_s", J.Float s); ("count", J.Int k) ])) self)) ]
      @ probe_diag base }

(* ---- commands ---- *)

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* Set up once, load the oracle (exit 2 when it is not cached) and run [f]. *)
let with_oracle o f =
  let spec = spec_of o in
  let i = W.setup spec ~seed:o.seed in
  match oracle_for o spec i ~compute:false with
  | None ->
      Printf.eprintf "perfbench: no oracle cached for %s seed %d; run `perfbench oracle` first\n"
        spec.W.name o.seed;
      exit 2
  | Some oracle ->
      ensure_dir (Filename.concat o.dir "out");
      f spec ~oracle ~n:(Array.length i.W.faults)

let measure o =
  with_oracle o (fun spec ~oracle ~n ->
      if o.trace = 1 then layers o spec ~oracle ~n else end_to_end o ~n)

let report out =
  print_endline (J.to_string (J.Obj [ ("diagnostics", J.Obj out.diagnostics) ]));
  print_result ~correct:out.correct ~attempted:out.attempted ~failed:out.failed
    out.metrics

let oracle_cmd o =
  let spec = spec_of o in
  let i = W.setup spec ~seed:o.seed in
  let t0 = now () in
  ensure_dir (Filename.concat o.dir "oracle");
  ignore (oracle_for o spec i ~compute:true);
  Printf.eprintf "perfbench: oracle for %s seed %d ready (%.1f s)\n%!" spec.W.name
    o.seed (now () -. t0)

(* Every workload end to end at tiny size, both passes: all metrics named
   in BENCHMARK.json are printed with their units, every verdict matches
   the oracle, and the traced replay's verdicts equal the timed ones. *)
let selftest o bench_file =
  let bench = J.parse (In_channel.with_open_bin bench_file In_channel.input_all) in
  let declared key =
    List.map
      (fun m -> (J.get_string "name" m, J.get_string "unit" m))
      (J.get_list key bench)
  in
  ensure_dir (Filename.concat o.dir "out");
  let failures = ref 0 in
  let check cond what =
    if not cond then begin
      incr failures;
      Printf.printf "FAIL %s\n" what
    end
  in
  List.iter
    (fun wl ->
      let name = J.get_string "name" wl in
      List.iter
        (fun trace ->
          let o = { o with workload = name; trace; tiny = true; seconds = 0.0 } in
          let out = measure o in
          let where = Printf.sprintf "%s --trace %d" name trace in
          check out.correct (where ^ ": incorrect");
          check (out.failed = 0) (where ^ ": failed verdicts");
          let want = declared (if trace = 0 then "end_to_end" else "per_layer") in
          let got = List.map (fun (n, _, u) -> (n, u)) out.metrics in
          check (List.sort compare want = List.sort compare got)
            (where ^ ": metrics differ from BENCHMARK.json");
          (match List.find_opt (fun (n, _, _) -> n = "verdict_error_rate") out.metrics with
          | Some (_, v, _) -> check (v = 0.0) (where ^ ": verdict_error_rate > 0")
          | None -> ());
          (match List.assoc_opt "replay_matches_timed" out.diagnostics with
          | Some b -> check (b = J.Bool true) (where ^ ": replay verdicts differ")
          | None -> check (trace = 0) (where ^ ": no replay check"));
          Printf.printf "ok %s (%d metrics)\n%!" where (List.length got))
        [ 0; 1 ])
    (J.get_list "workloads" bench);
  if !failures > 0 then exit 1

let () =
  let o = { workload = ""; seed = 1; seconds = 10.0; trace = 0; tiny = false;
            dir = "perfbench" } in
  let usage = "perfbench (oracle|measure|selftest BENCHMARK.json) [options]" in
  let cmd = ref [] in
  let spec =
    [ ("--workload", Arg.String (fun s -> o.workload <- s), "NAME workload");
      ("--seed", Arg.Int (fun n -> o.seed <- n), "N input seed (default 1)");
      ("--seconds", Arg.Float (fun s -> o.seconds <- s), "S measuring time");
      ("--trace", Arg.Int (fun t -> o.trace <- t), "0|1 end-to-end or per-layer pass");
      ("--dir", Arg.String (fun d -> o.dir <- d), "DIR benchmark directory");
      ("--tiny", Arg.Unit (fun () -> o.tiny <- true), " self-test sizes") ]
  in
  Arg.parse spec (fun a -> cmd := !cmd @ [ a ]) usage;
  match !cmd with
  | [ "oracle" ] -> oracle_cmd o
  | [ "measure" ] when o.trace = 0 || o.trace = 1 -> report (measure o)
  | [ "calls" ] -> with_oracle o (fun spec ~oracle ~n:_ -> calls_cmd o spec ~oracle)
  | [ "selftest"; bench ] -> selftest o bench
  | _ ->
      prerr_endline ("usage: " ^ usage);
      exit 2

