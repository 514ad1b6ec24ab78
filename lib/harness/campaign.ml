type engine = Ifsim | Vfsim | Z01x_proxy | Eraser_mm | Eraser_m | Eraser

let engine_name = function
  | Ifsim -> "IFsim"
  | Vfsim -> "VFsim"
  | Z01x_proxy -> "Z01X*"
  | Eraser_mm -> "Eraser--"
  | Eraser_m -> "Eraser-"
  | Eraser -> "Eraser"

let all_engines = [ Ifsim; Vfsim; Z01x_proxy; Eraser_mm; Eraser_m; Eraser ]

let concurrent_mode = function
  | Z01x_proxy | Eraser_m -> Engine.Concurrent.Explicit_only
  | Eraser_mm -> Engine.Concurrent.No_redundancy
  | Eraser -> Engine.Concurrent.Full
  | Ifsim | Vfsim -> invalid_arg "concurrent_mode"

let config_of ~instrument engine =
  {
    Engine.Concurrent.default_config with
    mode = concurrent_mode engine;
    instrument;
  }

let renumber faults ids =
  Array.mapi (fun i id -> { faults.(id) with Faultsim.Fault.fid = i }) ids

(* The one engine-dispatch point: every execution path — mono/partitioned
   campaigns, resilient batches, retries, quarantine singletons — routes an
   (engine, fault-id subset) through here. Serial baselines renumber the
   subset themselves; concurrent engines go through [run_batch], whose
   renumbering keeps verdict indexes aligned with [ids]. *)
let dispatch ?(instrument = false) ?config ?probe ?goodtrace
    ?instance engine (g : Rtlir.Elaborate.t) w faults ~ids =
  match engine with
  | Ifsim -> Baselines.Serial.ifsim g w (renumber faults ids)
  | Vfsim -> Baselines.Serial.vfsim g w (renumber faults ids)
  | e ->
      let config =
        match config with Some c -> c | None -> config_of ~instrument e
      in
      Engine.Concurrent.run_batch ~config ?probe ?goodtrace ?instance g w
        faults ~ids

(* Merge planned-batch results back into fault-id order. Faulty networks
   never interact, so each batch's verdicts equal the monolithic run's; the
   merge walks batches in plan order, so verdicts and merged stats are
   deterministic whatever order the workers finish in. Pruned faults fall
   through to the defaults: undetected, -1. *)
let merge_batches ~t0 ~n batch_ids results =
  let open Faultsim in
  let detected = Array.make n false in
  let detection_cycle = Array.make n (-1) in
  let stats = ref (Stats.create ()) in
  Array.iteri
    (fun bi (r : Fault.result) ->
      Array.iteri
        (fun j id ->
          detected.(id) <- r.Fault.detected.(j);
          detection_cycle.(id) <- r.Fault.detection_cycle.(j))
        batch_ids.(bi);
      stats := Stats.add !stats r.Fault.stats)
    results;
  let wall = Stats.now () -. t0 in
  !stats.Stats.total_seconds <- wall;
  Fault.make_result ~detected ~detection_cycle ~stats:!stats ~wall_time:wall ()

let run ?(instrument = false) ?(jobs = 1) ?(warmstart = false)
    ?capture_mem_limit engine (g : Rtlir.Elaborate.t) w faults =
  if jobs < 1 then invalid_arg "Campaign.run: jobs must be >= 1";
  let open Faultsim in
  let n = Array.length faults in
  if n = 0 then dispatch ~instrument engine g w faults ~ids:[||]
  else begin
    let t0 = Stats.now () in
    let warm =
      match engine with
      | Z01x_proxy | Eraser_mm | Eraser_m | Eraser when warmstart ->
          let config = config_of ~instrument engine in
          let cone = Flow.Cone.build g in
          let trace = Engine.Concurrent.capture ~config g w in
          let acts = Engine.Concurrent.activations ~cone trace g faults in
          let pruned =
            Engine.Concurrent.statically_undetectable ~cone g faults
          in
          Some { Schedule.wi_trace = trace; wi_acts = acts; wi_pruned = pruned }
      | _ -> None
    in
    (* a cold plan (no warm input) degrades to Fixed *)
    let plan =
      Schedule.plan ~policy:Schedule.Adaptive
        ~granularity:(Schedule.Chunks jobs) ?capture_mem_limit ?warm
        ~design:g ~n ()
    in
    let npruned = Array.length plan.Schedule.sp_pruned in
    if npruned > 0 then Obs.Metrics.add "cone.pruned" npruned;
    let batches = plan.Schedule.sp_batches in
    let nb = Array.length batches in
    let run_b (b : Schedule.batch) =
      dispatch ~instrument
        ?goodtrace:(Schedule.warm_for plan b.Schedule.sb_ids)
        engine g w faults ~ids:b.Schedule.sb_ids
    in
    let results =
      if jobs = 1 || nb <= 1 then Array.map run_b batches
      else
        Pool.with_pool ~jobs:(min jobs nb) (fun pool ->
            (* submit costliest batches first so the long pole starts
               immediately; await — and therefore merge — in plan order *)
            let order = Array.init nb (fun i -> i) in
            Array.sort
              (fun a b ->
                match
                  compare batches.(b).Schedule.sb_cost
                    batches.(a).Schedule.sb_cost
                with
                | 0 -> compare a b
                | c -> c)
              order;
            let futures = Array.make nb None in
            Array.iter
              (fun i ->
                futures.(i) <-
                  Some
                    (Pool.submit pool (fun (_ : Pool.ctx) ->
                         run_b batches.(i))))
              order;
            Array.map
              (function Some f -> Pool.await f | None -> assert false)
              futures)
    in
    let r =
      merge_batches ~t0 ~n
        (Array.map (fun b -> b.Schedule.sb_ids) batches)
        results
    in
    (match warm with
    | Some _ ->
        let stats = r.Fault.stats in
        stats.Stats.goodtrace_captures <- 1;
        stats.Stats.cone_pruned <- npruned;
        stats.Stats.plan_batches <- nb;
        stats.Stats.plan_snapshots <-
          (match plan.Schedule.sp_trace with
          | Some t -> Array.length t.Sim.Goodtrace.snapshots
          | None -> 0)
    | None -> ());
    r
  end

let run_circuit ?instrument ?jobs ?warmstart ?capture_mem_limit engine
    (c : Circuits.Bench_circuit.t) ~scale =
  let _, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
  run ?instrument ?jobs ?warmstart ?capture_mem_limit engine g w faults
