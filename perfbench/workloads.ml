(* The benchmark's workloads: what each one builds from the seed, which
   public campaign entry point it calls, and the step-by-step replay of
   that entry point's pipeline used by the traced pass. Options not set
   here stay at the library defaults, so a change of default is measured. *)

open Faultsim
module Bc = Circuits.Bench_circuit

type kind =
  | Cold  (** [Campaign.run Eraser], jobs 1: one large cold batch *)
  | Warm_resilient of int
      (** [Resilient.run] with warm start and a journal, at this many jobs *)

type t = {
  name : string;
  circuit : Bc.t;
  stimulus : seed:int64 -> Rtlir.Design.t -> cycles:int -> Workload.t;
  cycles : int;
  faults : int;  (** stuck-at sample size, or SEU count *)
  seu : bool;  (** SEUs from [generate_transients] instead of stuck-at *)
  kind : kind;
  trace_capacity : int;
      (** tracer ring size per domain, in events: about three times what
          the traced passes record today *)
}

let random ~seed d ~cycles = Bc.random_workload ~seed d ~cycles

(* Sizes: on a 2-vCPU Xeon host one campaign call takes 0.2-0.6 s, so a
   25-second run holds 40-100 calls, and the serial oracle for a fresh seed
   takes 2-15 s. Of riscv_mini's 1,342 stuck-at sites, 1,200 are sampled:
   its only input is the clock, so the fault sample is what the seed
   varies, and a large sample keeps the work per seed nearly constant. *)
let all =
  [
    (* Behavioral-node execution and the Algorithm-1 VDG walk dominate
       engine time on this CPU: the paper's own mechanism. *)
    { name = "bn_cold"; circuit = Circuits.Riscv_mini.circuit;
      stimulus = random; cycles = 2000; faults = 1200;
      seu = false; kind = Cold; trace_capacity = 2_000_000 };
    (* Chisel-style flat RTL: RTL-node fault evaluation dominates and
       implicit elimination almost never fires. The control for BN/VDG
       changes. *)
    { name = "rtl_flat"; circuit = Circuits.Sha256_c2v.circuit;
      stimulus = Circuits.Sha256_core.workload; cycles = 1200; faults = 1000;
      seu = false; kind = Cold; trace_capacity = 1_000_000 };
    (* The only path through capture, cone, activations, plan, warm replay,
       journal and the pool: many small warm batches. *)
    { name = "seu_warm"; circuit = Circuits.Fpu32.circuit;
      stimulus = random; cycles = 6000; faults = 1200;
      seu = true; kind = Warm_resilient 2; trace_capacity = 500_000 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Self-test size: every path still runs, in well under a second. *)
let tiny w =
  { w with cycles = (if w.seu then 300 else 120);
           faults = (if w.seu then 96 else 24) }

let jobs w = match w.kind with Cold -> 1 | Warm_resilient j -> j

(* Independent 64-bit streams for stimulus and fault list from one seed. *)
let derive seed salt =
  Int64.logxor (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L) salt

let stimulus_seed seed = derive seed 0x57_1D_05L
let fault_seed seed = derive seed 0xFA_01_75L

type inputs = {
  design : Rtlir.Design.t;
  g : Rtlir.Elaborate.t;
  w : Workload.t;
  faults : Fault.t array;
}

(* The stimulus is generated up front, so the library receives concrete
   input vectors and setup pays for producing them. *)
let materialize (w : Workload.t) =
  let tbl = Array.init w.Workload.cycles w.Workload.drive in
  let drive c = if c >= 0 && c < Array.length tbl then tbl.(c) else w.drive c in
  { w with Workload.drive }

(* The two setup layers: design build + elaboration, then stimulus and
   fault-list generation. *)
let elaborate spec =
  let d = spec.circuit.Bc.build () in
  (d, Rtlir.Elaborate.build d)

let generate spec ~seed design =
  let sseed = stimulus_seed seed and fseed = fault_seed seed in
  let w = spec.stimulus ~seed:sseed design ~cycles:spec.cycles in
  let faults =
    if spec.seu then
      Fault.generate_transients ~seed:fseed ~count:spec.faults
        ~max_cycle:spec.cycles design
    else Fault.generate ~max_faults:spec.faults ~seed:fseed design
  in
  (materialize w, faults)

let setup spec ~seed =
  let design, g = elaborate spec in
  let w, faults = generate spec ~seed design in
  { design; g; w; faults }

type entry = {
  result : Fault.result;
  retries : int;  (** watchdog splits + supervised restarts *)
  journal_bytes : int;
}

(* The timed call: exactly one public campaign entry point. *)
let run_entry spec ~journal i =
  match spec.kind with
  | Cold ->
      let result = Harness.Campaign.run Harness.Campaign.Eraser i.g i.w i.faults in
      { result; retries = 0; journal_bytes = 0 }
  | Warm_resilient jobs ->
      let config =
        { Harness.Resilient.default_config with
          warmstart = true; jobs; journal = Some journal }
      in
      let s = Harness.Resilient.run ~config i.g i.w i.faults in
      { result = s.Harness.Resilient.result;
        retries = s.Harness.Resilient.retries + s.Harness.Resilient.restarts;
        journal_bytes = (Unix.stat journal).Unix.st_size }

type replay = {
  detected : bool array;
  cycle : int array;
  times : (string * float) list;  (** layer metric name -> seconds *)
  batch_s : float array;
  stats : Stats.t;
  trace : Sim.Goodtrace.t option;
  pruned : int;
  plan : Harness.Schedule.t;
}

(* The entry point's pipeline, one public call at a time, each inside a
   span named after its metric: compile, capture, cone + activations,
   plan, every planned batch through [Campaign.dispatch] with its
   [Schedule.warm_for] start (instrumented), and the merge. Batches run
   serially on one instance whatever the workload's jobs. Cold workloads
   skip capture and cone exactly as [Campaign.run] does; their spans stay
   so every layer reports. *)
let replay spec i =
  let open Harness in
  let times = ref [] in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let v = Obs.Trace.with_span name f in
    times := (name, Unix.gettimeofday () -. t0) :: !times;
    v
  in
  let n = Array.length i.faults in
  let warm = spec.kind <> Cold in
  let inst = timed "core.compile_s" (fun () -> Engine.Concurrent.instance i.g) in
  let trace =
    timed "core.capture_s" (fun () ->
        if not warm then None
        else
          let config =
            { Engine.Concurrent.default_config with
              mode = Campaign.concurrent_mode Campaign.Eraser }
          in
          Some (Engine.Concurrent.capture ~config ~instance:inst i.g i.w))
  in
  let warm_input =
    timed "cfg.cone_s" (fun () ->
        Option.map
          (fun t ->
            let cone = Flow.Cone.build i.g in
            { Schedule.wi_trace = t;
              wi_acts = Engine.Concurrent.activations ~cone t i.g i.faults;
              wi_pruned =
                Engine.Concurrent.statically_undetectable ~cone i.g i.faults })
          trace)
  in
  let plan =
    timed "harness.plan_s" (fun () ->
        let policy, granularity =
          if warm then
            (Schedule.Adaptive,
             Schedule.Size Resilient.default_config.Resilient.batch_size)
          else (Schedule.Fixed, Schedule.Chunks 1)
        in
        Schedule.plan ~policy ~granularity ?warm:warm_input ~design:i.g ~n ())
  in
  let batches = plan.Schedule.sp_batches in
  let batch_s = Array.make (Array.length batches) 0.0 in
  let results =
    timed "core.exec_s" (fun () ->
        Array.mapi
          (fun k (b : Schedule.batch) ->
            let t0 = Unix.gettimeofday () in
            let r =
              Obs.Trace.with_span "core.batch" (fun () ->
                  Campaign.dispatch ~instrument:true ~instance:inst
                    ?goodtrace:(Schedule.warm_for plan b.Schedule.sb_ids)
                    Campaign.Eraser i.g i.w i.faults ~ids:b.Schedule.sb_ids)
            in
            batch_s.(k) <- Unix.gettimeofday () -. t0;
            r)
          batches)
  in
  let detected = Array.make n false and cycle = Array.make n (-1) in
  let stats =
    timed "harness.merge_s" (fun () ->
        let stats = ref (Stats.create ()) in
        Array.iteri
          (fun k (r : Fault.result) ->
            Array.iteri
              (fun j id ->
                detected.(id) <- r.Fault.detected.(j);
                cycle.(id) <- r.Fault.detection_cycle.(j))
              batches.(k).Schedule.sb_ids;
            stats := Stats.add !stats r.Fault.stats)
          results;
        !stats)
  in
  { detected; cycle; times = !times; batch_s; stats; trace;
    pruned = Array.length plan.Schedule.sp_pruned; plan }
