open Rtlir
open Sim
open Faultsim

(* One golden (fault-free) simulation: the per-cycle output trace plus the
   behavioral-execution count — the single implementation behind both
   [golden_trace] and the campaign runner below. *)
let golden_run ~config g (w : Workload.t) =
  let sim = Simulator.create ~config g in
  let trace = Array.make w.cycles [||] in
  Workload.run w
    ~set_input:(Simulator.set_input sim)
    ~step:(fun () -> Simulator.step sim)
    ~observe:(fun c ->
      trace.(c) <- Simulator.outputs sim;
      true);
  (trace, Simulator.proc_executions sim)

let golden_trace ~config g w = fst (golden_run ~config g w)

let same_outputs a b =
  let n = Array.length a in
  let rec scan i = i >= n || (Bits.equal a.(i) b.(i) && scan (i + 1)) in
  Array.length b = n && scan 0

let faulty_sim ~config g (f : Fault.t) =
  let force =
    match f.stuck with
    | Fault.Stuck_at_0 -> Some (f.signal, f.bit, false)
    | Fault.Stuck_at_1 -> Some (f.signal, f.bit, true)
    | Fault.Flip_at _ -> None
  in
  let sim = Simulator.create ~config ?force g in
  let on_cycle_start cyc =
    match f.stuck with
    | Fault.Flip_at at when at = cyc -> Simulator.flip_bit sim f.signal f.bit
    | _ -> ()
  in
  (sim, on_cycle_start)

let run ~config g (w : Workload.t) faults =
  let t0 = Stats.now () in
  let w =
    Workload.checked ~num_signals:(Design.num_signals g.Elaborate.design) w
  in
  let stats = Stats.create () in
  let trace, golden_execs = golden_run ~config g w in
  stats.Stats.bn_good <- golden_execs;
  let detected = Array.make (Array.length faults) false in
  let detection_cycle = Array.make (Array.length faults) (-1) in
  Array.iter
    (fun (f : Fault.t) ->
      let sim, on_cycle_start = faulty_sim ~config g f in
      Workload.run ~on_cycle_start w
        ~set_input:(Simulator.set_input sim)
        ~step:(fun () -> Simulator.step sim)
        ~observe:(fun c ->
          if same_outputs (Simulator.outputs sim) trace.(c) then true
          else begin
            detected.(f.fid) <- true;
            detection_cycle.(f.fid) <- c;
            false
          end);
      stats.Stats.bn_fault_exec <-
        stats.Stats.bn_fault_exec + Simulator.proc_executions sim)
    faults;
  let wall = Stats.now () -. t0 in
  stats.Stats.cpu_seconds <- wall;
  stats.Stats.total_seconds <- wall;
  Fault.make_result ~detected ~detection_cycle ~stats ~wall_time:wall ()

let ifsim_config =
  { Simulator.eval = Simulator.Bytecode; scheduler = Simulator.Fifo }

let vfsim_config =
  { Simulator.eval = Simulator.Closures; scheduler = Simulator.Cycle_based }

let ifsim g w faults = run ~config:ifsim_config g w faults
let vfsim g w faults = run ~config:vfsim_config g w faults
