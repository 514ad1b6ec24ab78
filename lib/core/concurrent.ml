open Rtlir
open Flow
open Sim
open Faultsim

type mode = No_redundancy | Explicit_only | Full

let mode_name = function
  | No_redundancy -> "eraser--"
  | Explicit_only -> "eraser-"
  | Full -> "eraser"

type config = {
  mode : mode;
  instrument : bool;
  exact_mem_check : bool;
  corrupt_verdict : int option;
}

let default_config =
  {
    mode = Full;
    instrument = false;
    exact_mem_check = true;
    corrupt_verdict = None;
  }

(* Chaos seam, installed by the harness (Harness.Chaos): consulted once per
   observation point. Returning [Some f] flips the low bit of fault [f]'s
   view of the first output port — a deterministic stand-in for a corrupted
   diff-store entry, visible to the detection scan of the same cycle. The
   engine library cannot depend on the harness, so the hook lives here as a
   process-global; the disabled path costs a single [Atomic.get]. *)
let chaos_corrupt_diff :
    (cycle:int -> nfaults:int -> int option) option Atomic.t =
  Atomic.make None

(* An instance is the immutable compiled form of one elaborated design:
   every behavioral body and every continuous-assign expression, compiled
   once (in the payload-compiled form: widths resolved at compile time,
   values flow as masked int64 payloads). All per-campaign mutable state
   lives inside each {!run}, so a single instance can be reused across any
   number of sequential runs — the parallel harness gives each worker
   domain its own instance and reuses it for every batch that worker
   executes. Instances must not be shared across domains concurrently
   (compiled closures are reentrant, but the engine state that feeds them
   is not). *)
type instance = {
  inst_graph : Elaborate.t;
  inst_procs : Compile.ti array;  (** by process id *)
  inst_assigns : Compile.compiled_expr_i array;  (** by assign index *)
}

let instance (g : Elaborate.t) =
  let d = g.Elaborate.design in
  let sig_width i = d.Design.signals.(i).Design.width in
  let mem_width m = d.Design.mems.(m).Design.data_width in
  let mem_size m = d.Design.mems.(m).Design.size in
  {
    inst_graph = g;
    inst_procs =
      Array.map
        (fun (p : Design.proc) ->
          Compile.proc_i ~sig_width ~mem_width ~mem_size p.body)
        d.procs;
    inst_assigns =
      Array.map
        (fun (a : Design.assign) ->
          Compile.expr_i ~sig_width ~mem_width ~mem_size a.expr)
        d.assigns;
  }

type comb_kind =
  | Kassign of {
      target : int;
      eval : Compile.compiled_expr_i;
      reads : int array;
      read_mems : int array;
    }
  | Kproc of {
      pid : int;
      cp : Compile.ti;
      reads : int array;
      read_mems : int array;
      writes : int array;  (* blocking targets; covered on every path *)
    }

let edge_fired edge ~old_b ~new_b =
  match edge with
  | Design.Posedge ->
      Int64.logand old_b 1L = 0L && Int64.logand new_b 1L = 1L
  | Design.Negedge ->
      Int64.logand old_b 1L = 1L && Int64.logand new_b 1L = 0L

(* How this run treats the good network: simulate it (Gcold), simulate it
   while recording every good event into a trace builder (Gcap), or skip
   simulation entirely and replay a previously captured trace (Grep). *)
type gexec =
  | Gcold
  | Gcap of Goodtrace.builder
  | Grep of Goodtrace.cursor

let run_gmode ?(config = default_config) ?probe ?goodtrace ~capture_into
    (inst : instance) (w : Workload.t) faults =
  let g = inst.inst_graph in
  let t_start = Stats.now () in
  let d = g.design in
  let nsig = Design.num_signals d in
  let w = Workload.checked ~num_signals:nsig w in
  let nmem = Array.length d.mems in
  let nproc = Array.length d.procs in
  let nfaults = Array.length faults in
  let stats = Stats.create () in
  let gx, warm_start =
    match (capture_into, goodtrace) with
    | Some b, _ -> (Gcap b, 0)
    | None, Some { Goodtrace.trace; start } ->
        if trace.Goodtrace.cycles <> w.Workload.cycles then
          raise
            (Goodtrace.Trace_mismatch
               (Printf.sprintf "trace captured for %d cycles, workload has %d"
                  trace.Goodtrace.cycles w.Workload.cycles));
        if trace.Goodtrace.clock <> w.Workload.clock then
          raise
            (Goodtrace.Trace_mismatch
               (Printf.sprintf "trace clock %d, workload clock %d"
                  trace.Goodtrace.clock w.Workload.clock));
        if trace.Goodtrace.nout <> Array.length g.outputs then
          raise
            (Goodtrace.Trace_mismatch
               (Printf.sprintf "trace has %d outputs, design has %d"
                  trace.Goodtrace.nout (Array.length g.outputs)));
        (Grep (Goodtrace.cursor trace ~start), start)
    | None, None -> (Gcold, 0)
  in
  (* Observability is enabled (or not) before the run starts, so the flags
     can be hoisted into locals: the disabled hot path pays one branch on an
     already-loaded bool instead of an atomic load per event. *)
  let tracing = Obs.Trace.on () in
  let metrics_on = Obs.Metrics.on () in
  let run_t0 = Obs.Trace.span_begin "fault_sim_run" in
  let sig_width i = d.Design.signals.(i).Design.width in
  let mem_width m = d.Design.mems.(m).Design.data_width in
  let mem_size m = d.mems.(m).size in
  (* ---- good state: flat int64 arrays (Sim.State) ---- *)
  let st = State.create d in
  (* ---- fault bookkeeping ---- *)
  let live = Array.make nfaults true in
  let detected = Array.make nfaults false in
  let detection_cycle = Array.make nfaults (-1) in
  let n_live = ref nfaults in
  (* Per fault: how many signal and memory diff entries it holds. A live
     fault with none is the good network (DESIGN.md, "Retiring converged
     transients"). *)
  let ndiff = Array.make nfaults 0 in
  (* Diff stores are sized from the fault-batch width: the per-site tables
     (one per signal / memory) expect a fraction of the batch and grow on
     demand; the per-memory fault index and per-clock snapshots are bounded
     by the batch width itself. *)
  let expect_site = min nfaults 16 in
  let diffs : Diffstore.t array =
    Array.init nsig (fun _ ->
        Diffstore.create ~expect:expect_site ())
  in
  let mem_diffs : Diffstore.t array =
    Array.init nmem (fun _ -> Diffstore.create ~expect:expect_site ())
  in
  let mem_fault_words : Diffstore.Counts.t array =
    Array.init nmem (fun _ ->
        Diffstore.Counts.create ~expect:nfaults ())
  in
  let site_faults = Array.make nsig [] in
  let transients_at : (int, Fault.t list) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun (f : Fault.t) ->
      match f.stuck with
      | Fault.Stuck_at_0 | Fault.Stuck_at_1 ->
          site_faults.(f.signal) <- f.fid :: site_faults.(f.signal)
      | Fault.Flip_at c ->
          Hashtbl.replace transients_at c
            (f :: (try Hashtbl.find transients_at c with Not_found -> [])))
    faults;
  let force_if_site f id v =
    let fa = faults.(f) in
    if fa.Fault.signal = id then Fault.force_i64 fa v else v
  in
  (* ---- dirty tracking over topological comb positions ---- *)
  let ncomb = Array.length g.comb_nodes in
  let good_dirty = Array.make ncomb false in
  let fault_dirty = Array.make ncomb false in
  let dirty_hi = ref (-1) in
  let dirty_lo = ref ncomb in
  (* node being evaluated right now: no self-triggering on own writes *)
  let current_pos = ref (-1) in
  let touch pos =
    if pos > !dirty_hi then dirty_hi := pos;
    if pos < !dirty_lo then dirty_lo := pos
  in
  let mark_good_fanout id =
    let fo = g.fanout_comb.(id) in
    for i = 0 to Array.length fo - 1 do
      let pos = fo.(i) in
      if pos <> !current_pos then begin
        good_dirty.(pos) <- true;
        fault_dirty.(pos) <- true;
        touch pos
      end
    done
  in
  let mark_fault_fanout id =
    let fo = g.fanout_comb.(id) in
    for i = 0 to Array.length fo - 1 do
      let pos = fo.(i) in
      if pos <> !current_pos then begin
        fault_dirty.(pos) <- true;
        touch pos
      end
    done
  in
  let mark_mem_good_fanout m =
    let fo = g.fanout_mem.(m) in
    for i = 0 to Array.length fo - 1 do
      let pos = fo.(i) in
      good_dirty.(pos) <- true;
      fault_dirty.(pos) <- true;
      touch pos
    done
  in
  let mark_mem_fault_fanout m =
    let fo = g.fanout_mem.(m) in
    for i = 0 to Array.length fo - 1 do
      let pos = fo.(i) in
      fault_dirty.(pos) <- true;
      touch pos
    done
  in
  (* ---- diff store ----
     Payload equality is full equality: every stored payload is masked to
     its signal's width, and a slot's good value shares that width. *)
  let set_diff id f v =
    let tbl = diffs.(id) in
    let good = State.get st id in
    if v = good then begin
      if Diffstore.mem tbl f then begin
        Diffstore.remove tbl f;
        ndiff.(f) <- ndiff.(f) - 1;
        mark_fault_fanout id
      end
    end
    else begin
      (* a live fault's stored diff never equals the good value, so
         finding the default means the entry is absent *)
      let cur = Diffstore.find tbl f ~default:good in
      if cur <> v then begin
        if cur = good then ndiff.(f) <- ndiff.(f) + 1;
        Diffstore.set tbl f v;
        mark_fault_fanout id
      end
    end
  in
  let fault_value f id = Diffstore.find diffs.(id) f ~default:(State.get st id) in
  let visible f id =
    let tbl = diffs.(id) in
    (not (Diffstore.is_empty tbl))
    &&
    let good = State.get st id in
    Diffstore.find tbl f ~default:good <> good
  in
  let mem_key m f a = (f * d.mems.(m).size) + a in
  let fault_mem_value f m a =
    Diffstore.find mem_diffs.(m) (mem_key m f a)
      ~default:(State.get_mem st m a)
  in
  let mem_visible f m = Diffstore.Counts.mem mem_fault_words.(m) f in
  let mem_words_bump m f delta =
    ndiff.(f) <- ndiff.(f) + delta;
    Diffstore.Counts.bump mem_fault_words.(m) f delta
  in
  let set_mem_diff m f a v =
    let key = mem_key m f a in
    let tbl = mem_diffs.(m) in
    let good = State.get_mem st m a in
    if v = good then begin
      if Diffstore.mem tbl key then begin
        Diffstore.remove tbl key;
        mem_words_bump m f (-1);
        mark_mem_fault_fanout m
      end
    end
    else if Diffstore.mem tbl key then begin
      if Diffstore.find tbl key ~default:good <> v then begin
        Diffstore.set tbl key v;
        mark_mem_fault_fanout m
      end
    end
    else begin
      Diffstore.set tbl key v;
      mem_words_bump m f 1;
      mark_mem_fault_fanout m
    end
  in
  (* ---- good writes (with fault-site injection and stale-diff sweep) ---- *)
  let scratch_dead = Ivec.create ~capacity:16 () in
  let remove_dead tbl =
    Ivec.iter
      (fun f ->
        Diffstore.remove tbl f;
        ndiff.(f) <- ndiff.(f) - 1)
      scratch_dead
  in
  let write_good id v =
    if State.get st id <> v then begin
      State.set st id v;
      let tbl = diffs.(id) in
      if Diffstore.length tbl > 0 then begin
        Ivec.clear scratch_dead;
        Diffstore.iter tbl (fun f fv ->
            if (not live.(f)) || fv = v then Ivec.push scratch_dead f);
        remove_dead tbl
      end;
      mark_good_fanout id
    end;
    List.iter
      (fun f -> if live.(f) then set_diff id f (Fault.force_i64 faults.(f) v))
      site_faults.(id)
  in
  let write_good_mem m a v =
    if State.get_mem st m a <> v then begin
      State.set_mem st m a v;
      mark_mem_good_fanout m
    end
  in
  (* ---- readers / writers ---- *)
  let good_reader = Access.reader_of_state st in
  let cur_fault = ref (-1) in
  let fault_reader =
    {
      Access.iget = (fun id -> fault_value !cur_fault id);
      iget_mem = (fun m a -> fault_mem_value !cur_fault m a);
    }
  in
  let bad_write kind _ _ = failwith ("concurrent: unexpected " ^ kind) in
  let comb_good_writer =
    {
      Access.iset_blocking = write_good;
      iset_nonblocking = bad_write "nonblocking write in comb process";
      iwrite_mem = (fun _ -> bad_write "memory write in comb process" 0);
    }
  in
  (* Capture twin of [comb_good_writer]: same effect, plus it collects the
     write sequence so the whole execution can be recorded as one event. *)
  let cap_ws = ref [] in
  let comb_capture_writer =
    {
      Access.iset_blocking =
        (fun id v ->
          cap_ws := (id, v) :: !cap_ws;
          write_good id v);
      iset_nonblocking = bad_write "nonblocking write in comb process";
      iwrite_mem = (fun _ -> bad_write "memory write in comb process" 0);
    }
  in
  let comb_fault_writer =
    {
      Access.iset_blocking =
        (fun id v -> set_diff id !cur_fault (force_if_site !cur_fault id v));
      iset_nonblocking = bad_write "nonblocking write in comb process";
      iwrite_mem = (fun _ -> bad_write "memory write in comb process" 0);
    }
  in
  let cur_good_writes = ref [] in
  let cur_good_mem_writes = ref [] in
  let ff_good_writer =
    {
      Access.iset_blocking = bad_write "blocking write in ff process";
      iset_nonblocking =
        (fun id v -> cur_good_writes := (id, v) :: !cur_good_writes);
      iwrite_mem =
        (fun m a v ->
          cur_good_mem_writes := (m, a, v) :: !cur_good_mem_writes);
    }
  in
  let fault_nba = ref [] in
  (* per fault: its own copies' memory writes this round, newest first, as
     (pid, mem, addr, value) *)
  let fault_mem_writes = Array.make nfaults [] in
  let cur_pid = ref (-1) in
  let ff_fault_writer =
    {
      Access.iset_blocking = bad_write "blocking write in ff process";
      iset_nonblocking =
        (fun id v -> fault_nba := (!cur_fault, id, v) :: !fault_nba);
      iwrite_mem =
        (fun m a v ->
          let f = !cur_fault in
          fault_mem_writes.(f) <- (!cur_pid, m, a, v) :: fault_mem_writes.(f));
    }
  in
  (* ---- compiled nodes (shared, immutable — see {!instance}) ---- *)
  let get_cp pid = inst.inst_procs.(pid) in
  let per_proc_exec = Array.make nproc 0 in
  let per_proc_impl = Array.make nproc 0 in
  let per_proc_expl = Array.make nproc 0 in
  let record = Array.make nproc [||] in
  let record_of pid =
    if Array.length record.(pid) = 0 then
      record.(pid) <- Array.make (Array.length (get_cp pid).Compile.icfg.nodes) 0;
    record.(pid)
  in
  (* Canonical decision-node order of a process: both capture and replay
     derive it independently from the compiled CFG, so a trace only needs
     to store the taken-branch choices, not whole record arrays. *)
  let decision_ids = Array.make nproc [||] in
  let decision_ids_set = Array.make nproc false in
  let decision_ids_of pid =
    if not decision_ids_set.(pid) then begin
      let acc = ref [] in
      Array.iteri
        (fun i n -> match n with Cfg.Decision _ -> acc := i :: !acc | _ -> ())
        (get_cp pid).Compile.icfg.nodes;
      decision_ids.(pid) <- Array.of_list (List.rev !acc);
      decision_ids_set.(pid) <- true
    end;
    decision_ids.(pid)
  in
  let choices_of pid =
    let r = record.(pid) in
    Array.map (fun i -> r.(i)) (decision_ids_of pid)
  in
  (* [record.(pid)] only reflects the good network's latest branch choices
     once the proc has executed (or been replayed) in THIS run. A warm
     start restores state from a snapshot without replaying history, so a
     comb proc can become fault-dirty before its first replayed good
     event: until then its record is unset and the implicit-redundancy
     walk must not consult it. *)
  let record_valid = Array.make nproc false in
  let restore_choices pid =
    let r = record.(pid) in
    let ids = decision_ids_of pid in
    record_valid.(pid) <- true;
    fun k c -> r.(ids.(k)) <- c
  in
  let comb_kinds =
    Array.mapi
      (fun pos node ->
        match node with
        | Elaborate.Cassign i ->
            let a = d.assigns.(i) in
            Kassign
              {
                target = a.target;
                eval = inst.inst_assigns.(i);
                reads = g.comb_reads.(pos);
                read_mems = g.comb_read_mems.(pos);
              }
        | Elaborate.Cproc pid ->
            ignore (record_of pid);
            Kproc
              {
                pid;
                cp = get_cp pid;
                reads = g.comb_reads.(pos);
                read_mems = g.comb_read_mems.(pos);
                writes = g.comb_writes.(pos);
              })
      g.comb_nodes
  in
  Array.iter (fun pid -> ignore (record_of pid)) g.ff_procs;
  (* ---- per-node fault set collection ---- *)
  let stamp = Array.make nfaults 0 in
  let gen = ref 0 in
  let fset = Ivec.create () in
  let begin_set () =
    incr gen;
    Ivec.clear fset
  in
  let add_fault f =
    if live.(f) && stamp.(f) <> !gen then begin
      stamp.(f) <- !gen;
      Ivec.push fset f
    end
  in
  (* Read stamps: collecting a node's fault set from its *read* signals and
     memories stamps each fault with the set's generation, so "does this
     fault see a diff on any input" is one array read afterwards. Exact
     because a stored signal diff always differs from the good value
     ([set_diff] and [write_good] drop equal entries) and a memory's fault
     index holds exactly the faults with a diverging word. *)
  let rstamp = Array.make nfaults 0 in
  let add_read_fault f =
    rstamp.(f) <- !gen;
    add_fault f
  in
  let scan_sig_faults add id =
    let tbl = diffs.(id) in
    if Diffstore.length tbl > 0 then begin
      Ivec.clear scratch_dead;
      Diffstore.iter_keys tbl (fun f ->
          if live.(f) then add f else Ivec.push scratch_dead f);
      remove_dead tbl
    end
  in
  let scan_mem_faults add m =
    Diffstore.Counts.iter_keys mem_fault_words.(m) (fun f ->
        if live.(f) then add f)
  in
  let add_sig_faults = scan_sig_faults add_fault in
  let add_mem_faults = scan_mem_faults add_fault in
  let add_read_faults = scan_sig_faults add_read_fault in
  let add_read_mem_faults = scan_mem_faults add_read_fault in
  let input_diff f = rstamp.(f) = !gen in
  let add_all_live () =
    for f = 0 to nfaults - 1 do
      add_fault f
    done
  in
  (* ---- Algorithm 1: the implicit-redundancy walk ---- *)
  let mem_word_diff f m a =
    let good = State.get_mem st m a in
    Diffstore.find mem_diffs.(m) (mem_key m f a) ~default:good <> good
  in
  let walk_steps = ref 0 in
  let vdg_hist = Array.make Obs.Metrics.nbuckets 0 in
  let vdg_count = ref 0 in
  let vdg_sum = ref 0.0 in
  let vdg_max = ref 0.0 in
  let walk_redundant (cp : Compile.ti) rec_arr =
    (* fast path: no blocking writes in the body, so every read is external
       and selectors can be re-evaluated against pre-execution state.
       Memory dependencies are checked per word: the site's address is
       recomputed under the good values (equal to the fault's, since the
       address's signal reads were already checked invisible). Selector
       memory reads need no pre-check — the selector itself is re-evaluated
       under the fault overlay. *)
    let f = !cur_fault in
    let nodes = cp.Compile.icfg.nodes in
    let vdg = cp.Compile.ivdg in
    let site_clean (m, size, caddr) =
      if config.exact_mem_check then
        not (mem_word_diff f m (Eval.wrap_address_i (caddr good_reader) size))
      else not (mem_visible f m)
    in
    let rec walk cur =
      incr walk_steps;
      match nodes.(cur) with
      | Cfg.Exit -> true
      | Cfg.Decision dec ->
          let gc = rec_arr.(cur) in
          if Compile.fault_choice_i cp cur fault_reader <> gc then false
          else walk dec.targets.(gc)
      | Cfg.Segment s ->
          if not vdg.Vdg.interesting.(cur) then walk vdg.Vdg.next.(cur)
          else if
            Array.exists (visible f) s.reads
            || not (Array.for_all site_clean cp.Compile.iseg_sites.(cur))
          then false
          else walk vdg.Vdg.next.(cur)
    in
    let t0 = if tracing then Obs.Trace.span_begin "vdg_walk" else 0 in
    walk_steps := 0;
    let res =
      if cp.Compile.ihas_blocking then
        Vdg.redundant_i vdg
          ~good_choice:(fun id ->
            incr walk_steps;
            rec_arr.(id))
          ~eval_good:(fun e ->
            Eval.eval_i ~sig_width ~mem_width ~mem_size good_reader e)
          ~eval_fault:(fun e ->
            Eval.eval_i ~sig_width ~mem_width ~mem_size fault_reader e)
          ~visible:(visible f)
          ~mem_word_visible:(fun m addr ->
            if config.exact_mem_check then
              mem_word_diff f m (Eval.wrap_address_i addr d.mems.(m).size)
            else mem_visible f m)
      else walk cp.Compile.icfg.entry
    in
    if tracing then Obs.Trace.span_end "vdg_walk" t0;
    if metrics_on then begin
      let depth = float_of_int !walk_steps in
      vdg_hist.(Obs.Metrics.bucket_of depth) <-
        vdg_hist.(Obs.Metrics.bucket_of depth) + 1;
      incr vdg_count;
      vdg_sum := !vdg_sum +. depth;
      if depth > !vdg_max then vdg_max := depth
    end;
    res
  in
  (* ---- instrumentation ---- *)
  let bn_clock = ref 0.0 in
  let bn_trace = ref 0 in
  let bn_begin () =
    if config.instrument then bn_clock := Stats.now ();
    if tracing then bn_trace := Obs.Trace.span_begin "bn_eval"
  in
  let bn_end () =
    if config.instrument then
      stats.Stats.bn_seconds <-
        stats.Stats.bn_seconds +. (Stats.now () -. !bn_clock);
    if tracing then Obs.Trace.span_end "bn_eval" !bn_trace
  in
  (* ---- combinational settle ---- *)
  let process_comb pos =
    let gd = good_dirty.(pos) and fd = fault_dirty.(pos) in
    good_dirty.(pos) <- false;
    fault_dirty.(pos) <- false;
    match comb_kinds.(pos) with
    | Kassign a ->
        if gd then begin
          match gx with
          | Grep cur -> write_good a.target (Goodtrace.take_assign cur ~pos)
          | Gcap b ->
              stats.Stats.rtl_good_eval <- stats.Stats.rtl_good_eval + 1;
              let v = a.eval good_reader in
              Goodtrace.rec_assign b ~pos ~target:a.target v;
              write_good a.target v
          | Gcold ->
              stats.Stats.rtl_good_eval <- stats.Stats.rtl_good_eval + 1;
              write_good a.target (a.eval good_reader)
        end;
        if gd || fd then begin
          begin_set ();
          Array.iter add_sig_faults a.reads;
          Array.iter add_mem_faults a.read_mems;
          add_sig_faults a.target;
          Ivec.iter
            (fun f ->
              cur_fault := f;
              stats.Stats.rtl_fault_eval <- stats.Stats.rtl_fault_eval + 1;
              set_diff a.target f
                (force_if_site f a.target (a.eval fault_reader)))
            fset
        end
    | Kproc p ->
        bn_begin ();
        if gd then begin
          match gx with
          | Grep cur ->
              Goodtrace.take_comb_proc cur ~pos ~pid:p.pid
                ~set_choice:(restore_choices p.pid) ~write:write_good
          | Gcap b ->
              stats.Stats.bn_good <- stats.Stats.bn_good + 1;
              let gs_t0 =
                if tracing then Obs.Trace.span_begin "good_sim" else 0
              in
              cap_ws := [];
              record_valid.(p.pid) <- true;
              Compile.exec_i p.cp ~record:record.(p.pid) good_reader
                comb_capture_writer;
              if tracing then Obs.Trace.span_end "good_sim" gs_t0;
              Goodtrace.rec_comb_proc b ~pos ~pid:p.pid
                ~writes:(List.rev !cap_ws) ~choices:(choices_of p.pid)
          | Gcold ->
              stats.Stats.bn_good <- stats.Stats.bn_good + 1;
              let gs_t0 =
                if tracing then Obs.Trace.span_begin "good_sim" else 0
              in
              record_valid.(p.pid) <- true;
              Compile.exec_i p.cp ~record:record.(p.pid) good_reader
                comb_good_writer;
              if tracing then Obs.Trace.span_end "good_sim" gs_t0
        end;
        if gd || fd then begin
          let live_at = !n_live in
          let site_on_target f =
            (not (Fault.is_transient faults.(f)))
            &&
            let fs = faults.(f).Fault.signal in
            Array.exists (fun t -> t = fs) p.writes
          in
          let executed = ref 0 and implicit = ref 0 and expl = ref 0 in
          let do_fault f =
            cur_fault := f;
            let idiff = input_diff f in
            let must_exec =
              match config.mode with
              | No_redundancy -> true
              | Explicit_only -> idiff || site_on_target f
              | Full ->
                  (idiff || site_on_target f)
                  &&
                  if
                    (not (site_on_target f))
                    && record_valid.(p.pid)
                    && walk_redundant p.cp record.(p.pid)
                  then begin
                    incr implicit;
                    per_proc_impl.(p.pid) <- per_proc_impl.(p.pid) + 1;
                    false
                  end
                  else true
            in
            if must_exec then begin
              incr executed;
              per_proc_exec.(p.pid) <- per_proc_exec.(p.pid) + 1;
              stats.Stats.bn_fault_exec <- stats.Stats.bn_fault_exec + 1;
              Compile.exec_i p.cp fault_reader comb_fault_writer
            end
            else if not (idiff && config.mode = Full) then incr expl;
            if not must_exec then
              (* reconcile: the faulty execution would write the good
                 values (comb bodies assign every target on every path) *)
              Array.iter
                (fun t -> set_diff t f (force_if_site f t (State.get st t)))
                p.writes
          in
          begin_set ();
          (match config.mode with
          | No_redundancy when gd -> add_all_live ()
          | No_redundancy | Explicit_only | Full ->
              Array.iter add_read_faults p.reads;
              Array.iter add_read_mem_faults p.read_mems;
              Array.iter add_sig_faults p.writes);
          (* Faults sited on a blocking-write target must always execute:
             forcing the bit at an intermediate write can steer a later
             branch even when the final forced value happens to equal the
             good value (so no diff survives to flag them). *)
          Array.iter (fun t -> List.iter add_fault site_faults.(t)) p.writes;
          Ivec.iter do_fault fset;
          stats.Stats.bn_skipped_implicit <-
            stats.Stats.bn_skipped_implicit + !implicit;
          let expl_here =
            if gd then live_at - !executed - !implicit else !expl
          in
          stats.Stats.bn_skipped_explicit <-
            stats.Stats.bn_skipped_explicit + expl_here;
          per_proc_expl.(p.pid) <- per_proc_expl.(p.pid) + expl_here
        end;
        bn_end ()
  in
  let settle () =
    let pos = ref !dirty_lo in
    while !pos <= !dirty_hi do
      if good_dirty.(!pos) || fault_dirty.(!pos) then begin
        current_pos := !pos;
        process_comb !pos;
        current_pos := -1
      end;
      incr pos
    done;
    dirty_lo := ncomb;
    dirty_hi := -1
  in
  (* ---- clock edge tracking ---- *)
  let nclk = Array.length g.clocks in
  let prev_clock_good = Array.map (fun c -> State.get st c) g.clocks in
  let prev_clock_diff : Diffstore.t array =
    Array.init nclk (fun _ -> Diffstore.create ~expect:nfaults ())
  in
  (* ---- edge-round bookkeeping, allocated once per run ----
     A pair key [pid * stride + f] names fault [f]'s copy of process [pid].
     Each round resets what it filled, touching only the processes and
     faults it fired, suppressed or executed. *)
  let stride = max 1 nfaults in
  let pair pid f = (pid * stride) + f in
  let good_fired = Array.make nproc false in
  let good_writes_of = Array.make nproc [] in
  let good_mem_writes_of = Array.make nproc [] in
  let mem_writer =
    Array.map (fun ms -> Array.length ms > 0) g.proc_write_mems
  in
  let suppressed = Diffstore.Counts.create ~expect:expect_site () in
  let n_suppressed = Array.make nproc 0 in
  let solo = Ivec.create ~capacity:16 () in
  let recon = Ivec.create ~capacity:16 () in
  (* memory writers only: the pairs that executed their own copy, and per
     fault the solo-activated writers *)
  let executed_mw = Diffstore.Counts.create ~expect:expect_site () in
  let solo_mw_of = Array.make nfaults [] in
  let involved = Ivec.create ~capacity:16 () in
  let istamp = Array.make nfaults 0 in
  let round_no = ref 0 in
  let involve f =
    if istamp.(f) <> !round_no then begin
      istamp.(f) <- !round_no;
      Ivec.push involved f
    end
  in
  let preserved = ref [] in
  let preserved_mem = ref [] in
  let preserve_for pid f =
    List.iter
      (fun (id, _) -> preserved := (f, id, fault_value f id) :: !preserved)
      good_writes_of.(pid);
    List.iter
      (fun (m, a, _) ->
        preserved_mem := (f, m, a, fault_mem_value f m a) :: !preserved_mem)
      good_mem_writes_of.(pid)
  in
  (* Memory commits must respect each faulty network's program order
     across processes: the same memory may be written by several
     processes, and a fault that executed its own copy of one process still
     follows the good copies of all the others. Replay fault [f]'s
     effective write sequence over the memory writers it fired, in process
     order: suppressed -> no writes, executed -> its own writes, otherwise
     -> the good writes. A process that writes no memory adds nothing to
     the sequence, so visiting only writers keeps the order exact. *)
  let replay_mem_writes fired_mw f =
    let own = List.rev fault_mem_writes.(f) in
    let visit pid =
      let k = pair pid f in
      if Diffstore.Counts.mem suppressed k then ()
      else if Diffstore.Counts.mem executed_mw k then
        List.iter
          (fun (p, m, a, v) -> if p = pid then set_mem_diff m f a v)
          own
      else if good_fired.(pid) then
        List.iter
          (fun (m, a, v) -> set_mem_diff m f a v)
          good_mem_writes_of.(pid)
    in
    (match solo_mw_of.(f) with
    | [] -> List.iter visit fired_mw
    | solo_pids ->
        List.iter visit
          (List.merge compare fired_mw (List.sort_uniq compare solo_pids)));
    fault_mem_writes.(f) <- [];
    solo_mw_of.(f) <- []
  in
  (* ---- the edge-triggered phase of one time slot ---- *)
  let step () =
    settle ();
    let rounds = ref 0 in
    let continue = ref true in
    while !continue do
      incr rounds;
      if !rounds > 16 then failwith "concurrent: clock cascade did not settle";
      incr round_no;
      let ed_t0 = if tracing then Obs.Trace.span_begin "edge_detect" else 0 in
      let fired_list = ref [] in
      for ci = 0 to nclk - 1 do
        let c = g.clocks.(ci) in
        let old_g = prev_clock_good.(ci) and new_g = State.get st c in
        if old_g <> new_g then
          List.iter
            (fun (pid, edge) ->
              if edge_fired edge ~old_b:old_g ~new_b:new_g then begin
                if not good_fired.(pid) then begin
                  good_fired.(pid) <- true;
                  fired_list := pid :: !fired_list
                end
              end)
            g.ff_of_clock.(c);
        (* per-fault edge divergence for faults with a diff on this clock
           now or at the previous slot *)
        begin_set ();
        add_sig_faults c;
        Diffstore.iter_keys prev_clock_diff.(ci) (fun f ->
            if live.(f) then add_fault f);
        Ivec.iter
          (fun f ->
            let old_f =
              Diffstore.find prev_clock_diff.(ci) f ~default:old_g
            in
            let new_f = fault_value f c in
            List.iter
              (fun (pid, edge) ->
                let gf = edge_fired edge ~old_b:old_g ~new_b:new_g in
                let ff = edge_fired edge ~old_b:old_f ~new_b:new_f in
                if gf && not ff then begin
                  Diffstore.Counts.bump suppressed (pair pid f) 1;
                  n_suppressed.(pid) <- n_suppressed.(pid) + 1
                end
                else if (not gf) && ff then Ivec.push solo (pair pid f))
              g.ff_of_clock.(c))
          fset;
        prev_clock_good.(ci) <- new_g;
        Diffstore.clear prev_clock_diff.(ci);
        Diffstore.iter diffs.(c) (fun f v ->
            if live.(f) then Diffstore.set prev_clock_diff.(ci) f v)
      done;
      if tracing then Obs.Trace.span_end "edge_detect" ed_t0;
      let fired = List.sort compare !fired_list in
      if fired = [] && Ivec.is_empty solo then continue := false
      else begin
        let fired_mw = List.filter (fun pid -> mem_writer.(pid)) fired in
        (* memory-commit replay is needed only when a memory writer fires
           or is solo-activated; otherwise it would write nothing *)
        let mem_round =
          fired_mw <> []
          ||
          let any = ref false in
          Ivec.iter
            (fun k -> if mem_writer.(k / stride) then any := true)
            solo;
          !any
        in
        fault_nba := [];
        preserved := [];
        preserved_mem := [];
        Ivec.clear recon;
        bn_begin ();
        List.iter
          (fun pid ->
            let cp = get_cp pid in
            cur_pid := pid;
            (match gx with
            | Grep cur ->
                let ws, mws =
                  Goodtrace.take_ff_proc cur ~pid
                    ~set_choice:(restore_choices pid)
                in
                good_writes_of.(pid) <- ws;
                good_mem_writes_of.(pid) <- mws
            | Gcap _ | Gcold ->
                cur_good_writes := [];
                cur_good_mem_writes := [];
                stats.Stats.bn_good <- stats.Stats.bn_good + 1;
                let gs_t0 =
                  if tracing then Obs.Trace.span_begin "good_sim" else 0
                in
                record_valid.(pid) <- true;
                Compile.exec_i cp ~record:record.(pid) good_reader
                  ff_good_writer;
                if tracing then Obs.Trace.span_end "good_sim" gs_t0;
                let ws = List.rev !cur_good_writes in
                let mws = List.rev !cur_good_mem_writes in
                (match gx with
                | Gcap b ->
                    Goodtrace.rec_ff_proc b ~pid ~writes:ws ~mem_writes:mws
                      ~choices:(choices_of pid)
                | _ -> ());
                good_writes_of.(pid) <- ws;
                good_mem_writes_of.(pid) <- mws);
            let n_supp = n_suppressed.(pid) in
            let mw = mem_writer.(pid) in
            let live_at = !n_live in
            let executed = ref 0 and implicit = ref 0 in
            let do_fault f =
              if
                n_supp = 0
                || not (Diffstore.Counts.mem suppressed (pair pid f))
              then begin
                cur_fault := f;
                let idiff = input_diff f in
                let must_exec =
                  match config.mode with
                  | No_redundancy -> true
                  | Explicit_only -> idiff
                  | Full ->
                      idiff
                      &&
                      if walk_redundant cp record.(pid) then begin
                        incr implicit;
                        per_proc_impl.(pid) <- per_proc_impl.(pid) + 1;
                        false
                      end
                      else true
                in
                if mem_round then involve f;
                if must_exec then begin
                  incr executed;
                  per_proc_exec.(pid) <- per_proc_exec.(pid) + 1;
                  if mw then Diffstore.Counts.bump executed_mw (pair pid f) 1;
                  preserve_for pid f;
                  stats.Stats.bn_fault_exec <- stats.Stats.bn_fault_exec + 1;
                  Compile.exec_i cp fault_reader ff_fault_writer
                end
                else Ivec.push recon (pair pid f)
              end
            in
            begin_set ();
            (match config.mode with
            | No_redundancy -> add_all_live ()
            | Explicit_only | Full ->
                Array.iter add_read_faults g.proc_reads.(pid);
                Array.iter add_read_mem_faults g.proc_read_mems.(pid);
                Array.iter add_sig_faults g.proc_nb_writes.(pid);
                Array.iter add_mem_faults g.proc_write_mems.(pid));
            Ivec.iter do_fault fset;
            stats.Stats.bn_skipped_implicit <-
              stats.Stats.bn_skipped_implicit + !implicit;
            let expl_here = live_at - n_supp - !executed - !implicit in
            stats.Stats.bn_skipped_explicit <-
              stats.Stats.bn_skipped_explicit + expl_here;
            per_proc_expl.(pid) <- per_proc_expl.(pid) + expl_here)
          fired;
        (* suppressed faults keep their (and the good network's) old register
           values: capture them before the commit moves the good values. A
           suppressed process always fired in the good network. *)
        Diffstore.Counts.iter_keys suppressed (fun k ->
            let f = k mod stride in
            preserve_for (k / stride) f;
            if mem_round then involve f);
        (* solo activations: the faulty network sees an edge the good one
           does not *)
        Ivec.iter
          (fun k ->
            let pid = k / stride and f = k mod stride in
            if (not good_fired.(pid)) && live.(f) then begin
              cur_fault := f;
              cur_pid := pid;
              stats.Stats.bn_fault_exec <- stats.Stats.bn_fault_exec + 1;
              per_proc_exec.(pid) <- per_proc_exec.(pid) + 1;
              if mem_round then involve f;
              if mem_writer.(pid) then begin
                Diffstore.Counts.bump executed_mw k 1;
                solo_mw_of.(f) <- pid :: solo_mw_of.(f)
              end;
              Compile.exec_i (get_cp pid) fault_reader ff_fault_writer
            end)
          solo;
        bn_end ();
        (* ---- commit ---- *)
        let nc_t0 = if tracing then Obs.Trace.span_begin "nba_commit" else 0 in
        List.iter
          (fun pid ->
            List.iter (fun (id, v) -> write_good id v) good_writes_of.(pid);
            List.iter
              (fun (m, a, v) -> write_good_mem m a v)
              good_mem_writes_of.(pid))
          fired;
        List.iter (fun (f, id, v) -> if live.(f) then set_diff id f v)
          (List.rev !preserved);
        List.iter
          (fun (f, m, a, v) -> if live.(f) then set_mem_diff m f a v)
          (List.rev !preserved_mem);
        Ivec.iter
          (fun k ->
            let f = k mod stride in
            if live.(f) then
              List.iter
                (fun (id, v) -> set_diff id f (force_if_site f id v))
                good_writes_of.(k / stride))
          recon;
        List.iter
          (fun (f, id, v) ->
            if live.(f) then set_diff id f (force_if_site f id v))
          (List.rev !fault_nba);
        if mem_round then begin
          Ivec.iter (replay_mem_writes fired_mw) involved;
          Ivec.clear involved
        end;
        if tracing then Obs.Trace.span_end "nba_commit" nc_t0;
        (* reset the round's bookkeeping *)
        List.iter
          (fun pid ->
            good_fired.(pid) <- false;
            n_suppressed.(pid) <- 0)
          fired;
        Diffstore.Counts.clear suppressed;
        Diffstore.Counts.clear executed_mw;
        Ivec.clear solo;
        settle ()
      end
    done
  in
  (* ---- convergence ----
     Transients that have fired and are still live. At a cycle boundary a
     fault's diff entries are its whole faulty state (DESIGN.md, "Retiring
     converged transients"), and a fired transient has no forced site, so
     one holding no diff is the good network for every later cycle: it
     retires undetected. Stuck-at faults never enter this set. *)
  let fired = ref (Ivec.create ~capacity:16 ()) in
  let spare = ref (Ivec.create ~capacity:16 ()) in
  let retired = ref 0 in
  let retire_converged () =
    let keep = !spare in
    Ivec.clear keep;
    Ivec.iter
      (fun f ->
        if live.(f) then
          if ndiff.(f) = 0 then begin
            live.(f) <- false;
            decr n_live;
            incr retired
          end
          else Ivec.push keep f)
      !fired;
    spare := !fired;
    fired := keep
  in
  (* ---- observation ---- *)
  let cycles_stepped = ref 0 in
  let observe cycle =
    incr cycles_stepped;
    (match Atomic.get chaos_corrupt_diff with
    | None -> ()
    | Some hook -> (
        match hook ~cycle ~nfaults with
        | Some f
          when f >= 0 && f < nfaults && live.(f) && Array.length g.outputs > 0
          ->
            let o = g.outputs.(0) in
            set_diff o f (Int64.logxor (fault_value f o) 1L)
        | Some _ | None -> ()));
    (match probe with
    | Some f ->
        f cycle
          (fun fid id -> Bits.make (State.width st id) (fault_value fid id))
          (fun fid m a ->
            Bits.make (State.mem_width st m) (fault_mem_value fid m a))
    | None -> ());
    Array.iter
      (fun o ->
        let tbl = diffs.(o) in
        if Diffstore.length tbl > 0 then begin
          Ivec.clear scratch_dead;
          let good = State.get st o in
          Diffstore.iter tbl (fun f v ->
              if live.(f) && v <> good then Ivec.push scratch_dead f);
          Ivec.iter
            (fun f ->
              detected.(f) <- true;
              detection_cycle.(f) <- cycle;
              live.(f) <- false;
              decr n_live)
            scratch_dead
        end)
      g.outputs;
    if not (Ivec.is_empty !fired) then retire_converged ();
    !n_live > 0
  in
  (* ---- initialisation ---- *)
  (if warm_start > 0 then begin
     (* Warm start: restore the good state from the snapshot and inject.
        Every fault in this batch activates at or after [warm_start].
        Under the cone-refined activation rule that no longer means the
        injections are no-ops: a combinationally recomputed site may
        legitimately carry a live diff here (its forced bit differs from
        the good value without having reached any register, memory or
        output yet). [set_diff] marks the fault fanout dirty, so the
        settle inside the first [step ()] rebuilds the downstream comb
        diffs before any edge detection, latch or observation runs. What
        MUST still be empty is every diff on a state-holding signal: a
        diff there persists by itself, so one surviving the injection
        means the caller batched a fault before its activation window.
        The transient guard below is the same invariant for [Flip_at]. *)
     (match goodtrace with
     | Some { Goodtrace.trace; start } ->
         State.blit ~src:(Goodtrace.snapshot_at trace start) ~dst:st
     | None -> assert false);
     Array.iter
       (fun (f : Fault.t) ->
         match f.stuck with
         | Fault.Flip_at c when c < warm_start ->
             raise
               (Goodtrace.Trace_mismatch
                  (Printf.sprintf
                     "transient fault %d fires at cycle %d, before warm \
                      start %d"
                     f.fid c warm_start))
         | _ ->
             set_diff f.signal f.fid
               (Fault.force_i64 f (State.get st f.signal)))
       faults;
     let is_state = Array.make (Array.length diffs) false in
     Array.iter
       (fun pid ->
         Array.iter (fun id -> is_state.(id) <- true) g.proc_nb_writes.(pid))
       g.ff_procs;
     Array.iteri
       (fun id tbl ->
         if is_state.(id) && not (Diffstore.is_empty tbl) then
           raise
             (Goodtrace.Trace_mismatch
                (Printf.sprintf
                   "state fault on signal %d active before warm-start cycle \
                    %d" id warm_start)))
       diffs
   end
   else begin
     Array.iter
       (fun (f : Fault.t) ->
         set_diff f.signal f.fid (Fault.force_i64 f (State.get st f.signal)))
       faults;
     for pos = 0 to ncomb - 1 do
       good_dirty.(pos) <- true;
       fault_dirty.(pos) <- true
     done;
     dirty_lo := 0;
     dirty_hi := ncomb - 1;
     settle ();
     match gx with Gcap b -> Goodtrace.rec_init_done b | _ -> ()
   end);
  for ci = 0 to nclk - 1 do
    let c = g.clocks.(ci) in
    prev_clock_good.(ci) <- State.get st c;
    Diffstore.clear prev_clock_diff.(ci);
    Diffstore.iter diffs.(c) (fun f v ->
        if live.(f) then Diffstore.set prev_clock_diff.(ci) f v)
  done;
  (* ---- drive the workload ---- *)
  let inject_transients cycle =
    match Hashtbl.find_opt transients_at cycle with
    | None -> ()
    | Some l ->
        List.iter
          (fun (f : Fault.t) ->
            if live.(f.fid) then begin
              let cur = fault_value f.fid f.signal in
              set_diff f.signal f.fid
                (Bitops.force_bit cur f.bit (not (Bitops.bit cur f.bit)));
              Ivec.push !fired f.fid
            end)
          l
  in
  (match gx with
  | Gcold ->
      Workload.run ~on_cycle_start:inject_transients w
        ~set_input:(fun id v -> write_good id (Bits.to_int64 v))
        ~step ~observe
  | Gcap b ->
      (* A capture run has no faults, so [observe] would stop after the
         first cycle (nothing is live); force the full workload and record
         the output vector and snapshot boundary each cycle. *)
      Workload.run ~on_cycle_start:inject_transients w
        ~set_input:(fun id v ->
          let v64 = Bits.to_int64 v in
          Goodtrace.rec_input b id v64;
          write_good id v64)
        ~step:(fun () ->
          Goodtrace.rec_step b;
          step ())
        ~observe:(fun cycle ->
          let (_ : bool) = observe cycle in
          Goodtrace.rec_cycle_done b
            ~outputs:(Array.map (fun o -> State.get st o) g.outputs)
            ~state:st;
          true)
  | Grep cur ->
      (* Same per-cycle protocol as {!Workload.run}, but inputs and clock
         toggles come from the recorded stream. [drive] is still called
         for its side effects — budget watchdogs and drive validation
         piggyback on it — and its (identical) entries are discarded. *)
      stats.Stats.good_cycles_skipped <- warm_start;
      let continue_ = ref true in
      let cycle = ref warm_start in
      while !continue_ && !cycle < w.Workload.cycles do
        inject_transients !cycle;
        ignore (w.Workload.drive !cycle);
        for _phase = 1 to 2 do
          let rec replay_inputs () =
            match Goodtrace.take_input cur with
            | Some (id, v) ->
                write_good id v;
                replay_inputs ()
            | None -> ()
          in
          replay_inputs ();
          Goodtrace.take_step cur;
          step ()
        done;
        continue_ := observe !cycle;
        incr cycle
      done);
  stats.Stats.per_proc <-
    Array.mapi
      (fun pid (p : Design.proc) ->
        {
          Stats.pr_name = p.pname;
          pr_exec = per_proc_exec.(pid);
          pr_impl = per_proc_impl.(pid);
          pr_expl = per_proc_expl.(pid);
        })
      d.procs;
  (* debug knob: simulate an engine bug by flipping one verdict, so the
     online divergence check of the resilient runner can be exercised *)
  (match config.corrupt_verdict with
  | Some f when f >= 0 && f < nfaults ->
      detected.(f) <- not detected.(f);
      detection_cycle.(f) <- (if detected.(f) then 0 else -1)
  | Some _ | None -> ());
  let wall = Stats.now () -. t_start in
  (* One engine run is single-threaded, so its CPU time equals its wall
     time. [Stats.add] sums [cpu_seconds] across workers but not
     [total_seconds] — coordinators overwrite the latter with campaign wall
     time. *)
  stats.Stats.cpu_seconds <- wall;
  stats.Stats.total_seconds <- wall;
  if tracing then Obs.Trace.span_end "fault_sim_run" run_t0;
  if metrics_on then begin
    Obs.Metrics.add "engine.runs" 1;
    (match gx with
    | Grep _ ->
        Obs.Metrics.add "goodtrace.replays" 1;
        if warm_start > 0 then begin
          Obs.Metrics.add "goodtrace.snapshot_restores" 1;
          Obs.Metrics.add "goodtrace.cycles_skipped" warm_start
        end
    | Gcap _ | Gcold -> ());
    Obs.Metrics.add "engine.bn_good" stats.Stats.bn_good;
    Obs.Metrics.add "engine.bn_fault_exec" stats.Stats.bn_fault_exec;
    Obs.Metrics.add "engine.bn_skip_explicit" stats.Stats.bn_skipped_explicit;
    Obs.Metrics.add "engine.bn_skip_implicit" stats.Stats.bn_skipped_implicit;
    Obs.Metrics.add "engine.rtl_good_eval" stats.Stats.rtl_good_eval;
    Obs.Metrics.add "engine.rtl_fault_eval" stats.Stats.rtl_fault_eval;
    Obs.Metrics.add "engine.transients_retired" !retired;
    Obs.Metrics.add "engine.cycles_stepped" !cycles_stepped;
    Array.iter
      (fun (r : Stats.proc_row) ->
        Obs.Metrics.add ("engine.proc." ^ r.pr_name ^ ".exec") r.pr_exec;
        Obs.Metrics.add
          ("engine.proc." ^ r.pr_name ^ ".skip_implicit")
          r.pr_impl;
        Obs.Metrics.add
          ("engine.proc." ^ r.pr_name ^ ".skip_explicit")
          r.pr_expl)
      stats.Stats.per_proc;
    Obs.Metrics.merge_histogram "engine.vdg_walk_depth" vdg_hist
      ~count:!vdg_count ~sum:!vdg_sum ~max:!vdg_max;
    for f = 0 to nfaults - 1 do
      if detected.(f) then
        Obs.Metrics.observe "engine.detection_latency_cycles"
          (float_of_int detection_cycle.(f))
    done
  end;
  Fault.make_result ~detected ~detection_cycle ~stats ~wall_time:wall ()

let run ?config ?probe ?goodtrace ?instance:existing ?ids g w faults =
  let faults =
    match ids with
    | None -> faults
    | Some ids ->
        Array.mapi (fun i id -> { faults.(id) with Fault.fid = i }) ids
  in
  let inst =
    match existing with Some inst -> inst | None -> instance g
  in
  run_gmode ?config ?probe ?goodtrace ~capture_into:None inst w faults

let default_snapshot_every ~cycles = max 8 (cycles / 16)

let capture ?config ?snapshot_every ?instance:existing (g : Elaborate.t)
    (w : Workload.t) =
  let inst = match existing with Some i -> i | None -> instance g in
  let k =
    match snapshot_every with
    | Some k -> max 1 k
    | None -> default_snapshot_every ~cycles:w.Workload.cycles
  in
  let b =
    Goodtrace.builder ~cycles:w.Workload.cycles ~clock:w.Workload.clock
      ~nout:(Array.length g.Elaborate.outputs) ~snapshot_every:k
  in
  let (_ : Fault.result) =
    run_gmode ?config ~capture_into:(Some b) inst w [||]
  in
  let t = Goodtrace.finish b in
  Obs.Metrics.add "goodtrace.captures" 1;
  Obs.Metrics.add "goodtrace.capture_bytes" t.Goodtrace.capture_bytes;
  t

let sites_of faults =
  Array.map
    (fun (f : Fault.t) ->
      {
        Goodtrace.s_signal = f.signal;
        s_bit = f.bit;
        s_kind =
          (match f.stuck with
          | Fault.Stuck_at_0 -> Goodtrace.Stuck0
          | Fault.Stuck_at_1 -> Goodtrace.Stuck1
          | Fault.Flip_at c -> Goodtrace.Transient c);
      })
    faults

let activations ?cone trace (g : Elaborate.t) faults =
  let cone = match cone with Some c -> c | None -> Cone.build g in
  Goodtrace.activations trace ~cone (sites_of faults)

let statically_undetectable ?cone (g : Elaborate.t) faults =
  let cone = match cone with Some c -> c | None -> Cone.build g in
  Array.map
    (fun (f : Fault.t) -> not (Cone.observable cone f.signal))
    faults
