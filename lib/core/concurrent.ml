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
  corrupt_verdict : int option;
}

let default_config = { mode = Full; instrument = false; corrupt_verdict = None }

(* Chaos seam, installed by the harness (Harness.Chaos): consulted once per
   observation point. Returning [Some f] flips the low bit of fault [f]'s
   view of the first output port — a deterministic stand-in for a corrupted
   diff-store entry, visible to the detection scan of the same cycle. The
   engine library cannot depend on the harness, so the hook lives here as a
   process-global; the disabled path costs a single [Atomic.get]. *)
let chaos_corrupt_diff :
    (cycle:int -> nfaults:int -> int option) option Atomic.t =
  Atomic.make None

(* A behavioral process as the engine runs it: its comb position (-1 for an
   ff process) and the signals it writes — a comb process's blocking
   targets, covered on every path, or an ff process's nonblocking ones. *)
type proc_node = { pos : int; pid : int; cp : Kernel.body; writes : int array }

(* A continuous assign as the engine runs it: its comb position, target,
   compiled program, and where a run records its good path (the reads the
   good evaluation executed) in the run's path buffer. *)
type assign_node = {
  apos : int;
  target : int;
  prog : Kernel.t;
  path_off : int;
}

type node = Kassign of assign_node | Kcomb of proc_node | Kff of proc_node

(* An instance is the compiled form of one elaborated design: every
   behavioral body and every continuous-assign expression, compiled once
   into kernel programs (widths resolved at compile time, values flow as
   masked int64 payloads), plus every table that depends only on the
   design. Its only mutable parts are the programs' registers and the
   walks' written sets, scratch space that no result outlives. All
   per-campaign mutable state lives inside each {!run}, so a single
   instance can be reused across any number of sequential runs — the
   parallel harness gives each worker domain its own instance and reuses
   it for every batch that worker executes. Instances must not be shared
   across domains concurrently. *)
type instance = {
  inst_graph : Elaborate.t;
  comb_nodes : node array;  (* by topological comb position *)
  procs : proc_node array;  (* by process id *)
  decision_ids : int array array;
      (* Canonical decision-node order of a process: both capture and
         replay derive it independently from the compiled CFG, so a trace
         only needs to store the taken-branch choices, not whole record
         arrays. *)
  mem_writer : bool array;  (* by process id: writes some memory *)
  is_state : bool array;  (* by signal id: an ff process's nonblocking target *)
  path_size : int;  (* every assign's read instructions, summed *)
}

let instance (g : Elaborate.t) =
  let d = g.Elaborate.design in
  let sig_width i = d.Design.signals.(i).Design.width in
  let mem_width m = d.Design.mems.(m).Design.data_width in
  let mem_size m = d.Design.mems.(m).Design.size in
  let procs =
    Array.mapi
      (fun pid (p : Design.proc) ->
        {
          pos = -1;
          pid;
          cp = Kernel.body ~sig_width ~mem_width ~mem_size p.body;
          writes = g.proc_nb_writes.(pid);
        })
      d.procs
  in
  let path_size = ref 0 in
  let comb_nodes =
    Array.mapi
      (fun pos node ->
        match node with
        | Elaborate.Cassign i ->
            let a = d.assigns.(i) in
            let prog =
              Kernel.compile ~sig_width ~mem_width ~mem_size a.expr
            in
            let path_off = !path_size in
            path_size := path_off + prog.Kernel.nreads;
            Kassign { apos = pos; target = a.target; prog; path_off }
        | Elaborate.Cproc pid ->
            let p = { (procs.(pid)) with pos; writes = g.comb_writes.(pos) } in
            procs.(pid) <- p;
            Kcomb p)
      g.comb_nodes
  in
  let is_state = Array.make (Design.num_signals d) false in
  Array.iter
    (fun pid ->
      Array.iter (fun id -> is_state.(id) <- true) g.proc_nb_writes.(pid))
    g.ff_procs;
  {
    inst_graph = g;
    comb_nodes;
    procs;
    decision_ids = Array.map (fun p -> Kernel.decisions p.cp) procs;
    mem_writer = Array.map (fun ms -> Array.length ms > 0) g.proc_write_mems;
    is_state;
    path_size = !path_size;
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
  | Grep of Goodtrace.warm * Goodtrace.cursor

(* ---- NBA logs ----
   A round's fault-side NBA entries, in the order they were appended.
   Entry [i] is a fault, a signal or memory, and an address (-1 for a
   signal) at [keys.{3i}], [keys.{3i+1}] and [keys.{3i+2}], with its value
   unboxed at [vals.{i}]. A round resets a log by its length and a full
   log doubles, so once grown an append moves no minor word. Both columns
   live outside the OCaml heap: as int arrays, each doubling would leave a
   large major-heap block behind, and on bn_cold the major heap then
   creeps up from run to run. *)
type log = {
  mutable keys : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable vals : Faultmap.i64a;
  mutable len : int;
}

let log_create () =
  {
    keys = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 192;
    vals = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 64;
    len = 0;
  }

(* Appends an entry and returns its index, where the caller stores the
   value: passing the value here would box it. *)
let log_add l f id addr =
  let n = l.len in
  if n = Bigarray.Array1.dim l.vals then begin
    let keys = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (6 * n) in
    let vals = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (2 * n) in
    Bigarray.Array1.blit l.keys (Bigarray.Array1.sub keys 0 (3 * n));
    Bigarray.Array1.blit l.vals (Bigarray.Array1.sub vals 0 n);
    l.keys <- keys;
    l.vals <- vals
  end;
  Bigarray.Array1.unsafe_set l.keys (3 * n) f;
  Bigarray.Array1.unsafe_set l.keys ((3 * n) + 1) id;
  Bigarray.Array1.unsafe_set l.keys ((3 * n) + 2) addr;
  l.len <- n + 1;
  n

(* Entry [i]'s fault ([k] = 0), signal or memory (1) or address (2). *)
let[@inline] log_key l i k = Bigarray.Array1.unsafe_get l.keys ((3 * i) + k)

(* One engine run's state: built by [create], read and written by the six
   phase functions, packed into a result by [finish]. *)
type run = {
  inst : instance;
  g : Elaborate.t;
  config : config;
  gx : gexec;
  warm_start : int;  (* first simulated cycle: a replay's snapshot cycle *)
  w : Workload.t;
  probe :
    (int -> (int -> int -> Bits.t) -> (int -> int -> int -> Bits.t) -> unit)
    option;
  (* Observability is enabled (or not) before the run starts, so the flags
     are read once: the disabled hot path pays one branch on an
     already-loaded bool instead of an atomic load per event. *)
  tracing : bool;
  metrics_on : bool;
  t_start : float;
  run_t0 : int;
  stats : Stats.t;
  st : State.t;  (* the good state *)
  (* ---- fault bookkeeping ---- *)
  faults : Fault.t array;
  nfaults : int;
  live : bool array;
  detected : bool array;
  detection_cycle : int array;
  mutable n_live : int;
  ndiff : int array;
      (* Per fault: how many signal and memory diff entries it holds. A
         live fault with none is the good network (DESIGN.md, "Retiring
         converged transients"). *)
  diffs : Faultmap.t array;  (* by signal *)
  mem_diffs : Diffstore.t array;
  mem_fault_words : Diffstore.Counts.t array;
  site_faults : int list array;
  transients_at : (int, Fault.t list) Hashtbl.t;
  scratch_dead : Ivec.t;
  (* ---- dirty tracking over topological comb positions ---- *)
  good_dirty : bool array;
  fault_dirty : bool array;
  mutable dirty_hi : int;
  mutable dirty_lo : int;
  mutable current_pos : int;
      (* node being evaluated right now: no self-triggering on own writes *)
  (* ---- what the kernel programs read, and where bodies store ---- *)
  kview : Kernel.view;
  sink : Kernel.sink;
  replay_write : int -> int64 -> unit;
      (* [write_good], for [Goodtrace]'s comb-process replay: built once,
         not partially applied per replayed event *)
  mutable cur_pid : int;
  fault_nba : log;  (* the fault copies' own nonblocking stores *)
  fault_mem_writes : (int * int * int * int64) list array;
      (* per fault: its own copies' memory writes this round, newest first,
         as (pid, mem, addr, value) *)
  rows : Stats.proc_row array;  (* by process id *)
  record : int array array;
  record_valid : bool array;
      (* [record.(pid)] only reflects the good network's latest branch
         choices once the proc has executed (or been replayed) in THIS
         run. A warm start restores state from a snapshot without
         replaying history, so a comb proc can become fault-dirty before
         its first replayed good event: until then its record is unset and
         the implicit-redundancy walk must not consult it. *)
  (* ---- assign good paths ---- *)
  path : int array;
  path_len : int array;
      (* By comb position: how many reads of [path] (from the assign's
         [path_off]) the good evaluation executed, or -1. A path is valid
         from this run's last good evaluation of the position until the
         position next becomes good-dirty: until then every value it read
         is unchanged. Replay ([Grep]) sets no path; [assign_faults]
         evaluates one from the replayed good state when it needs it. *)
  sig_seen : int array;
      (* by signal: the fault-set generation that last scanned it *)
  (* ---- per-node fault set collection ---- *)
  stamp : int array;
  mutable gen : int;
  fset : Ivec.t;
  rstamp : int array;
      (* Read stamps: collecting a node's fault set from its *read* signals
         and memories stamps each fault with the set's generation, so "does
         this fault see a diff on any input" is one array read afterwards.
         Exact because a stored signal diff always differs from the good
         value ([set_diff] and [write_good] drop equal entries) and a
         memory's fault index holds exactly the faults with a diverging
         word. *)
  walk_steps : int ref;
  vdg_hist : int array;
  mutable vdg_sum : float;
  mutable vdg_max : float;
  mutable bn_clock : float;
  mutable bn_trace : int;
  (* ---- clock edge tracking ---- *)
  prev_clock_good : int64 array;
  prev_clock_diff : Faultmap.t array;
  (* ---- edge-round bookkeeping, allocated once per run ----
     A pair key [pid * stride + f] names fault [f]'s copy of process [pid].
     Each round resets what it filled, touching only the processes and
     faults it fired, suppressed or executed. *)
  stride : int;
  good_fired : bool array;
  good_writes_of : (int * int64) list array;
  good_mem_writes_of : (int * int * int64) list array;
  suppressed : Diffstore.Counts.t;
  n_suppressed : int array;
  solo : Ivec.t;
  recon : Ivec.t;
  executed_mw : Diffstore.Counts.t;
      (* memory writers only: the pairs that executed their own copy, and
         per fault the solo-activated writers *)
  solo_mw_of : int list array;
  involved : Ivec.t;
  istamp : int array;
  mutable round_no : int;
  preserved : log;
      (* the old values of a good round's targets, signals and memory
         words, per fault whose copy executed or was suppressed *)
  (* ---- convergence ----
     Transients that have fired and are still live. At a cycle boundary a
     fault's diff entries are its whole faulty state (DESIGN.md, "Retiring
     converged transients"), and a fired transient has no forced site, so
     one holding no diff is the good network for every later cycle: it
     retires undetected. Stuck-at faults never enter this set. *)
  mutable fired_seus : Ivec.t;
  mutable spare_seus : Ivec.t;
  mutable retired : int;
  mutable cycles_stepped : int;
}

(* Memories are written at commit, where no node is current, so signal and
   memory fanout share one rule. *)
let mark_fanout r fo ~good =
  for i = 0 to Array.length fo - 1 do
    let pos = fo.(i) in
    if pos <> r.current_pos then begin
      if good then r.good_dirty.(pos) <- true;
      r.fault_dirty.(pos) <- true;
      if pos > r.dirty_hi then r.dirty_hi <- pos;
      if pos < r.dirty_lo then r.dirty_lo <- pos
    end
  done

(* ---- diff store ----
   Payload equality is full equality: every stored payload is masked to
   its signal's width, and a slot's good value shares that width. The hot
   reads below load the good state's and the diff tables' Bigarrays
   directly: a call into [State] or [Faultmap] would box its int64 result
   (dev builds compile every module [-opaque]). *)
let[@inline] good_value r id = Bigarray.Array1.unsafe_get r.st.State.sig_v id

let[@inline] diff_slot tbl f =
  if tbl.Faultmap.count = 0 then -1
  else Int32.to_int (Bigarray.Array1.unsafe_get tbl.Faultmap.pos f)

let[@inline] fault_value r f id =
  let tbl = r.diffs.(id) in
  let slot = diff_slot tbl f in
  if slot >= 0 then Bigarray.Array1.unsafe_get tbl.Faultmap.vals slot
  else good_value r id

(* [v] is not fault [f]'s current value of [id]: so a [v] equal to the
   good value means [f] holds a diff there. *)
let change_diff r id f v =
  let tbl = r.diffs.(id) in
  if v = good_value r id then begin
    Faultmap.remove tbl f;
    r.ndiff.(f) <- r.ndiff.(f) - 1
  end
  else begin
    if diff_slot tbl f < 0 then r.ndiff.(f) <- r.ndiff.(f) + 1;
    Faultmap.set tbl f v
  end;
  mark_fanout r r.g.fanout_comb.(id) ~good:false

(* Inlined, so that storing fault [f]'s current value, common at the NBA
   commit, boxes nothing. *)
let[@inline] set_diff r id f v =
  if fault_value r f id <> v then change_diff r id f v

let[@inline] force_if_site r f id v =
  let fa = r.faults.(f) in
  if fa.Fault.signal = id then Fault.force_i64 fa v else v

let mem_key r m f a = (f * State.mem_size r.st m) + a

(* Only a fault in the memory's index can hold a diverging word. *)
let fault_mem_value r f m a =
  let good =
    Bigarray.Array1.unsafe_get r.st.State.mem_v (r.st.State.mem_base.(m) + a)
  in
  if Diffstore.Counts.mem r.mem_fault_words.(m) f then
    Diffstore.find r.mem_diffs.(m) (mem_key r m f a) ~default:good
  else good

let mem_words_bump r m f delta =
  r.ndiff.(f) <- r.ndiff.(f) + delta;
  Diffstore.Counts.bump r.mem_fault_words.(m) f delta

let set_mem_diff r m f a v =
  let key = mem_key r m f a in
  let tbl = r.mem_diffs.(m) in
  let good = State.get_mem r.st m a in
  let fo = r.g.fanout_mem.(m) in
  if v = good then begin
    if Diffstore.mem tbl key then begin
      Diffstore.remove tbl key;
      mem_words_bump r m f (-1);
      mark_fanout r fo ~good:false
    end
  end
  else if Diffstore.mem tbl key then begin
    if Diffstore.find tbl key ~default:good <> v then begin
      Diffstore.set tbl key v;
      mark_fanout r fo ~good:false
    end
  end
  else begin
    Diffstore.set tbl key v;
    mem_words_bump r m f 1;
    mark_fanout r fo ~good:false
  end

(* ---- good writes (with fault-site injection and stale-diff sweep) ---- *)
let remove_dead r tbl =
  for i = 0 to Ivec.length r.scratch_dead - 1 do
    let f = Ivec.get r.scratch_dead i in
    Faultmap.remove tbl f;
    r.ndiff.(f) <- r.ndiff.(f) - 1
  done

let rec write_good r id v =
  if good_value r id <> v then begin
    Bigarray.Array1.unsafe_set r.st.State.sig_v id v;
    let tbl = r.diffs.(id) in
    if tbl.Faultmap.count > 0 then begin
      Ivec.clear r.scratch_dead;
      for i = 0 to tbl.Faultmap.count - 1 do
        let f = tbl.Faultmap.keys.(i) in
        if
          (not r.live.(f))
          || Bigarray.Array1.unsafe_get tbl.Faultmap.vals i = v
        then Ivec.push r.scratch_dead f
      done;
      remove_dead r tbl
    end;
    mark_fanout r r.g.fanout_comb.(id) ~good:true
  end;
  force_sites r id v r.site_faults.(id)

(* The faults sited on [id] see the good value [v] forced. *)
and force_sites r id v = function
  | [] -> ()
  | f :: fs ->
      if r.live.(f) then set_diff r id f (Fault.force_i64 r.faults.(f) v);
      force_sites r id v fs

let write_good_mem r m a v =
  if State.get_mem r.st m a <> v then begin
    State.set_mem r.st m a v;
    mark_fanout r r.g.fanout_mem.(m) ~good:true
  end

(* ---- the store sink ----
   Where the kernel hands a body's stores, the value in the program's
   output register; [f] is -1 for the good copy. The good copy writes the
   good state (a blocking store, recorded when capturing) or queues its
   round's writes for the NBA commit. A fault's copy sets its diffs (a
   blocking store, forced at its site) or queues its own writes. Design
   validation keeps blocking writes in comb processes and the rest in ff
   processes. *)
let[@inline] stored (p : Kernel.t) = Bigarray.Array1.unsafe_get p.regs p.out

let store_blocking r f id p =
  let v = stored p in
  if f < 0 then begin
    (match r.gx with
    | Gcap _ ->
        r.good_writes_of.(r.cur_pid) <- (id, v) :: r.good_writes_of.(r.cur_pid)
    | Gcold | Grep _ -> ());
    write_good r id v
  end
  else set_diff r id f (force_if_site r f id v)

let store_nonblocking r f id p =
  let v = stored p in
  if f < 0 then
    r.good_writes_of.(r.cur_pid) <- (id, v) :: r.good_writes_of.(r.cur_pid)
  else
    let i = log_add r.fault_nba f id (-1) in
    Bigarray.Array1.unsafe_set r.fault_nba.vals i v

let store_mem r f m a p =
  let v = stored p in
  if f < 0 then
    r.good_mem_writes_of.(r.cur_pid) <-
      (m, a, v) :: r.good_mem_writes_of.(r.cur_pid)
  else r.fault_mem_writes.(f) <- (r.cur_pid, m, a, v) :: r.fault_mem_writes.(f)

(* ---- branch records ---- *)
let choices_of r pid =
  let rc = r.record.(pid) in
  Array.map (fun i -> rc.(i)) r.inst.decision_ids.(pid)

let restore_choices r pid =
  let rc = r.record.(pid) in
  let ids = r.inst.decision_ids.(pid) in
  r.record_valid.(pid) <- true;
  fun k c -> rc.(ids.(k)) <- c

(* ---- per-node fault set collection ---- *)
let begin_set r =
  r.gen <- r.gen + 1;
  Ivec.clear r.fset

let add_fault r f =
  if r.live.(f) && r.stamp.(f) <> r.gen then begin
    r.stamp.(f) <- r.gen;
    Ivec.push r.fset f
  end

let add_read_fault r f =
  r.rstamp.(f) <- r.gen;
  add_fault r f

let scan_sig_faults r add id =
  let tbl = r.diffs.(id) in
  if tbl.Faultmap.count > 0 then begin
    Ivec.clear r.scratch_dead;
    let keys = tbl.Faultmap.keys in
    for i = 0 to tbl.Faultmap.count - 1 do
      let f = keys.(i) in
      if r.live.(f) then add r f else Ivec.push r.scratch_dead f
    done;
    remove_dead r tbl
  end

let scan_mem_faults r add m =
  Diffstore.Counts.iter_keys r.mem_fault_words.(m) (fun f ->
      if r.live.(f) then add r f)

(* [scan r add ids] scans every signal (or memory, with [scan_mem_faults])
   in [ids]; a loop rather than [Array.iter] over a partial application
   keeps the per-node collection allocation-free. *)
let scan_all scan r add ids =
  for i = 0 to Array.length ids - 1 do
    scan r add ids.(i)
  done

let input_diff r f = r.rstamp.(f) = r.gen

let add_all_live r =
  for f = 0 to r.nfaults - 1 do
    add_fault r f
  done

(* The faults whose copy of [p] may differ: those with a diff on what it
   reads (stamped as input diffs) or on what it writes. *)
let proc_fault_set r p =
  scan_all scan_sig_faults r add_read_fault r.g.proc_reads.(p.pid);
  scan_all scan_mem_faults r add_read_fault r.g.proc_read_mems.(p.pid);
  scan_all scan_sig_faults r add_fault p.writes;
  scan_all scan_mem_faults r add_fault r.g.proc_write_mems.(p.pid)

(* ---- Algorithm 1: the implicit-redundancy walk ---- *)
let walk_redundant r p f =
  let t0 = if r.tracing then Obs.Trace.span_begin "vdg_walk" else 0 in
  r.walk_steps := 0;
  let res =
    Kernel.redundant p.cp r.kview f ~choices:r.record.(p.pid)
      ~visited:r.walk_steps
  in
  if r.tracing then Obs.Trace.span_end "vdg_walk" t0;
  if r.metrics_on then begin
    let depth = float_of_int !(r.walk_steps) in
    let b = Obs.Metrics.bucket_of depth in
    r.vdg_hist.(b) <- r.vdg_hist.(b) + 1;
    r.vdg_sum <- r.vdg_sum +. depth;
    if depth > r.vdg_max then r.vdg_max <- depth
  end;
  res

(* Whether fault [f]'s copy of [p] must execute (explicit and implicit
   elimination). [site]: [f] sits on a blocking-write target of [p]. *)
let must_execute r p ~site f =
  let idiff = input_diff r f in
  match r.config.mode with
  | No_redundancy -> true
  | Explicit_only -> idiff || site
  | Full ->
      (idiff || site)
      &&
      if
        (not site)
        && r.record_valid.(p.pid)
        && walk_redundant r p f
      then begin
        r.rows.(p.pid).pr_impl <- r.rows.(p.pid).pr_impl + 1;
        false
      end
      else true

(* Of the [considered] copies at one activation, those neither executed nor
   implicitly skipped since [row] read [exec0]/[impl0] were explicit skips. *)
let count_explicit (row : Stats.proc_row) ~considered ~exec0 ~impl0 =
  row.pr_expl <-
    row.pr_expl + considered - (row.pr_exec - exec0) - (row.pr_impl - impl0)

(* ---- instrumentation ---- *)
let bn_begin r =
  if r.config.instrument then r.bn_clock <- Stats.now ();
  if r.tracing then r.bn_trace <- Obs.Trace.span_begin "bn_eval"

let bn_end r =
  if r.config.instrument then
    r.stats.Stats.bn_seconds <-
      r.stats.Stats.bn_seconds +. (Stats.now () -. r.bn_clock);
  if r.tracing then Obs.Trace.span_end "bn_eval" r.bn_trace

(* Evaluates the assign on the good state, recording its path. *)
let eval_good_path r a =
  r.path_len.(a.apos) <-
    Kernel.eval_good a.prog r.kview ~path:r.path ~off:a.path_off

(* ---- phase 1: good step ----
   The good network's result at one node: [Gcold] and [Gcap] evaluate it
   ([Gcap] also records it), [Grep] applies the recorded one. *)
let good_step r node =
  match (node, r.gx) with
  | Kassign a, Grep (_, cur) ->
      r.path_len.(a.apos) <- -1;
      write_good r a.target (Goodtrace.take_assign cur ~pos:a.apos)
  | Kassign a, (Gcold | Gcap _) ->
      r.stats.Stats.rtl_good_eval <- r.stats.Stats.rtl_good_eval + 1;
      eval_good_path r a;
      let v = Bigarray.Array1.unsafe_get a.prog.regs a.prog.out in
      (match r.gx with
      | Gcap b -> Goodtrace.rec_assign b ~pos:a.apos ~target:a.target v
      | Gcold | Grep _ -> ());
      write_good r a.target v
  | Kcomb p, Grep (_, cur) ->
      Goodtrace.take_comb_proc cur ~pos:p.pos ~pid:p.pid
        ~set_choice:(restore_choices r p.pid)
        ~write:r.replay_write
  | Kff p, Grep (_, cur) ->
      let ws, mws =
        Goodtrace.take_ff_proc cur ~pid:p.pid
          ~set_choice:(restore_choices r p.pid)
      in
      r.good_writes_of.(p.pid) <- ws;
      r.good_mem_writes_of.(p.pid) <- mws
  | (Kcomb p | Kff p), (Gcold | Gcap _) -> (
      r.stats.Stats.bn_good <- r.stats.Stats.bn_good + 1;
      let t0 = if r.tracing then Obs.Trace.span_begin "good_sim" else 0 in
      r.cur_pid <- p.pid;
      r.good_writes_of.(p.pid) <- [];
      r.good_mem_writes_of.(p.pid) <- [];
      r.record_valid.(p.pid) <- true;
      Kernel.exec_good p.cp r.kview ~record:r.record.(p.pid) r.sink;
      if r.tracing then Obs.Trace.span_end "good_sim" t0;
      let ws = List.rev r.good_writes_of.(p.pid) in
      let mws = List.rev r.good_mem_writes_of.(p.pid) in
      r.good_writes_of.(p.pid) <- ws;
      r.good_mem_writes_of.(p.pid) <- mws;
      match (r.gx, node) with
      | Gcap b, Kcomb _ ->
          Goodtrace.rec_comb_proc b ~pos:p.pos ~pid:p.pid ~writes:ws
            ~choices:(choices_of r p.pid)
      | Gcap b, _ ->
          Goodtrace.rec_ff_proc b ~pid:p.pid ~writes:ws ~mem_writes:mws
            ~choices:(choices_of r p.pid)
      | (Gcold | Grep _), _ -> ())

(* ---- phase 2: comb settle ----
   One ordered sweep over the dirty comb positions: each node's good result,
   then the copies of the faults that may see it differently. *)
let rec any_sig_diff r ids i =
  i < Array.length ids
  && ((not (Faultmap.is_empty r.diffs.(ids.(i)))) || any_sig_diff r ids (i + 1))

let rec any_mem_diff r ms i =
  i < Array.length ms
  && (Diffstore.Counts.length r.mem_fault_words.(ms.(i)) > 0
     || any_mem_diff r ms (i + 1))

(* The faults with a diff on a read of the assign's good path. *)
let scan_path r a =
  for i = a.path_off to a.path_off + r.path_len.(a.apos) - 1 do
    let e = r.path.(i) in
    if e < 0 then scan_mem_faults r add_fault (lnot e)
    else if r.sig_seen.(e) <> r.gen then begin
      r.sig_seen.(e) <- r.gen;
      scan_sig_faults r add_fault e
    end
  done

(* Algorithm 1 for RTL nodes ([Full] only): a fault whose diffs sit off the
   good path (on untaken mux arms, say) reads the good values on it, so it
   takes the same path to the good value, and it is not evaluated. A fault
   with a diff on the target is still evaluated, to reconcile that diff.
   Without a valid path, one is evaluated only when some read diverges. *)
let assign_faults r a =
  begin_set r;
  (match r.config.mode with
  | Full ->
      if
        r.path_len.(a.apos) < 0
        && (any_sig_diff r r.g.comb_reads.(a.apos) 0
           || any_mem_diff r r.g.comb_read_mems.(a.apos) 0)
      then eval_good_path r a;
      scan_path r a
  | Explicit_only | No_redundancy ->
      scan_all scan_sig_faults r add_fault r.g.comb_reads.(a.apos);
      scan_all scan_mem_faults r add_fault r.g.comb_read_mems.(a.apos));
  scan_sig_faults r add_fault a.target;
  r.stats.Stats.rtl_fault_eval <-
    r.stats.Stats.rtl_fault_eval + Ivec.length r.fset;
  for i = 0 to Ivec.length r.fset - 1 do
    let f = Ivec.get r.fset i in
    let changed = Kernel.eval_fault a.prog r.kview f ~target:a.target in
    let v = Bigarray.Array1.unsafe_get a.prog.regs a.prog.out in
    let fa = r.faults.(f) in
    if fa.Fault.signal = a.target then
      set_diff r a.target f (Fault.force_i64 fa v)
    else if changed then set_diff r a.target f v
  done

(* Loops rather than [Array.exists]/[Array.iter] over a closure, and the
   good value read unboxed: a fault copy allocates nothing here. *)
let rec writes_signal ws s i =
  i < Array.length ws && (ws.(i) = s || writes_signal ws s (i + 1))

let comb_proc_fault r p f =
  let site =
    (not (Fault.is_transient r.faults.(f)))
    && writes_signal p.writes r.faults.(f).Fault.signal 0
  in
  if must_execute r p ~site f then begin
    r.rows.(p.pid).pr_exec <- r.rows.(p.pid).pr_exec + 1;
    Kernel.exec_fault p.cp r.kview f r.sink
  end
  else
    (* reconcile: the faulty execution would write the good values (comb
       bodies assign every target on every path) *)
    for i = 0 to Array.length p.writes - 1 do
      let t = p.writes.(i) in
      set_diff r t f (force_if_site r f t (good_value r t))
    done

let comb_proc_faults r p ~gd =
  let live_at = r.n_live in
  let row = r.rows.(p.pid) in
  let exec0 = row.pr_exec and impl0 = row.pr_impl in
  begin_set r;
  if gd && r.config.mode = No_redundancy then add_all_live r
  else proc_fault_set r p;
  (* Faults sited on a blocking-write target must always execute: forcing
     the bit at an intermediate write can steer a later branch even when
     the final forced value happens to equal the good value (so no diff
     survives to flag them). *)
  for i = 0 to Array.length p.writes - 1 do
    List.iter (add_fault r) r.site_faults.(p.writes.(i))
  done;
  for i = 0 to Ivec.length r.fset - 1 do
    comb_proc_fault r p (Ivec.get r.fset i)
  done;
  count_explicit row
    ~considered:(if gd then live_at else Ivec.length r.fset)
    ~exec0 ~impl0

let comb_settle r =
  let pos = ref r.dirty_lo in
  while !pos <= r.dirty_hi do
    let gd = r.good_dirty.(!pos) and fd = r.fault_dirty.(!pos) in
    if gd || fd then begin
      r.current_pos <- !pos;
      r.good_dirty.(!pos) <- false;
      r.fault_dirty.(!pos) <- false;
      (match r.inst.comb_nodes.(!pos) with
      | Kassign a as node ->
          if gd then good_step r node;
          assign_faults r a
      | (Kcomb p | Kff p) as node ->
          bn_begin r;
          if gd then good_step r node;
          comb_proc_faults r p ~gd;
          bn_end r);
      r.current_pos <- -1
    end;
    incr pos
  done;
  r.dirty_lo <- Array.length r.good_dirty;
  r.dirty_hi <- -1

(* ---- phase 3: edge detect ----
   The ff processes the good network fires, in process order, and per-fault
   edge divergence for faults with a diff on a clock now or at the previous
   slot: suppressed copies and solo activations. *)
let latch_clock r ci =
  let c = r.g.clocks.(ci) in
  r.prev_clock_good.(ci) <- State.get r.st c;
  Faultmap.clear r.prev_clock_diff.(ci);
  Faultmap.iter r.diffs.(c) (fun f v ->
      if r.live.(f) then Faultmap.set r.prev_clock_diff.(ci) f v)

let pair r pid f = (pid * r.stride) + f

let edge_detect r =
  let t0 = if r.tracing then Obs.Trace.span_begin "edge_detect" else 0 in
  let fired = ref [] in
  for ci = 0 to Array.length r.g.clocks - 1 do
    let c = r.g.clocks.(ci) in
    let old_g = r.prev_clock_good.(ci) and new_g = State.get r.st c in
    if old_g <> new_g then
      List.iter
        (fun (pid, edge) ->
          if
            edge_fired edge ~old_b:old_g ~new_b:new_g && not r.good_fired.(pid)
          then begin
            r.good_fired.(pid) <- true;
            fired := pid :: !fired
          end)
        r.g.ff_of_clock.(c);
    begin_set r;
    scan_sig_faults r add_fault c;
    Faultmap.iter_keys r.prev_clock_diff.(ci) (fun f ->
        if r.live.(f) then add_fault r f);
    Ivec.iter
      (fun f ->
        let old_f = Faultmap.find r.prev_clock_diff.(ci) f ~default:old_g in
        let new_f = fault_value r f c in
        List.iter
          (fun (pid, edge) ->
            let gf = edge_fired edge ~old_b:old_g ~new_b:new_g in
            let ff = edge_fired edge ~old_b:old_f ~new_b:new_f in
            if gf && not ff then begin
              Diffstore.Counts.bump r.suppressed (pair r pid f) 1;
              r.n_suppressed.(pid) <- r.n_suppressed.(pid) + 1
            end
            else if (not gf) && ff then Ivec.push r.solo (pair r pid f))
          r.g.ff_of_clock.(c))
      r.fset;
    latch_clock r ci
  done;
  if r.tracing then Obs.Trace.span_end "edge_detect" t0;
  List.sort compare !fired

(* ---- phase 4: behavioral round ----
   Each fired ff process's good step and fault copies, then the suppressed
   copies and the solo activations. *)
let involve r f =
  if r.istamp.(f) <> r.round_no then begin
    r.istamp.(f) <- r.round_no;
    Ivec.push r.involved f
  end

let rec preserve_sigs r f = function
  | [] -> ()
  | (id, _) :: ws ->
      let i = log_add r.preserved f id (-1) in
      Bigarray.Array1.unsafe_set r.preserved.vals i (fault_value r f id);
      preserve_sigs r f ws

let rec preserve_mems r f = function
  | [] -> ()
  | (m, a, _) :: ws ->
      let i = log_add r.preserved f m a in
      Bigarray.Array1.unsafe_set r.preserved.vals i (fault_mem_value r f m a);
      preserve_mems r f ws

let preserve_for r pid f =
  preserve_sigs r f r.good_writes_of.(pid);
  preserve_mems r f r.good_mem_writes_of.(pid)

let ff_proc_fault r p ~n_supp ~mem_round f =
  if n_supp = 0 || not (Diffstore.Counts.mem r.suppressed (pair r p.pid f))
  then begin
    let exec = must_execute r p ~site:false f in
    if mem_round then involve r f;
    if exec then begin
      r.rows.(p.pid).pr_exec <- r.rows.(p.pid).pr_exec + 1;
      if r.inst.mem_writer.(p.pid) then
        Diffstore.Counts.bump r.executed_mw (pair r p.pid f) 1;
      preserve_for r p.pid f;
      Kernel.exec_fault p.cp r.kview f r.sink
    end
    else Ivec.push r.recon (pair r p.pid f)
  end

let behavioral_round r fired ~mem_round =
  r.fault_nba.len <- 0;
  r.preserved.len <- 0;
  Ivec.clear r.recon;
  bn_begin r;
  List.iter
    (fun pid ->
      let p = r.inst.procs.(pid) in
      r.cur_pid <- pid;
      good_step r (Kff p);
      let n_supp = r.n_suppressed.(pid) in
      let live_at = r.n_live in
      let row = r.rows.(pid) in
      let exec0 = row.pr_exec and impl0 = row.pr_impl in
      begin_set r;
      if r.config.mode = No_redundancy then add_all_live r
      else proc_fault_set r p;
      for i = 0 to Ivec.length r.fset - 1 do
        ff_proc_fault r p ~n_supp ~mem_round (Ivec.get r.fset i)
      done;
      count_explicit row ~considered:(live_at - n_supp) ~exec0 ~impl0)
    fired;
  (* suppressed faults keep their (and the good network's) old register
     values: capture them before the commit moves the good values. A
     suppressed process always fired in the good network. *)
  Diffstore.Counts.iter_keys r.suppressed (fun k ->
      let f = k mod r.stride in
      preserve_for r (k / r.stride) f;
      if mem_round then involve r f);
  (* solo activations: the faulty network sees an edge the good one
     does not *)
  Ivec.iter
    (fun k ->
      let pid = k / r.stride and f = k mod r.stride in
      if (not r.good_fired.(pid)) && r.live.(f) then begin
        r.cur_pid <- pid;
        r.rows.(pid).pr_exec <- r.rows.(pid).pr_exec + 1;
        if mem_round then involve r f;
        if r.inst.mem_writer.(pid) then begin
          Diffstore.Counts.bump r.executed_mw k 1;
          r.solo_mw_of.(f) <- pid :: r.solo_mw_of.(f)
        end;
        Kernel.exec_fault r.inst.procs.(pid).cp r.kview f r.sink
      end)
    r.solo;
  bn_end r

(* ---- phase 5: NBA commit ----
   Memory commits must respect each faulty network's program order across
   processes: the same memory may be written by several processes, and a
   fault that executed its own copy of one process still follows the good
   copies of all the others. Replay fault [f]'s effective write sequence
   over the memory writers it fired, in process order: suppressed -> no
   writes, executed -> its own writes, otherwise -> the good writes. A
   process that writes no memory adds nothing to the sequence, so visiting
   only writers keeps the order exact. *)
let rec replay_own r f pid = function
  | [] -> ()
  | (p, m, a, v) :: older ->
      (* oldest first: the list is newest first *)
      replay_own r f pid older;
      if p = pid then set_mem_diff r m f a v

let rec replay_good_mem r f = function
  | [] -> ()
  | (m, a, v) :: ws ->
      set_mem_diff r m f a v;
      replay_good_mem r f ws

let rec visit_mem_writers r f = function
  | [] -> ()
  | pid :: pids ->
      let k = pair r pid f in
      if Diffstore.Counts.mem r.suppressed k then ()
      else if Diffstore.Counts.mem r.executed_mw k then
        replay_own r f pid r.fault_mem_writes.(f)
      else if r.good_fired.(pid) then
        replay_good_mem r f r.good_mem_writes_of.(pid);
      visit_mem_writers r f pids

let replay_mem_writes r fired_mw f =
  (match r.solo_mw_of.(f) with
  | [] -> visit_mem_writers r f fired_mw
  | solo_pids ->
      visit_mem_writers r f
        (List.merge compare fired_mw (List.sort_uniq compare solo_pids)));
  r.fault_mem_writes.(f) <- [];
  r.solo_mw_of.(f) <- []

(* A copy skipped at a fired process writes the good values. *)
let rec reconcile r f = function
  | [] -> ()
  | (id, v) :: ws ->
      set_diff r id f (force_if_site r f id v);
      reconcile r f ws

(* Good writes first, then the preserved, reconciled and executed copies'
   diffs, each log in the order it was appended; then the round's
   bookkeeping is reset. *)
let nba_commit r fired ~fired_mw ~mem_round =
  let t0 = if r.tracing then Obs.Trace.span_begin "nba_commit" else 0 in
  List.iter
    (fun pid ->
      List.iter (fun (id, v) -> write_good r id v) r.good_writes_of.(pid);
      List.iter
        (fun (m, a, v) -> write_good_mem r m a v)
        r.good_mem_writes_of.(pid))
    fired;
  let l = r.preserved in
  for i = 0 to l.len - 1 do
    let f = log_key l i 0 and id = log_key l i 1 and a = log_key l i 2 in
    let v = Bigarray.Array1.unsafe_get l.vals i in
    if r.live.(f) then
      if a < 0 then set_diff r id f v else set_mem_diff r id f a v
  done;
  for i = 0 to Ivec.length r.recon - 1 do
    let k = Ivec.get r.recon i in
    let f = k mod r.stride in
    if r.live.(f) then reconcile r f r.good_writes_of.(k / r.stride)
  done;
  let l = r.fault_nba in
  for i = 0 to l.len - 1 do
    let f = log_key l i 0 and id = log_key l i 1 in
    let v = Bigarray.Array1.unsafe_get l.vals i in
    if r.live.(f) then set_diff r id f (force_if_site r f id v)
  done;
  if mem_round then begin
    for i = 0 to Ivec.length r.involved - 1 do
      replay_mem_writes r fired_mw (Ivec.get r.involved i)
    done;
    Ivec.clear r.involved
  end;
  if r.tracing then Obs.Trace.span_end "nba_commit" t0;
  List.iter
    (fun pid ->
      r.good_fired.(pid) <- false;
      r.n_suppressed.(pid) <- 0)
    fired;
  Diffstore.Counts.clear r.suppressed;
  Diffstore.Counts.clear r.executed_mw;
  Ivec.clear r.solo

(* ---- phase 6: observe, detect and retire ---- *)
let retire_converged r =
  let keep = r.spare_seus in
  Ivec.clear keep;
  Ivec.iter
    (fun f ->
      if r.live.(f) then
        if r.ndiff.(f) = 0 then begin
          r.live.(f) <- false;
          r.n_live <- r.n_live - 1;
          r.retired <- r.retired + 1
        end
        else Ivec.push keep f)
    r.fired_seus;
  r.spare_seus <- r.fired_seus;
  r.fired_seus <- keep

let observe r cycle =
  r.cycles_stepped <- r.cycles_stepped + 1;
  (match Atomic.get chaos_corrupt_diff with
  | None -> ()
  | Some hook -> (
      match hook ~cycle ~nfaults:r.nfaults with
      | Some f
        when f >= 0 && f < r.nfaults && r.live.(f)
             && Array.length r.g.outputs > 0 ->
          let o = r.g.outputs.(0) in
          set_diff r o f (Int64.logxor (fault_value r f o) 1L)
      | Some _ | None -> ()));
  (match r.probe with
  | Some f ->
      f cycle
        (fun fid id -> Bits.make (State.width r.st id) (fault_value r fid id))
        (fun fid m a ->
          Bits.make (State.mem_width r.st m) (fault_mem_value r fid m a))
  | None -> ());
  Array.iter
    (fun o ->
      let tbl = r.diffs.(o) in
      if not (Faultmap.is_empty tbl) then begin
        Ivec.clear r.scratch_dead;
        let good = State.get r.st o in
        Faultmap.iter tbl (fun f v ->
            if r.live.(f) && v <> good then Ivec.push r.scratch_dead f);
        Ivec.iter
          (fun f ->
            r.detected.(f) <- true;
            r.detection_cycle.(f) <- cycle;
            r.live.(f) <- false;
            r.n_live <- r.n_live - 1)
          r.scratch_dead
      end)
    r.g.outputs;
  if not (Ivec.is_empty r.fired_seus) then retire_converged r;
  match r.gx with
  | Gcap b ->
      (* A capture run has no faults, so nothing is ever live: force the
         full workload and record each cycle's outputs and snapshot. *)
      Goodtrace.rec_cycle_done b
        ~outputs:(Array.map (fun o -> State.get r.st o) r.g.outputs)
        ~state:r.st;
      true
  | Gcold | Grep _ -> r.n_live > 0

(* ---- the run record ---- *)
let trace_mismatch fmt =
  Printf.ksprintf (fun s -> raise (Goodtrace.Trace_mismatch s)) fmt

let create ~config ?probe ?capture ?goodtrace (inst : instance)
    (w : Workload.t) faults =
  let g = inst.inst_graph in
  let t_start = Stats.now () in
  let d = g.design in
  let nsig = Design.num_signals d in
  let w = Workload.checked ~num_signals:nsig w in
  let nmem = Array.length d.mems in
  let nproc = Array.length d.procs in
  let nfaults = Array.length faults in
  let gx, warm_start =
    match (capture, goodtrace) with
    | Some b, _ -> (Gcap b, 0)
    | None, Some ({ Goodtrace.trace; start } as warm) ->
        if trace.Goodtrace.cycles <> w.Workload.cycles then
          trace_mismatch "trace captured for %d cycles, workload has %d"
            trace.Goodtrace.cycles w.Workload.cycles;
        if trace.Goodtrace.clock <> w.Workload.clock then
          trace_mismatch "trace clock %d, workload clock %d"
            trace.Goodtrace.clock w.Workload.clock;
        if trace.Goodtrace.nout <> Array.length g.outputs then
          trace_mismatch "trace has %d outputs, design has %d"
            trace.Goodtrace.nout (Array.length g.outputs);
        (Grep (warm, Goodtrace.cursor trace ~start), start)
    | None, None -> (Gcold, 0)
  in
  let tracing = Obs.Trace.on () in
  let metrics_on = Obs.Metrics.on () in
  let run_t0 = Obs.Trace.span_begin "fault_sim_run" in
  let st = State.create d in
  (* The fault-keyed tables (per signal, per clock) index by fault id. The
     memory-word tables are sized from the fault-batch width: each expects
     a fraction of the batch and grows on demand; the per-memory fault
     index is bounded by the batch width itself. *)
  let expect_site = min nfaults 16 in
  let site_faults = Array.make nsig [] in
  let transients_at = Hashtbl.create 8 in
  Array.iter
    (fun (f : Fault.t) ->
      match f.stuck with
      | Fault.Stuck_at_0 | Fault.Stuck_at_1 ->
          site_faults.(f.signal) <- f.fid :: site_faults.(f.signal)
      | Fault.Flip_at c ->
          Hashtbl.replace transients_at c
            (f :: Option.value ~default:[] (Hashtbl.find_opt transients_at c)))
    faults;
  let ncomb = Array.length g.comb_nodes in
  let nclk = Array.length g.clocks in
  let diffs = Array.init nsig (fun _ -> Faultmap.create ~nkeys:nfaults) in
  let mem_diffs =
    Array.init nmem (fun _ -> Diffstore.create ~expect:expect_site ())
  in
  let mem_fault_words =
    Array.init nmem (fun _ -> Diffstore.Counts.create ~expect:nfaults ())
  in
  let rec r =
    {
      inst;
      g;
      config;
      gx;
      warm_start;
      w;
      probe;
      tracing;
      metrics_on;
      t_start;
      run_t0;
      stats = Stats.create ();
      st;
      faults;
      nfaults;
      live = Array.make nfaults true;
      detected = Array.make nfaults false;
      detection_cycle = Array.make nfaults (-1);
      n_live = nfaults;
      ndiff = Array.make nfaults 0;
      diffs;
      mem_diffs;
      mem_fault_words;
      site_faults;
      transients_at;
      scratch_dead = Ivec.create ~capacity:16 ();
      good_dirty = Array.make ncomb false;
      fault_dirty = Array.make ncomb false;
      dirty_hi = -1;
      dirty_lo = ncomb;
      current_pos = -1;
      kview = { Kernel.st; diffs; mem_diffs; mem_fault_words };
      sink =
        {
          Kernel.blocking = (fun f id p -> store_blocking r f id p);
          nonblocking = (fun f id p -> store_nonblocking r f id p);
          mem_write = (fun f m a p -> store_mem r f m a p);
        };
      replay_write = (fun id v -> write_good r id v);
      cur_pid = -1;
      fault_nba = log_create ();
      fault_mem_writes = Array.make nfaults [];
      rows =
        Array.map
          (fun (p : Design.proc) ->
            { Stats.pr_name = p.pname; pr_exec = 0; pr_impl = 0; pr_expl = 0 })
          d.procs;
      record =
        Array.map
          (fun p -> Array.make (Kernel.node_count p.cp) 0)
          inst.procs;
      record_valid = Array.make nproc false;
      path = Array.make inst.path_size 0;
      path_len = Array.make ncomb (-1);
      sig_seen = Array.make nsig 0;
      stamp = Array.make nfaults 0;
      gen = 0;
      fset = Ivec.create ();
      rstamp = Array.make nfaults 0;
      walk_steps = ref 0;
      vdg_hist = Array.make Obs.Metrics.nbuckets 0;
      vdg_sum = 0.0;
      vdg_max = 0.0;
      bn_clock = 0.0;
      bn_trace = 0;
      prev_clock_good = Array.make nclk 0L;
      prev_clock_diff =
        Array.init nclk (fun _ -> Faultmap.create ~nkeys:nfaults);
      stride = max 1 nfaults;
      good_fired = Array.make nproc false;
      good_writes_of = Array.make nproc [];
      good_mem_writes_of = Array.make nproc [];
      suppressed = Diffstore.Counts.create ~expect:expect_site ();
      n_suppressed = Array.make nproc 0;
      solo = Ivec.create ~capacity:16 ();
      recon = Ivec.create ~capacity:16 ();
      executed_mw = Diffstore.Counts.create ~expect:expect_site ();
      solo_mw_of = Array.make nfaults [];
      involved = Ivec.create ~capacity:16 ();
      istamp = Array.make nfaults 0;
      round_no = 0;
      preserved = log_create ();
      fired_seus = Ivec.create ~capacity:16 ();
      spare_seus = Ivec.create ~capacity:16 ();
      retired = 0;
      cycles_stepped = 0;
    }
  in
  r

(* ---- initialisation ---- *)
let start r =
  (match r.gx with
  | Grep ({ Goodtrace.trace; start }, _) when start > 0 ->
      let t0 =
        if r.tracing then Obs.Trace.span_begin "snapshot_restore" else 0
      in
      State.blit ~src:(Goodtrace.snapshot_at trace start) ~dst:r.st;
      if r.tracing then Obs.Trace.span_end "snapshot_restore" t0
  | Gcold | Gcap _ | Grep _ -> ());
  Array.iter
    (fun (f : Fault.t) ->
      match f.stuck with
      | Fault.Flip_at c when r.warm_start > 0 && c < r.warm_start ->
          trace_mismatch
            "transient fault %d fires at cycle %d, before warm start %d" f.fid
            c r.warm_start
      | _ ->
          set_diff r f.signal f.fid
            (Fault.force_i64 f (State.get r.st f.signal)))
    r.faults;
  (if r.warm_start > 0 then
     (* Warm start: the good state came from the snapshot.
        Every fault in this batch activates at or after [warm_start].
        Under the cone-refined activation rule that no longer means the
        injections are no-ops: a combinationally recomputed site may
        legitimately carry a live diff here (its forced bit differs from
        the good value without having reached any register, memory or
        output yet). [set_diff] marks the fault fanout dirty, so the
        settle inside the first [step] rebuilds the downstream comb
        diffs before any edge detection, latch or observation runs. What
        MUST still be empty is every diff on a state-holding signal: a
        diff there persists by itself, so one surviving the injection
        means the caller batched a fault before its activation window.
        The transient guard above is the same invariant for [Flip_at]. *)
     Array.iteri
       (fun id tbl ->
         if r.inst.is_state.(id) && not (Faultmap.is_empty tbl) then
           trace_mismatch
             "state fault on signal %d active before warm-start cycle %d" id
             r.warm_start)
       r.diffs
   else begin
     let ncomb = Array.length r.good_dirty in
     Array.fill r.good_dirty 0 ncomb true;
     Array.fill r.fault_dirty 0 ncomb true;
     r.dirty_lo <- 0;
     r.dirty_hi <- ncomb - 1;
     comb_settle r;
     match r.gx with Gcap b -> Goodtrace.rec_init_done b | Gcold | Grep _ -> ()
   end);
  for ci = 0 to Array.length r.g.clocks - 1 do
    latch_clock r ci
  done

(* ---- driving the workload ----
   [Grep] replays inputs and clock toggles in [step]; the drive is still
   called for its side effects (budget watchdogs, drive validation). *)
let set_input r id v =
  match r.gx with
  | Grep _ -> ()
  | Gcold | Gcap _ ->
      let v = Bits.to_int64 v in
      (match r.gx with
      | Gcap b -> Goodtrace.rec_input b id v
      | Gcold | Grep _ -> ());
      write_good r id v

let inject_transients r cycle =
  match Hashtbl.find_opt r.transients_at cycle with
  | None -> ()
  | Some l ->
      List.iter
        (fun (f : Fault.t) ->
          if r.live.(f.fid) then begin
            let cur = fault_value r f.fid f.signal in
            set_diff r f.signal f.fid
              (Bitops.force_bit cur f.bit (not (Bitops.bit cur f.bit)));
            Ivec.push r.fired_seus f.fid
          end)
        l

(* One time slot: settle, then edge rounds until no clock edge fires. *)
let step r =
  (match r.gx with
  | Grep (_, cur) ->
      let rec replay_inputs () =
        match Goodtrace.take_input cur with
        | Some (id, v) ->
            write_good r id v;
            replay_inputs ()
        | None -> ()
      in
      replay_inputs ();
      Goodtrace.take_step cur
  | Gcap b -> Goodtrace.rec_step b
  | Gcold -> ());
  comb_settle r;
  let rounds = ref 0 in
  let continue = ref true in
  while !continue do
    incr rounds;
    if !rounds > 16 then
      raise (Simulator.Unstable "clock edge cascade did not settle");
    r.round_no <- r.round_no + 1;
    let fired = edge_detect r in
    if fired = [] && Ivec.is_empty r.solo then continue := false
    else begin
      let fired_mw = List.filter (fun pid -> r.inst.mem_writer.(pid)) fired in
      (* memory-commit replay is needed only when a memory writer fires
         or is solo-activated; otherwise it would write nothing *)
      let mem_round =
        fired_mw <> []
        ||
        let any = ref false in
        Ivec.iter
          (fun k -> if r.inst.mem_writer.(k / r.stride) then any := true)
          r.solo;
        !any
      in
      behavioral_round r fired ~mem_round;
      nba_commit r fired ~fired_mw ~mem_round;
      comb_settle r
    end
  done

(* ---- the result ---- *)
let finish r =
  let stats = r.stats in
  stats.Stats.good_cycles_skipped <- r.warm_start;
  stats.Stats.per_proc <- r.rows;
  let sum field =
    Array.fold_left (fun acc row -> acc + field row) 0 stats.Stats.per_proc
  in
  stats.Stats.bn_fault_exec <- sum (fun row -> row.Stats.pr_exec);
  stats.Stats.bn_skipped_implicit <- sum (fun row -> row.Stats.pr_impl);
  stats.Stats.bn_skipped_explicit <- sum (fun row -> row.Stats.pr_expl);
  (* debug knob: simulate an engine bug by flipping one verdict, so the
     online divergence check of the resilient runner can be exercised *)
  (match r.config.corrupt_verdict with
  | Some f when f >= 0 && f < r.nfaults ->
      r.detected.(f) <- not r.detected.(f);
      r.detection_cycle.(f) <- (if r.detected.(f) then 0 else -1)
  | Some _ | None -> ());
  let wall = Stats.now () -. r.t_start in
  (* One engine run is single-threaded, so its CPU time equals its wall
     time. [Stats.add] sums [cpu_seconds] across workers but not
     [total_seconds] — coordinators overwrite the latter with campaign wall
     time. *)
  stats.Stats.cpu_seconds <- wall;
  stats.Stats.total_seconds <- wall;
  if r.tracing then Obs.Trace.span_end "fault_sim_run" r.run_t0;
  if r.metrics_on then begin
    Obs.Metrics.add "engine.runs" 1;
    (match r.gx with
    | Grep _ ->
        Obs.Metrics.add "goodtrace.replays" 1;
        if r.warm_start > 0 then begin
          Obs.Metrics.add "goodtrace.snapshot_restores" 1;
          Obs.Metrics.add "goodtrace.cycles_skipped" r.warm_start
        end
    | Gcap _ | Gcold -> ());
    Obs.Metrics.add "engine.bn_good" stats.Stats.bn_good;
    Obs.Metrics.add "engine.bn_fault_exec" stats.Stats.bn_fault_exec;
    Obs.Metrics.add "engine.bn_skip_explicit" stats.Stats.bn_skipped_explicit;
    Obs.Metrics.add "engine.bn_skip_implicit" stats.Stats.bn_skipped_implicit;
    Obs.Metrics.add "engine.rtl_good_eval" stats.Stats.rtl_good_eval;
    Obs.Metrics.add "engine.rtl_fault_eval" stats.Stats.rtl_fault_eval;
    Obs.Metrics.add "engine.transients_retired" r.retired;
    Obs.Metrics.add "engine.cycles_stepped" r.cycles_stepped;
    Array.iter
      (fun (row : Stats.proc_row) ->
        Obs.Metrics.add ("engine.proc." ^ row.pr_name ^ ".exec") row.pr_exec;
        Obs.Metrics.add
          ("engine.proc." ^ row.pr_name ^ ".skip_implicit")
          row.pr_impl;
        Obs.Metrics.add
          ("engine.proc." ^ row.pr_name ^ ".skip_explicit")
          row.pr_expl)
      stats.Stats.per_proc;
    Obs.Metrics.merge_histogram "engine.vdg_walk_depth" r.vdg_hist
      ~count:(Array.fold_left ( + ) 0 r.vdg_hist) ~sum:r.vdg_sum ~max:r.vdg_max;
    for f = 0 to r.nfaults - 1 do
      if r.detected.(f) then
        Obs.Metrics.observe "engine.detection_latency_cycles"
          (float_of_int r.detection_cycle.(f))
    done
  end;
  Fault.make_result ~detected:r.detected ~detection_cycle:r.detection_cycle
    ~stats ~wall_time:wall ()

let execute ?(config = default_config) ?probe ?capture ?goodtrace inst w
    faults =
  let r = create ~config ?probe ?capture ?goodtrace inst w faults in
  start r;
  Workload.run ~first_cycle:r.warm_start ~on_cycle_start:(inject_transients r)
    r.w ~set_input:(set_input r)
    ~step:(fun () -> step r)
    ~observe:(observe r);
  finish r

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
  execute ?config ?probe ?goodtrace inst w faults

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
  let (_ : Fault.result) = execute ?config ~capture:b inst w [||] in
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
