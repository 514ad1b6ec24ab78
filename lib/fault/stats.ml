type proc_row = {
  pr_name : string;
  mutable pr_exec : int;
  mutable pr_impl : int;
  mutable pr_expl : int;
}

type t = {
  mutable bn_good : int;
  mutable bn_fault_exec : int;
  mutable bn_skipped_explicit : int;
  mutable bn_skipped_implicit : int;
  mutable rtl_good_eval : int;
  mutable rtl_fault_eval : int;
  mutable good_cycles_skipped : int;
  mutable goodtrace_captures : int;
  mutable cone_pruned : int;
  mutable plan_batches : int;
  mutable plan_snapshots : int;
  mutable bn_seconds : float;
  mutable cpu_seconds : float;
  mutable total_seconds : float;
  mutable per_proc : proc_row array;
}

(* Monotonic-safe wall clock. [Unix.gettimeofday] can step backwards under
   NTP adjustment; feeding a negative delta into the accumulated timing
   counters would corrupt every percentage derived from them. The guard
   never returns a value below any previously returned one, across all
   domains (one shared high-water mark, CAS-advanced). *)
let clock_hwm = Atomic.make 0.0

let now () =
  let rec advance () =
    let last = Atomic.get clock_hwm in
    let t = Unix.gettimeofday () in
    if t <= last then last
    else if Atomic.compare_and_set clock_hwm last t then t
    else advance ()
  in
  advance ()

let create () =
  {
    bn_good = 0;
    bn_fault_exec = 0;
    bn_skipped_explicit = 0;
    bn_skipped_implicit = 0;
    rtl_good_eval = 0;
    rtl_fault_eval = 0;
    good_cycles_skipped = 0;
    goodtrace_captures = 0;
    cone_pruned = 0;
    plan_batches = 0;
    plan_snapshots = 0;
    bn_seconds = 0.0;
    cpu_seconds = 0.0;
    total_seconds = 0.0;
    per_proc = [||];
  }

let total_bn_executions t =
  t.bn_fault_exec + t.bn_skipped_explicit + t.bn_skipped_implicit

let eliminated t = t.bn_skipped_explicit + t.bn_skipped_implicit

let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let explicit_pct t = pct t.bn_skipped_explicit (total_bn_executions t)
let implicit_pct t = pct t.bn_skipped_implicit (total_bn_executions t)

let bn_time_pct t =
  let denom = if t.cpu_seconds > 0.0 then t.cpu_seconds else t.total_seconds in
  if denom <= 0.0 then 0.0 else 100.0 *. t.bn_seconds /. denom

(* Merge per_proc tables by node name. Every engine emits its rows in
   program order, so two workers over the same design produce the same name
   sequence and the common case is a positional zip; the keyed fallback
   covers heterogeneous inputs (e.g. stats merged across designs). Either
   way a node contributes exactly one row — [Array.append] here was the bug
   that gave [--jobs n] reports n copies of every row. *)
let same_names a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i ra -> if ra.pr_name <> b.(i).pr_name then ok := false) a;
      !ok)

let merge_per_proc a b =
  if Array.length a = 0 then Array.map (fun r -> { r with pr_name = r.pr_name }) b
  else if Array.length b = 0 then
    Array.map (fun r -> { r with pr_name = r.pr_name }) a
  else if same_names a b then
    Array.mapi
      (fun i ra ->
        let rb = b.(i) in
        {
          pr_name = ra.pr_name;
          pr_exec = ra.pr_exec + rb.pr_exec;
          pr_impl = ra.pr_impl + rb.pr_impl;
          pr_expl = ra.pr_expl + rb.pr_expl;
        })
      a
  else begin
    let tbl = Hashtbl.create (Array.length a + Array.length b) in
    let order = ref [] in
    let fold r =
      match Hashtbl.find_opt tbl r.pr_name with
      | Some acc ->
          acc.pr_exec <- acc.pr_exec + r.pr_exec;
          acc.pr_impl <- acc.pr_impl + r.pr_impl;
          acc.pr_expl <- acc.pr_expl + r.pr_expl
      | None ->
          let acc = { r with pr_name = r.pr_name } in
          Hashtbl.add tbl r.pr_name acc;
          order := acc :: !order
    in
    Array.iter fold a;
    Array.iter fold b;
    Array.of_list (List.rev !order)
  end

let add a b =
  {
    bn_good = a.bn_good + b.bn_good;
    bn_fault_exec = a.bn_fault_exec + b.bn_fault_exec;
    bn_skipped_explicit = a.bn_skipped_explicit + b.bn_skipped_explicit;
    bn_skipped_implicit = a.bn_skipped_implicit + b.bn_skipped_implicit;
    rtl_good_eval = a.rtl_good_eval + b.rtl_good_eval;
    rtl_fault_eval = a.rtl_fault_eval + b.rtl_fault_eval;
    good_cycles_skipped = a.good_cycles_skipped + b.good_cycles_skipped;
    goodtrace_captures = a.goodtrace_captures + b.goodtrace_captures;
    cone_pruned = a.cone_pruned + b.cone_pruned;
    (* plan shape is coordinator-set, never per-batch: keep the larger *)
    plan_batches = max a.plan_batches b.plan_batches;
    plan_snapshots = max a.plan_snapshots b.plan_snapshots;
    bn_seconds = a.bn_seconds +. b.bn_seconds;
    cpu_seconds = a.cpu_seconds +. b.cpu_seconds;
    total_seconds = Float.max a.total_seconds b.total_seconds;
    per_proc = merge_per_proc a.per_proc b.per_proc;
  }

let pp ppf t =
  Format.fprintf ppf
    "bn_good=%d bn_fault_exec=%d skip_explicit=%d skip_implicit=%d \
     rtl_good=%d rtl_fault=%d bn_time=%.3fs cpu=%.3fs total=%.3fs"
    t.bn_good t.bn_fault_exec t.bn_skipped_explicit t.bn_skipped_implicit
    t.rtl_good_eval t.rtl_fault_eval t.bn_seconds t.cpu_seconds t.total_seconds
