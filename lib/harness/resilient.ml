open Faultsim

(* ---- error taxonomy ---- *)

type divergence = {
  div_fault : int;
  div_batch : int;
  engine_detected : bool;
  engine_cycle : int;
  oracle_detected : bool;
  oracle_cycle : int;
}

type campaign_error =
  | Engine_divergence of divergence list
  | Batch_timeout of {
      batch : int;
      ids : int array;
      cycle : int;
      reason : string;
    }
  | Journal_corrupt of string
  | Bad_workload of string

exception Campaign_error of campaign_error

let err e = raise (Campaign_error e)

let error_message = function
  | Engine_divergence ds ->
      Printf.sprintf "engine divergence on %d fault(s): %s" (List.length ds)
        (String.concat ", "
           (List.map (fun d -> string_of_int d.div_fault) ds))
  | Batch_timeout { batch; ids; cycle; reason } ->
      Printf.sprintf
        "batch %d (%d fault(s)) exceeded its watchdog budget at cycle %d \
         (%s) and could not be split further"
        batch (Array.length ids) cycle reason
  | Journal_corrupt msg -> "corrupt journal: " ^ msg
  | Bad_workload msg -> "bad workload: " ^ msg

let exit_code = function
  | Engine_divergence _ -> 3
  | Batch_timeout _ -> 4
  | Journal_corrupt _ -> 5
  | Bad_workload _ -> 6

(* ---- configuration ---- *)

type config = {
  engine : Campaign.engine;
  jobs : int;
  batch_size : int;
  max_batch_seconds : float option;
  max_batch_cycles : int option;
  max_retries : int;
  oracle_sample : float;
  journal : string option;
  resume : bool;
  quarantine : bool;
  inject_divergence : int option;
  progress : float option;
  supervise : bool;
  repro_dir : string option;
  repro_meta : (string * float) option;
  warmstart : bool;
}

(* Roots the per-batch oracle sampling draws. Journal headers record it, so
   a journal names the draws it was sampled with. *)
let sample_seed = 0x5EED_CAFEL

let default_config =
  {
    engine = Campaign.Eraser;
    jobs = 1;
    batch_size = 64;
    max_batch_seconds = None;
    max_batch_cycles = None;
    max_retries = 2;
    oracle_sample = 0.0;
    journal = None;
    resume = false;
    quarantine = true;
    inject_divergence = None;
    progress = None;
    supervise = false;
    repro_dir = None;
    repro_meta = None;
    warmstart = false;
  }

type summary = {
  result : Fault.result;
  batches_total : int;
  batches_resumed : int;
  batches_executed : int;
  retries : int;
  restarts : int;
  oracle_checked : int;
  divergences : divergence list;
  quarantined : int list;
  failed_faults : int list;
  pruned_faults : int list;
      (* fault ids the cone analysis proved statically undetectable;
         reported undetected without being simulated *)
  repros : string list;
  capture_bytes : int;
}

(* ---- journal records ---- *)

type batch_outcome = {
  b_index : int;
  b_ids : int array;
  b_detected : bool array;
  b_cycles : int array;
  b_stats : Stats.t;
  b_wall : float;
  b_oracle_checked : bool;
  b_divergences : divergence list;
  b_failed : int array;
      (* fault ids abandoned by supervision (reported undetected) *)
  b_repros : string list;  (* repro files emitted for this batch *)
}

let header_json ~design_name ?schedule cfg (w : Workload.t) nfaults =
  Jsonl.Obj
    ([
       ("type", Jsonl.String "header");
       ("version", Jsonl.Int 1);
       ("design", Jsonl.String design_name);
       ("engine", Jsonl.String (Campaign.engine_name cfg.engine));
       ("cycles", Jsonl.Int w.Workload.cycles);
       ("clock", Jsonl.Int w.Workload.clock);
       ("faults", Jsonl.Int nfaults);
       ("batch_size", Jsonl.Int cfg.batch_size);
       ("oracle_sample", Jsonl.Float cfg.oracle_sample);
       ("sample_seed", Jsonl.String (Int64.to_string sample_seed));
     ]
    (* only present on warm campaigns: the batch decomposition is
       planner-ordered there, so a warm journal is incompatible with a
       cold campaign's decomposition (and vice versa). [run] reads the
       flag back from an existing journal on resume and adopts it, so a
       resume continues in the journal's own regime regardless of the
       resuming invocation's flags. The ["schedule"] field names the
       plan's policy, which follows from the regime; a journal naming
       another policy fails header equality. Cold journals keep their
       historical byte format. *)
    @ (if cfg.warmstart then
         ("warmstart", Jsonl.Bool true)
         ::
         (match schedule with
         | Some s -> [ ("schedule", Jsonl.String s) ]
         | None -> [])
       else []))

let stats_to_json (s : Stats.t) =
  Jsonl.Obj
    ([
       ("bn_good", Jsonl.Int s.Stats.bn_good);
       ("bn_fault_exec", Jsonl.Int s.Stats.bn_fault_exec);
       ("bn_skipped_explicit", Jsonl.Int s.Stats.bn_skipped_explicit);
       ("bn_skipped_implicit", Jsonl.Int s.Stats.bn_skipped_implicit);
       ("rtl_good_eval", Jsonl.Int s.Stats.rtl_good_eval);
       ("rtl_fault_eval", Jsonl.Int s.Stats.rtl_fault_eval);
     ]
    (* warm-started batches only, so cold journals keep their historical
       byte format *)
    @
    if s.Stats.good_cycles_skipped = 0 then []
    else [ ("good_cycles_skipped", Jsonl.Int s.Stats.good_cycles_skipped) ])

let stats_of_json j =
  let s = Stats.create () in
  s.Stats.bn_good <- Jsonl.get_int "bn_good" j;
  s.Stats.bn_fault_exec <- Jsonl.get_int "bn_fault_exec" j;
  s.Stats.bn_skipped_explicit <- Jsonl.get_int "bn_skipped_explicit" j;
  s.Stats.bn_skipped_implicit <- Jsonl.get_int "bn_skipped_implicit" j;
  s.Stats.rtl_good_eval <- Jsonl.get_int "rtl_good_eval" j;
  s.Stats.rtl_fault_eval <- Jsonl.get_int "rtl_fault_eval" j;
  (match Jsonl.member "good_cycles_skipped" j with
  | Some (Jsonl.Int k) -> s.Stats.good_cycles_skipped <- k
  | _ -> ());
  s

let divergence_to_json d =
  Jsonl.Obj
    [
      ("fault", Jsonl.Int d.div_fault);
      ("batch", Jsonl.Int d.div_batch);
      ("engine_detected", Jsonl.Bool d.engine_detected);
      ("engine_cycle", Jsonl.Int d.engine_cycle);
      ("oracle_detected", Jsonl.Bool d.oracle_detected);
      ("oracle_cycle", Jsonl.Int d.oracle_cycle);
    ]

let divergence_of_json j =
  {
    div_fault = Jsonl.get_int "fault" j;
    div_batch = Jsonl.get_int "batch" j;
    engine_detected = Jsonl.get_bool "engine_detected" j;
    engine_cycle = Jsonl.get_int "engine_cycle" j;
    oracle_detected = Jsonl.get_bool "oracle_detected" j;
    oracle_cycle = Jsonl.get_int "oracle_cycle" j;
  }

let ids_json ids =
  Jsonl.List (Array.to_list (Array.map (fun i -> Jsonl.Int i) ids))

let batch_to_json b =
  Jsonl.Obj
    ([
       ("type", Jsonl.String "batch");
       ("index", Jsonl.Int b.b_index);
       ("ids", ids_json b.b_ids);
       ( "detected",
         Jsonl.List
           (Array.to_list (Array.map (fun d -> Jsonl.Bool d) b.b_detected)) );
       ( "cycles",
         Jsonl.List
           (Array.to_list (Array.map (fun c -> Jsonl.Int c) b.b_cycles)) );
       ("oracle_checked", Jsonl.Bool b.b_oracle_checked);
       ( "divergences",
         Jsonl.List (List.map divergence_to_json b.b_divergences) );
       ("stats", stats_to_json b.b_stats);
       ("wall_s", Jsonl.Float b.b_wall);
     ]
    (* only present when supervision abandoned or shrank something, so
       unsupervised journals keep their historical byte format *)
    @ (if Array.length b.b_failed = 0 then []
       else
         [ ("failed", ids_json b.b_failed) ])
    @
    if b.b_repros = [] then []
    else [ ("repros", Jsonl.List (List.map (fun r -> Jsonl.String r) b.b_repros)) ]
    )

let batch_of_json j =
  if Jsonl.get_string "type" j <> "batch" then
    raise (Jsonl.Parse_error "record is not a batch");
  {
    b_index = Jsonl.get_int "index" j;
    b_ids = Array.of_list (List.map Jsonl.to_int (Jsonl.get_list "ids" j));
    b_detected =
      Array.of_list (List.map Jsonl.to_bool (Jsonl.get_list "detected" j));
    b_cycles =
      Array.of_list (List.map Jsonl.to_int (Jsonl.get_list "cycles" j));
    b_oracle_checked = Jsonl.get_bool "oracle_checked" j;
    b_divergences =
      List.map divergence_of_json (Jsonl.get_list "divergences" j);
    b_stats =
      (match Jsonl.member "stats" j with
      | Some s -> stats_of_json s
      | None -> raise (Jsonl.Parse_error "missing field \"stats\""));
    b_wall = Jsonl.get_float "wall_s" j;
    b_failed =
      (match Jsonl.member "failed" j with
      | Some (Jsonl.List l) -> Array.of_list (List.map Jsonl.to_int l)
      | Some _ -> raise (Jsonl.Parse_error "non-array field \"failed\"")
      | None -> [||]);
    b_repros =
      (match Jsonl.member "repros" j with
      | Some (Jsonl.List l) ->
          List.map
            (function
              | Jsonl.String s -> s
              | _ -> raise (Jsonl.Parse_error "non-string repro entry"))
            l
      | Some _ -> raise (Jsonl.Parse_error "non-array field \"repros\"")
      | None -> []);
  }

(* ---- journal I/O ---- *)

(* What a resume recovers from a journal: the completed batch outcomes,
   the retry/restart events recorded for those batches (so a resumed
   summary counts the whole campaign, not just this invocation), and the
   byte length of the valid prefix. Everything past [clean_bytes] — a torn
   tail or an unparseable final record — must be truncated away before
   appending, or the next record lands mid-garbage and the journal is
   corrupt on the second resume. *)
type replay = {
  rp_outcomes : batch_outcome list;
  rp_retries : int;
  rp_restarts : int;
  rp_clean_bytes : int;
}

let empty_replay =
  { rp_outcomes = []; rp_retries = 0; rp_restarts = 0; rp_clean_bytes = 0 }

(* An existing journal as a resume reads it, once: its parsed header, the
   header line's byte length and the records after it. *)
type journal_in = {
  ji_header : Jsonl.t;
  ji_header_bytes : int;
  ji_records : string list;
}

let append_record ?chaos_batch oc json =
  Obs.Trace.with_span "journal_append" @@ fun () ->
  let line = Jsonl.to_string json in
  let torn =
    match chaos_batch with
    | Some b when Chaos.active () -> Chaos.torn_write ~batch:b line
    | _ -> None
  in
  match torn with
  | Some k ->
      (* simulated crash: leave the record torn mid-write and die *)
      output_string oc (String.sub line 0 k);
      flush oc;
      raise (Chaos.Killed "chaos: journal write torn mid-record")
  | None ->
      output_string oc line;
      output_char oc '\n';
      flush oc

(* ---- crash-safe file writes ---- *)

let write_atomic path f =
  if Sys.file_exists path && not (Sys.is_regular_file path) then
    (* a device or FIFO ([/dev/stdout], [/dev/null]) is written in place:
       a rename over it would replace the device itself *)
    Out_channel.with_open_text path f
  else begin
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    (try f oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    close_out oc;
    Sys.rename tmp path
  end

(* ---- the runner ---- *)

(* One campaign run: what [plan] fixes before any batch executes, plus the
   coordinator's bookkeeping. Workers touch only their own [instances]
   slot and the atomic [retries]/[restarts] counters; everything else
   belongs to the coordinator. *)
type run = {
  cfg : config;  (* after resume adoption *)
  g : Rtlir.Elaborate.t;
  w : Workload.t;
  faults : Fault.t array;
  instances : Engine.Concurrent.instance option array;
      (* per-worker engine instance: the compiled design is immutable once
         built, but each worker gets its own so instances are never shared
         across domains, and reuse across a worker's batches amortises
         compilation. Slot [i] is touched only by worker [i]; the
         coordinator borrows slot 0 for the good-trace capture before any
         batch starts (and is worker 0 itself at [jobs = 1]). *)
  plan : Schedule.t;
  ids : int array array;  (* each planned batch's fault ids *)
  header : Jsonl.t;
  pruned_record : Jsonl.t option;
  plan_record : Jsonl.t option;
  outcomes : batch_outcome option array;
  retries : int Atomic.t;
  restarts : int Atomic.t;
  mutable jout : out_channel option;
  mutable hb : Obs.Heartbeat.t option;
  mutable executed : int;
  mutable done_faults : int;
  mutable det_faults : int;
}

(* OCaml 5's [Max_domains] (caml/domain.h: 128 on 64-bit, 16 otherwise)
   counts the calling domain, so a pool can spawn one worker fewer. *)
let max_jobs = (if Sys.word_size = 64 then 128 else 16) - 1

let instance_for instances g worker =
  match instances.(worker) with
  | Some inst -> inst
  | None ->
      let inst = Engine.Concurrent.instance g in
      instances.(worker) <- Some inst;
      inst

(* Every config field in its documented range, before any file, capture
   or domain is touched. *)
let validate config (w : Workload.t) =
  let bad fmt = Printf.ksprintf (fun m -> err (Bad_workload m)) fmt in
  if config.batch_size < 1 then
    bad "batch size must be positive, got %d" config.batch_size;
  if config.jobs < 1 then bad "jobs must be positive, got %d" config.jobs;
  if config.jobs > max_jobs then
    bad "jobs must be at most %d (the runtime's domain limit), got %d"
      max_jobs config.jobs;
  if not (config.oracle_sample >= 0.0 && config.oracle_sample <= 1.0) then
    bad "oracle sampling rate must be within [0, 1], got %g"
      config.oracle_sample;
  let nonneg_float what = function
    | Some x when Float.is_nan x || x < 0.0 ->
        bad "%s must be non-negative, got %g" what x
    | _ -> ()
  in
  let nonneg_int what = function
    | Some x when x < 0 -> bad "%s must be non-negative, got %d" what x
    | _ -> ()
  in
  nonneg_float "batch time budget" config.max_batch_seconds;
  nonneg_int "batch cycle budget" config.max_batch_cycles;
  nonneg_int "max retries" (Some config.max_retries);
  nonneg_float "progress interval" config.progress;
  if w.Workload.cycles < 0 then
    bad "negative cycle count %d" w.Workload.cycles

(* On resume, read an existing journal once. The resume adopts the
   journal's own regime: warm and cold campaigns use different batch
   decompositions (planner-ordered vs contiguous), so the journal records a
   ["warmstart"] header field and a resume continues in the regime the
   journal was written under — re-capturing the good trace even when the
   resuming invocation's flags differ, and running cold for a cold journal
   even when they don't. Only that field is adopted; {!replay_journal}
   validates every other header parameter strictly once the plan exists.
   An empty journal starts fresh. *)
let open_journal config =
  match config.journal with
  | Some path when config.resume && Sys.file_exists path -> (
      match (Jsonl.read_journal path).Jsonl.complete with
      | [] -> (config, None)
      | header_line :: records ->
          let header =
            try Jsonl.parse header_line
            with Jsonl.Parse_error m ->
              err
                (Journal_corrupt (Printf.sprintf "unreadable header (%s)" m))
          in
          let warmstart =
            match Jsonl.member "warmstart" header with
            | Some (Jsonl.Bool b) -> b
            | _ -> false
          in
          ( { config with warmstart },
            Some
              {
                ji_header = header;
                ji_header_bytes = String.length header_line + 1;
                ji_records = records;
              } ))
  | _ -> (config, None)

(* Good-trace warm start and the plan. The coordinator captures the good
   network once, before any worker starts (the finished trace is immutable
   and shared read-only), and computes each fault's activation window and
   the cone's statically-undetectable set. Pruning is disabled under
   [inject_divergence] so the injected fault is guaranteed to execute.
   Serial engines have no replay seam and ignore [warmstart]. Everything
   else — ordering, batch decomposition, snapshot placement, warm-start
   cycles — is the planner's job; a cold plan (no warm input) degrades to
   [Fixed]. *)
let plan config (g : Rtlir.Elaborate.t) (w : Workload.t) faults =
  let n = Array.length faults in
  let instances = Array.make config.jobs None in
  let trace =
    match config.engine with
    | Campaign.Ifsim | Campaign.Vfsim -> None
    | e when config.warmstart && n > 0 ->
        let cc =
          {
            Engine.Concurrent.default_config with
            mode = Campaign.concurrent_mode e;
          }
        in
        let instance = instance_for instances g 0 in
        Obs.Trace.with_span "capture" (fun () ->
            try Some (Engine.Concurrent.capture ~config:cc ~instance g w)
            with Workload.Invalid_workload msg -> err (Bad_workload msg))
    | _ -> None
  in
  Obs.Trace.with_span "plan" @@ fun () ->
  let warm =
    Option.map
      (fun trace ->
        let cone = Flow.Cone.build g in
        let wi_acts = Engine.Concurrent.activations ~cone trace g faults in
        let wi_pruned =
          if config.inject_divergence = None then
            Engine.Concurrent.statically_undetectable ~cone g faults
          else Array.make n false
        in
        { Schedule.wi_trace = trace; wi_acts; wi_pruned })
      trace
  in
  let plan =
    Schedule.plan ~policy:Schedule.Adaptive
      ~granularity:(Schedule.Size config.batch_size) ?warm ~design:g ~n ()
  in
  let npruned = Array.length plan.Schedule.sp_pruned in
  if npruned > 0 then Obs.Metrics.add "cone.pruned" npruned;
  let nbatches = Array.length plan.Schedule.sp_batches in
  {
    cfg = config;
    g;
    w;
    faults;
    instances;
    plan;
    ids = Array.map (fun b -> b.Schedule.sb_ids) plan.Schedule.sp_batches;
    header =
      header_json ~design_name:g.Rtlir.Elaborate.design.Rtlir.Design.dname
        ?schedule:
          (if config.warmstart then
             Some (Schedule.policy_name plan.Schedule.sp_policy)
           else None)
        config w n;
    pruned_record =
      (if npruned = 0 then None
       else
         Some
           (Jsonl.Obj
              [
                ("type", Jsonl.String "pruned");
                ("ids", ids_json plan.Schedule.sp_pruned);
              ]));
    (* The plan itself is journaled on warm campaigns (cold journals keep
       their historical byte format — a cold plan is the trivial contiguous
       one and carries no information the header lacks). *)
    plan_record =
      (match warm with Some _ -> Some (Schedule.to_json plan) | None -> None);
    outcomes = Array.make nbatches None;
    retries = Atomic.make 0;
    restarts = Atomic.make 0;
    jout = None;
    hb = None;
    executed = 0;
    done_faults = 0;
    det_faults = 0;
  }

(* Validate a read journal against the planned campaign and collect its
   completed batch records. A torn final line and an unparseable final
   record (the crash window the journal exists to survive) are dropped;
   any other malformed line or a parameter mismatch is a {!Journal_corrupt}
   error. The pruned and plan records must equal the ones this campaign
   would write: the cone analysis and the planner are deterministic
   functions of the design, so a mismatch means the journal belongs to a
   different campaign (batch id membership is validated per batch
   record). *)
let replay_journal r ji =
  Obs.Trace.with_span "journal_replay" @@ fun () ->
  let corrupt fmt = Printf.ksprintf (fun m -> err (Journal_corrupt m)) fmt in
  if ji.ji_header <> r.header then
    corrupt
      "parameter mismatch: journal was recorded by %s but this campaign is %s"
      (Jsonl.to_string ji.ji_header)
      (Jsonl.to_string r.header);
  let nbatches = Array.length r.ids in
  let seen = Hashtbl.create 16 in
  let total = List.length ji.ji_records in
  let outcomes = ref [] in
  let retry_events = ref [] in
  (* The valid prefix ends at the last completed batch record: retry events
     and heartbeats past it belong to a batch whose record never landed —
     re-execution regenerates them, so resume truncates there rather than
     double-journal them. *)
  let offset = ref ji.ji_header_bytes in
  let clean = ref !offset in
  List.iteri
    (fun i line ->
      let no = i + 1 in
      (* a mid-line crash can only tear the final record *)
      let unless_last fmt =
        Printf.ksprintf
          (fun m -> if i < total - 1 then err (Journal_corrupt m))
          fmt
      in
      offset := !offset + String.length line + 1;
      match Jsonl.parse line with
      | exception Jsonl.Parse_error m ->
          unless_last "record %d unreadable (%s)" no m
      | j -> (
          match Jsonl.member "type" j with
          | Some (Jsonl.String "heartbeat") ->
              (* progress heartbeats are informational *)
              ()
          | Some (Jsonl.String "pruned") ->
              if Some j <> r.pruned_record then
                corrupt
                  "record %d: pruned-fault record does not match this \
                   campaign's cone analysis"
                  no
          | Some (Jsonl.String "plan") ->
              if Some j <> r.plan_record then
                corrupt
                  "record %d: plan record does not match this campaign's \
                   schedule"
                  no
          | Some (Jsonl.String "retry") -> (
              match (Jsonl.member "batch" j, Jsonl.member "kind" j) with
              | Some (Jsonl.Int b), Some (Jsonl.String k) ->
                  retry_events := (b, k) :: !retry_events
              | _ -> unless_last "record %d: malformed retry record" no)
          | _ -> (
              match batch_of_json j with
              | exception Jsonl.Parse_error m ->
                  unless_last "record %d unreadable (%s)" no m
              | b ->
                  if b.b_index < 0 || b.b_index >= nbatches then
                    corrupt "record %d: batch index %d out of range" no
                      b.b_index;
                  if Hashtbl.mem seen b.b_index then
                    corrupt "record %d: duplicate batch %d" no b.b_index;
                  if b.b_ids <> r.ids.(b.b_index) then
                    corrupt
                      "record %d: fault ids of batch %d do not match the \
                       campaign's decomposition"
                      no b.b_index;
                  if
                    Array.length b.b_detected <> Array.length b.b_ids
                    || Array.length b.b_cycles <> Array.length b.b_ids
                  then corrupt "record %d: verdict arrays truncated" no;
                  Hashtbl.replace seen b.b_index ();
                  outcomes := b :: !outcomes;
                  clean := !offset)))
    ji.ji_records;
  (* count only events whose batch record landed: the rest are being
     truncated away and will be regenerated *)
  let count kind =
    List.length
      (List.filter
         (fun (b, k) -> k = kind && Hashtbl.mem seen b)
         !retry_events)
  in
  {
    rp_outcomes = List.rev !outcomes;
    rp_retries = count "split";
    rp_restarts = count "restart";
    rp_clean_bytes = !clean;
  }

(* Install the replayed outcomes, then open the journal for appending: a
   fresh journal truncates any stale file and writes the header, the
   statically-pruned verdicts and the plan; a resumed one first drops its
   crashed suffix (a torn line, an unreadable final record, orphaned retry
   events), since writing after torn bytes would corrupt the journal for
   the next resume. Heartbeat bookkeeping starts from the resumed batches,
   so a resumed campaign reports true completion. *)
let start_output r replay =
  List.iter
    (fun b ->
      r.outcomes.(b.b_index) <- Some b;
      r.done_faults <- r.done_faults + Array.length b.b_ids;
      Array.iter (fun d -> if d then r.det_faults <- r.det_faults + 1)
        b.b_detected)
    replay.rp_outcomes;
  r.jout <-
    Option.map
      (fun path ->
        if replay.rp_outcomes = [] then begin
          let oc = open_out path in
          append_record oc r.header;
          Option.iter (append_record oc) r.pruned_record;
          Option.iter (append_record oc) r.plan_record;
          oc
        end
        else begin
          if replay.rp_clean_bytes < (Unix.stat path).Unix.st_size then begin
            let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () -> Unix.ftruncate fd replay.rp_clean_bytes)
          end;
          open_out_gen [ Open_append; Open_wronly ] 0o644 path
        end)
      r.cfg.journal;
  r.hb <-
    Option.map
      (fun interval ->
        Obs.Heartbeat.create ~interval
          ~total:
            (Array.length r.faults - Array.length r.plan.Schedule.sp_pruned)
          ())
      r.cfg.progress

(* ---- batch execution ---- *)

(* Run the configured engine over [ids] with an explicit workload (the
   budget-wrapped one for batch execution, a narrowed window for shrinker
   replays), through the one shared {!Campaign.dispatch} point; [probe]
   reaches the concurrent engine only. Warm starts are the plan's — any
   subset of a batch gets the latest snapshot at or before its own earliest
   activation — and apply only at the captured workload length: the
   shrinker's narrowed windows run cold. *)
let engine_with r ?probe ~worker (wk : Workload.t) ids =
  let cc, inst =
    match r.cfg.engine with
    | Campaign.Ifsim | Campaign.Vfsim -> (None, None)
    | e ->
        let corrupt_verdict =
          Option.bind r.cfg.inject_divergence (fun f ->
              Array.find_index (( = ) f) ids)
        in
        ( Some
            {
              Engine.Concurrent.default_config with
              mode = Campaign.concurrent_mode e;
              corrupt_verdict;
            },
          Some (instance_for r.instances r.g worker) )
  in
  let goodtrace =
    if wk.Workload.cycles = r.w.Workload.cycles then
      Schedule.warm_for r.plan ids
    else None
  in
  Campaign.dispatch ?config:cc ?probe ?goodtrace ?instance:inst r.cfg.engine
    r.g wk r.faults ~ids

(* budget- and chaos-free engine entry for the shrinker: replays must be
   pure functions of (ids, cycles) *)
let engine_at r ?probe ~worker ~cycles ids =
  engine_with r ?probe ~worker { r.w with Workload.cycles } ids

let engine_on r ~worker ~batch ids =
  let config = r.cfg in
  let deadline =
    Option.map (fun s -> Stats.now () +. s) config.max_batch_seconds
  in
  let wb =
    Workload.with_budget ?max_cycles:config.max_batch_cycles ?deadline r.w
  in
  let wb =
    (* chaos: stall the first drive call past the deadline, once per batch,
       so the watchdog (not the chaos harness) kills the batch *)
    if Chaos.active () && Chaos.stall ~batch then
      let drive c =
        if c = 0 then
          Unix.sleepf
            (match config.max_batch_seconds with
            | Some s -> (2.0 *. s) +. 0.01
            | None -> 0.05);
        wb.Workload.drive c
      in
      { wb with Workload.drive }
    else wb
  in
  engine_with r ~worker wb ids

(* The serial per-fault oracle over a fault-id subset. *)
let serial r ?(cycles = r.w.Workload.cycles) ids =
  try
    Campaign.dispatch Campaign.Ifsim r.g { r.w with Workload.cycles } r.faults
      ~ids
  with Workload.Invalid_workload msg -> err (Bad_workload msg)

let retry_event b kind fields =
  Jsonl.Obj
    ([
       ("type", Jsonl.String "retry");
       ("kind", Jsonl.String kind);
       ("batch", Jsonl.Int b);
     ]
    @ fields)

let split_event b ids cycle reason =
  retry_event b "split"
    [
      ("ids", ids_json ids);
      ("cycle", Jsonl.Int cycle);
      ("reason", Jsonl.String reason);
    ]

let restart_event b attempt error =
  retry_event b "restart"
    [ ("attempt", Jsonl.Int attempt); ("error", Jsonl.String error) ]

let quarantine_event b ids =
  retry_event b "quarantine" [ ("ids", ids_json ids) ]

(* Errors supervision must never swallow: structured campaign failures,
   the chaos harness's simulated crash, pool teardown, and a design that
   does not settle, which fails the same way on every retry. *)
let fatal = function
  | Campaign_error _ | Chaos.Killed _ | Pool.Shutdown | Sim.Simulator.Unstable _
    ->
      true
  | _ -> false

(* Per-fault quarantine, the supervisor's last resort once halving and
   restarts are exhausted: each fault runs alone with a fresh budget, and a
   fault that still fails is abandoned — reported undetected and listed in
   [b_failed] — instead of looping or aborting the campaign. *)
let quarantine_pieces r ~worker ~events b_index ids =
  events := quarantine_event b_index ids :: !events;
  Array.to_list (Schedule.singletons ids)
  |> List.map (fun piece ->
         match engine_on r ~worker ~batch:b_index piece with
         | res -> (piece, Some res)
         | exception Workload.Budget_exceeded _ -> (piece, None)
         | exception Workload.Invalid_workload msg -> err (Bad_workload msg)
         | exception e when not (fatal e) ->
             r.instances.(worker) <- None;
             (piece, None))

(* Run one batch under the watchdog. A budget trip refines the plan:
   {!Schedule.halve} splits the batch into its two order-preserving halves,
   each retried with a fresh budget (and, being a smaller fault set, a warm
   start at or past the parent's), down to unsplittable single-fault
   batches or [max_retries] split generations — whichever comes first —
   then reports a structured timeout (or, supervised, falls back to
   per-fault quarantine, the singleton refinement). A crash inside the
   engine discards the worker's instance so the retry runs on a freshly
   built one. *)
let rec exec_pieces r ~worker ~events b_index depth ids =
  let config = r.cfg in
  match engine_on r ~worker ~batch:b_index ids with
  | res -> [ (ids, Some res) ]
  | exception Workload.Budget_exceeded { cycle; reason } -> (
      match Schedule.halve ids with
      | Some (left, right) when depth < config.max_retries ->
          Atomic.incr r.retries;
          events := split_event b_index ids cycle reason :: !events;
          exec_pieces r ~worker ~events b_index (depth + 1) left
          @ exec_pieces r ~worker ~events b_index (depth + 1) right
      | _ ->
          if config.supervise then
            quarantine_pieces r ~worker ~events b_index ids
          else err (Batch_timeout { batch = b_index; ids; cycle; reason }))
  | exception Workload.Invalid_workload msg -> err (Bad_workload msg)
  | exception e when config.supervise && not (fatal e) ->
      r.instances.(worker) <- None;
      Atomic.incr r.restarts;
      events := restart_event b_index depth (Printexc.to_string e) :: !events;
      if depth < config.max_retries then
        exec_pieces r ~worker ~events b_index (depth + 1) ids
      else quarantine_pieces r ~worker ~events b_index ids

(* ---- oracle check and shrinking ---- *)

let oracle_sampled config b_index =
  config.oracle_sample > 0.0
  && (config.oracle_sample >= 1.0
     ||
     let rng =
       Rng.create
         (Int64.logxor sample_seed
            (Int64.of_int ((b_index + 1) * 0x9E3779B9)))
     in
     Rng.int rng 1_000_000 < int_of_float (config.oracle_sample *. 1_000_000.))

let out_name r i =
  Rtlir.Design.signal_name r.g.Rtlir.Elaborate.design
    r.g.Rtlir.Elaborate.outputs.(i)

(* Expected (oracle-side) output-port values of one faulty network at cycle
   [at] over window [cycles] — a lone simulator in the serial oracle's
   IFsim configuration. *)
let oracle_outputs r fault_id ~cycles ~at =
  let g = r.g in
  let sim, on_cycle_start =
    Baselines.Serial.faulty_sim ~config:Baselines.Serial.ifsim_config g
      r.faults.(fault_id)
  in
  let wc =
    Workload.checked
      ~num_signals:(Rtlir.Design.num_signals g.Rtlir.Elaborate.design)
      { r.w with Workload.cycles }
  in
  let vals = Array.make (Array.length g.Rtlir.Elaborate.outputs) "" in
  Workload.run ~on_cycle_start wc
    ~set_input:(Sim.Simulator.set_input sim)
    ~step:(fun () -> Sim.Simulator.step sim)
    ~observe:(fun c ->
      if c = at then begin
        Array.iteri
          (fun i b -> vals.(i) <- Rtlir.Bits.to_string b)
          (Sim.Simulator.outputs sim);
        false
      end
      else true);
  vals

(* Observed (engine-side) output-port values for [fault_id] inside the
   co-batched set [ids] at cycle [at], via the concurrent engine's probe.
   [None] for serial engines, which have no probe seam. *)
let engine_outputs r ~worker ids fault_id ~cycles ~at =
  match r.cfg.engine with
  | Campaign.Ifsim | Campaign.Vfsim -> None
  | _ ->
      let outputs = r.g.Rtlir.Elaborate.outputs in
      let k =
        Option.value (Array.find_index (( = ) fault_id) ids) ~default:0
      in
      let vals = Array.make (Array.length outputs) "" in
      let probe c view _mem =
        if c = at then
          Array.iteri
            (fun i o -> vals.(i) <- Rtlir.Bits.to_string (view k o))
            outputs
      in
      ignore (engine_at r ~probe ~cycles ~worker ids);
      Some vals

(* Shrink one confirmed divergence to a minimal reproducer and write the
   [repro-<fault>.json] file. [None] when the divergence does not reproduce
   from the batch starting point (flake) or no repro dir is configured. *)
let shrink_one r ~worker ids (d : divergence) =
  match r.cfg.repro_dir with
  | None -> None
  | Some dir -> (
      let run_engine ~ids ~cycles = engine_at r ~cycles ~worker ids in
      let run_oracle ~id ~cycles =
        let o = serial r ~cycles [| id |] in
        (o.Fault.detected.(0), o.Fault.detection_cycle.(0))
      in
      let observe ~ids ~cycles =
        let od, oc = run_oracle ~id:d.div_fault ~cycles in
        let at = if od && oc >= 0 then oc else cycles - 1 in
        if at < 0 then []
        else
          let expected = oracle_outputs r d.div_fault ~cycles ~at in
          match engine_outputs r ~worker ids d.div_fault ~cycles ~at with
          | None -> []
          | Some observed ->
              List.init (Array.length expected) (fun i ->
                  (out_name r i, expected.(i), observed.(i)))
      in
      match
        Shrink.shrink ~run_engine ~run_oracle ~refine:Schedule.halve ~observe
          ~fault:d.div_fault ~ids ~cycles:r.w.Workload.cycles ()
      with
      | None -> None
      | Some o ->
          if not (Sys.file_exists dir) then (
            try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
          let file = Printf.sprintf "repro-%d.json" o.Shrink.sh_fault in
          let fault = r.faults.(o.Shrink.sh_fault) in
          let json =
            Shrink.repro_to_json
              ~design:r.g.Rtlir.Elaborate.design.Rtlir.Design.dname
              ~engine:(Campaign.engine_name r.cfg.engine)
              ?circuit:r.cfg.repro_meta ?inject:r.cfg.inject_divergence ~fault
              ~fault_name:(Fault.describe r.g.Rtlir.Elaborate.design fault)
              o
          in
          (* an unwritable repro dir is a bad parameter, not a batch crash
             for the supervisor to retry *)
          (try
             write_atomic (Filename.concat dir file) (fun oc ->
                 output_string oc (Jsonl.to_string json);
                 output_char oc '\n')
           with Sys_error msg -> err (Bad_workload msg));
          Some file)

(* Re-check a sampled batch against the serial oracle. A disagreeing fault
   is quarantined: re-simulated alone, serially; that verdict is final
   (overwritten into [detected]/[cycles]) and the engine's is reported as
   divergent. A detection-cycle mismatch between two detections counts — it
   is the same engine bug caught one observation later. Abandoned faults
   ([failed]) are not checked. Returns whether the batch was sampled, its
   divergences and the repro files shrunk from them. *)
let check r ~worker b_index ids ~detected ~cycles ~failed =
  if not (oracle_sampled r.cfg b_index) then (false, [], [])
  else begin
    let oracle = serial r ids in
    let divergences = ref [] in
    Array.iteri
      (fun k id ->
        if
          (not failed.(k))
          && (oracle.Fault.detected.(k) <> detected.(k)
             || oracle.Fault.detected.(k)
                && oracle.Fault.detection_cycle.(k) <> cycles.(k))
        then begin
          let lone = serial r [| id |] in
          let d =
            {
              div_fault = id;
              div_batch = b_index;
              engine_detected = detected.(k);
              engine_cycle = cycles.(k);
              oracle_detected = lone.Fault.detected.(0);
              oracle_cycle = lone.Fault.detection_cycle.(0);
            }
          in
          divergences := d :: !divergences;
          detected.(k) <- d.oracle_detected;
          cycles.(k) <- d.oracle_cycle
        end)
      ids;
    let divergences = List.rev !divergences in
    if divergences <> [] && not r.cfg.quarantine then
      err (Engine_divergence divergences);
    (true, divergences, List.filter_map (shrink_one r ~worker ids) divergences)
  end

(* One batch task, wherever it runs: the chaos seam, the watchdog-guarded
   pieces, the oracle check. A task that raises discards its worker's
   engine instance (the crash may have left it mid-batch), so a restart
   runs on a freshly built one. *)
let task r ~worker ~events b_index =
  let ids = r.ids.(b_index) in
  try
    Chaos.batch_start ~batch:b_index;
    let t = Stats.now () in
    let span_t0 = Obs.Trace.span_begin "batch" in
    let pieces = exec_pieces r ~worker ~events b_index 0 ids in
    let nb = Array.length ids in
    let detected = Array.make nb false in
    let cycles = Array.make nb (-1) in
    let failed = Array.make nb false in
    let stats = ref (Stats.create ()) in
    let pos = ref 0 in
    List.iter
      (fun (pids, res) ->
        (match res with
        | Some (res : Fault.result) ->
            Array.iteri
              (fun k _ ->
                detected.(!pos + k) <- res.Fault.detected.(k);
                cycles.(!pos + k) <- res.Fault.detection_cycle.(k))
              pids;
            stats := Stats.add !stats res.Fault.stats
        | None ->
            (* abandoned by quarantine: verdict unknown, reported
               undetected and listed in [b_failed] *)
            Array.fill failed !pos (Array.length pids) true);
        pos := !pos + Array.length pids)
      pieces;
    let sampled, divergences, repros =
      check r ~worker b_index ids ~detected ~cycles ~failed
    in
    Obs.Trace.span_end "batch" span_t0;
    {
      b_index;
      b_ids = ids;
      b_detected = detected;
      b_cycles = cycles;
      b_stats = !stats;
      b_wall = Stats.now () -. t;
      b_oracle_checked = sampled;
      b_divergences = divergences;
      b_failed =
        Array.of_list
          (List.filteri (fun k _ -> failed.(k)) (Array.to_list ids));
      b_repros = repros;
    }
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    r.instances.(worker) <- None;
    Printexc.raise_with_backtrace e bt

(* ---- recording and dispatch ---- *)

(* Record one finished batch, on the coordinator, in batch-index order. The
   coordinator is the only domain that touches [outcomes] and the journal,
   so the journal always holds an index-ordered prefix (plus resumed
   records), and the merge is independent of which worker ran which batch —
   the report is byte-identical for any [jobs]. Retry, restart and
   quarantine events land just before their batch record, so the journal's
   clean prefix always ends at a batch record and resume counts exactly the
   events it keeps. *)
let record r i b events =
  r.outcomes.(i) <- Some b;
  r.executed <- r.executed + 1;
  r.done_faults <- r.done_faults + Array.length b.b_ids;
  Array.iter (fun d -> if d then r.det_faults <- r.det_faults + 1) b.b_detected;
  Option.iter
    (fun oc ->
      List.iter (append_record ~chaos_batch:i oc) events;
      append_record ~chaos_batch:i oc (batch_to_json b))
    r.jout;
  Option.iter
    (fun hb ->
      match
        Obs.Heartbeat.update hb ~done_:r.done_faults ~detected:r.det_faults
      with
      | None -> ()
      | Some tick ->
          prerr_endline (Obs.Heartbeat.to_line hb tick);
          Option.iter
            (fun oc ->
              output_string oc (Obs.Heartbeat.to_json hb tick);
              output_char oc '\n';
              flush oc)
            r.jout)
    r.hb

(* A batch whose task crashed [max_retries + 1] times even under
   supervision: every fault abandoned, nothing executed. *)
let abandoned_outcome ~events i ids =
  events := quarantine_event i ids :: !events;
  {
    b_index = i;
    b_ids = ids;
    b_detected = Array.make (Array.length ids) false;
    b_cycles = Array.make (Array.length ids) (-1);
    b_stats = Stats.create ();
    b_wall = 0.0;
    b_oracle_checked = false;
    b_divergences = [];
    b_failed = Array.copy ids;
    b_repros = [];
  }

(* Obtain batch [i]'s outcome and record it. Supervised, a task that failed
   (a chaos injection, or a bug outside [exec_pieces]'s own recovery) is
   started again as a fresh task, up to [max_retries] times, then
   abandoned. Recovery happens in batch-index order, so it is deterministic
   given the failure schedule. *)
let rec supervise r ~start i events obtain attempt =
  match obtain () with
  | Ok b -> record r i b (List.rev !events)
  | Error (e, bt) when (not r.cfg.supervise) || fatal e ->
      Printexc.raise_with_backtrace e bt
  | Error (e, _) ->
      Atomic.incr r.restarts;
      events := restart_event i attempt (Printexc.to_string e) :: !events;
      if attempt < r.cfg.max_retries then
        supervise r ~start i events (start events i) (attempt + 1)
      else
        let b = abandoned_outcome ~events i r.ids.(i) in
        record r i b (List.rev !events)

(* The one dispatch-and-supervise loop. [start events i] starts batch [i]'s
   task and returns the function that obtains its outcome. Every pending
   batch is started costliest-first (the plan's cost hint), so on a pool
   the long pole starts before the workers fill up with short batches;
   outcomes are obtained — and therefore journaled and merged — in
   batch-index order, whatever the start order. Where a task runs is the
   only thing the width decides, and the width is [jobs] capped at the
   number of pending batches: at width 1 (or 0, a fully resumed campaign)
   it runs inline on the calling domain when it is obtained (a spawned
   domain ran the same campaign measurably slower, see DESIGN.md §9);
   above that it is submitted to a pool of that many worker domains. *)
let execute r =
  let width =
    min r.cfg.jobs
      (Array.fold_left
         (fun n o -> if Option.is_none o then n + 1 else n)
         0 r.outcomes)
  in
  let loop start =
    let order = Array.init (Array.length r.ids) Fun.id in
    let cost i = r.plan.Schedule.sp_batches.(i).Schedule.sb_cost in
    Array.stable_sort (fun a b -> compare (cost b) (cost a)) order;
    let started = Array.make (Array.length r.ids) None in
    Array.iter
      (fun i ->
        if r.outcomes.(i) = None then
          let events = ref [] in
          started.(i) <- Some (events, start events i))
      order;
    Array.iteri
      (fun i ->
        Option.iter (fun (events, obtain) ->
            supervise r ~start i events obtain 0))
      started
  in
  if width <= 1 then
    loop (fun events i () ->
        match task r ~worker:0 ~events i with
        | b -> Ok b
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  else
    Pool.with_pool ~jobs:width (fun pool ->
        loop (fun events i ->
            let fut =
              Pool.submit pool (fun worker -> task r ~worker ~events i)
            in
            fun () -> Pool.await_result fut))

(* Fold the index-ordered outcomes into one campaign result. *)
let merge r ~t0 replay =
  Obs.Trace.with_span "merge" @@ fun () ->
  let n = Array.length r.faults in
  let detected = Array.make n false in
  let detection_cycle = Array.make n (-1) in
  let stats = ref (Stats.create ()) in
  let divergences = ref [] in
  let oracle_checked = ref 0 in
  let failed_faults = ref [] in
  let repros = ref [] in
  Array.iter
    (function
      | None -> assert false (* [execute] filled every index *)
      | Some b ->
          Array.iteri
            (fun k id ->
              detected.(id) <- b.b_detected.(k);
              detection_cycle.(id) <- b.b_cycles.(k))
            b.b_ids;
          stats := Stats.add !stats b.b_stats;
          if b.b_oracle_checked then incr oracle_checked;
          divergences := !divergences @ b.b_divergences;
          failed_faults :=
            List.rev_append (Array.to_list b.b_failed) !failed_faults;
          repros := !repros @ b.b_repros)
    r.outcomes;
  let wall = Stats.now () -. t0 in
  let stats = !stats in
  stats.Stats.total_seconds <- wall;
  let plan = r.plan in
  Option.iter
    (fun t ->
      stats.Stats.goodtrace_captures <- 1;
      stats.Stats.plan_batches <- Array.length r.ids;
      stats.Stats.plan_snapshots <- Array.length t.Sim.Goodtrace.snapshots)
    plan.Schedule.sp_trace;
  stats.Stats.cone_pruned <- Array.length plan.Schedule.sp_pruned;
  {
    result =
      Fault.make_result ~detected ~detection_cycle ~stats ~wall_time:wall ();
    batches_total = Array.length r.ids;
    batches_resumed = List.length replay.rp_outcomes;
    batches_executed = r.executed;
    retries = replay.rp_retries + Atomic.get r.retries;
    restarts = replay.rp_restarts + Atomic.get r.restarts;
    oracle_checked = !oracle_checked;
    divergences = !divergences;
    quarantined = List.map (fun d -> d.div_fault) !divergences;
    failed_faults = List.rev !failed_faults;
    pruned_faults = Array.to_list plan.Schedule.sp_pruned;
    repros = !repros;
    capture_bytes =
      (match plan.Schedule.sp_trace with
      | Some t -> t.Sim.Goodtrace.capture_bytes
      | None -> 0);
  }

let run ?(config = default_config) g w faults =
  let t0 = Stats.now () in
  validate config w;
  let config, journal_in = open_journal config in
  let r = plan config g w faults in
  let replay =
    Option.fold ~none:empty_replay ~some:(replay_journal r) journal_in
  in
  start_output r replay;
  Fun.protect
    ~finally:(fun () -> Option.iter close_out_noerr r.jout)
    (fun () -> execute r);
  merge r ~t0 replay
