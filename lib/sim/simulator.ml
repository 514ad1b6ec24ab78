open Rtlir

type scheduler = Levelized | Fifo | Cycle_based

type eval_style = Closures | Bytecode

type config = { eval : eval_style; scheduler : scheduler }

let default_config = { eval = Closures; scheduler = Levelized }

exception Unstable of string

type t = {
  graph : Elaborate.t;
  config : config;
  values : Bits.t array;
  mems : Bits.t array array;
  force : (int * int * bool) option;
  (* Dirty tracking over topological positions of combinational nodes. *)
  dirty : bool array;
  mutable dirty_hi : int;  (* highest dirty position, -1 when clean *)
  mutable dirty_lo : int;
  (* FIFO event wheel (the Iverilog-style dynamic scheduler): pending node
     positions in arrival order; [dirty] doubles as the queued flag. *)
  fifo : int Queue.t;
  mutable current_pos : int;
      (* combinational node being evaluated right now: a process does not
         re-trigger on its own blocking writes (it is not waiting while it
         runs), so self-marks are suppressed *)
  (* Pending nonblocking updates, in execution order. *)
  mutable nba : (int * Bits.t) list;
  mutable nba_mem : (int * int * Bits.t) list;
  prev_clock : Bits.t array;  (* indexed like values; valid for clocks *)
  comb_eval : (unit -> unit) array;  (* per topological position *)
  ff_run : (unit -> unit) array;  (* per proc id; no-op for comb procs *)
  mutable executions : int;
}

let apply_force t id v =
  match t.force with
  | Some (fid, bit, value) when fid = id -> Bits.force_bit v bit value
  | Some _ | None -> v

(* Marking must update the sweep bounds even when the flag is already set:
   a self-reading comb process leaves its own flag set after the sweep
   passes it, and a later mark must still re-arm the bounds. In FIFO mode
   the flag instead means "queued". *)
let mark_pos t pos =
  if pos = t.current_pos then ()
  else
    match t.config.scheduler with
    | Fifo ->
        if not t.dirty.(pos) then begin
          t.dirty.(pos) <- true;
          Queue.push pos t.fifo
        end
    | Levelized | Cycle_based ->
        t.dirty.(pos) <- true;
        if pos > t.dirty_hi then t.dirty_hi <- pos;
        if pos < t.dirty_lo then t.dirty_lo <- pos

let mark_fanout t id =
  let fanout = t.graph.fanout_comb.(id) in
  for i = 0 to Array.length fanout - 1 do
    mark_pos t fanout.(i)
  done

let mark_mem_fanout t m =
  let fanout = t.graph.fanout_mem.(m) in
  for i = 0 to Array.length fanout - 1 do
    mark_pos t fanout.(i)
  done

let write_signal t id v =
  let v = apply_force t id v in
  if not (Bits.equal t.values.(id) v) then begin
    t.values.(id) <- v;
    mark_fanout t id
  end

let write_mem_now t m addr v =
  if not (Bits.equal t.mems.(m).(addr) v) then begin
    t.mems.(m).(addr) <- v;
    mark_mem_fanout t m
  end

let create ?(config = default_config) ?force g =
  let d = g.Elaborate.design in
  let nsig = Design.num_signals d in
  let values =
    Array.init nsig (fun i -> Bits.zero d.Design.signals.(i).width)
  in
  let mems =
    Array.map
      (fun (m : Design.mem) ->
        match m.init with
        | Some init -> Array.copy init
        | None -> Array.make m.size (Bits.zero m.data_width))
      d.Design.mems
  in
  let ncomb = Array.length g.Elaborate.comb_nodes in
  let t =
    {
      graph = g;
      config;
      values;
      mems;
      force;
      dirty = Array.make ncomb false;
      dirty_hi = -1;
      dirty_lo = ncomb;
      fifo = Queue.create ();
      current_pos = -1;
      nba = [];
      nba_mem = [];
      prev_clock = Array.copy values;
      comb_eval = Array.make ncomb (fun () -> ());
      ff_run = Array.make (Array.length d.Design.procs) (fun () -> ());
      executions = 0;
    }
  in
  (match force with
  | Some (id, bit, value) ->
      t.values.(id) <- Bits.force_bit t.values.(id) bit value
  | None -> ());
  let mem_size m = d.Design.mems.(m).size in
  let reader =
    {
      Access.get = (fun id -> t.values.(id));
      get_mem = (fun m a -> t.mems.(m).(a));
    }
  in
  let comb_writer =
    {
      Access.set_blocking = (fun id v -> write_signal t id v);
      set_nonblocking =
        (fun id _ ->
          raise
            (Unstable
               (Printf.sprintf "nonblocking write to %s in comb process"
                  (Design.signal_name d id))));
      write_mem =
        (fun _ _ _ -> raise (Unstable "memory write in comb process"));
    }
  in
  let ff_writer =
    {
      Access.set_blocking =
        (fun id _ ->
          raise
            (Unstable
               (Printf.sprintf "blocking write to %s in ff process"
                  (Design.signal_name d id))));
      set_nonblocking = (fun id v -> t.nba <- (id, v) :: t.nba);
      write_mem = (fun m a v -> t.nba_mem <- (m, a, v) :: t.nba_mem);
    }
  in
  (* Evaluation closures for combinational nodes (both styles expose the
     same [unit -> unit] interface). *)
  Array.iteri
    (fun pos node ->
      match node with
      | Elaborate.Cassign i -> (
          let a = d.Design.assigns.(i) in
          match config.eval with
          | Closures ->
              let ce = Compile.expr ~mem_size a.expr in
              t.comb_eval.(pos) <-
                (fun () -> write_signal t a.target (ce reader))
          | Bytecode ->
              let prog = Bytecode.compile ~mem_size a.expr in
              t.comb_eval.(pos) <-
                (fun () -> write_signal t a.target (Bytecode.eval prog reader))
          )
      | Elaborate.Cproc i -> (
          let p = d.Design.procs.(i) in
          match config.eval with
          | Closures ->
              let cp = Compile.proc ~mem_size p.body in
              t.comb_eval.(pos) <-
                (fun () ->
                  t.executions <- t.executions + 1;
                  Compile.exec cp reader comb_writer)
          | Bytecode ->
              let sp = Bytecode.compile_stmt ~mem_size p.body in
              t.comb_eval.(pos) <-
                (fun () ->
                  t.executions <- t.executions + 1;
                  Bytecode.exec sp reader comb_writer)))
    g.Elaborate.comb_nodes;
  Array.iter
    (fun i ->
      let p = d.Design.procs.(i) in
      match config.eval with
      | Closures ->
          let cp = Compile.proc ~mem_size p.body in
          t.ff_run.(i) <-
            (fun () ->
              t.executions <- t.executions + 1;
              Compile.exec cp reader ff_writer)
      | Bytecode ->
          let sp = Bytecode.compile_stmt ~mem_size p.body in
          t.ff_run.(i) <-
            (fun () ->
              t.executions <- t.executions + 1;
              Bytecode.exec sp reader ff_writer))
    g.Elaborate.ff_procs;
  (* Initial settle: evaluate everything once. *)
  for pos = 0 to ncomb - 1 do
    t.current_pos <- pos;
    t.comb_eval.(pos) ();
    t.current_pos <- -1
  done;
  t.dirty_hi <- -1;
  t.dirty_lo <- ncomb;
  Array.fill t.dirty 0 ncomb false;
  Queue.clear t.fifo;
  Array.iter (fun c -> t.prev_clock.(c) <- t.values.(c)) g.Elaborate.clocks;
  t

let settle t =
  let ncomb = Array.length t.comb_eval in
  match t.config.scheduler with
  | Levelized ->
      let pos = ref t.dirty_lo in
      while !pos <= t.dirty_hi do
        if t.dirty.(!pos) then begin
          t.dirty.(!pos) <- false;
          t.current_pos <- !pos;
          t.comb_eval.(!pos) ();
          t.current_pos <- -1
        end;
        incr pos
      done;
      t.dirty_hi <- -1;
      t.dirty_lo <- ncomb
  | Fifo ->
      (* Arrival-order processing without levelization: reconvergent fanout
         makes nodes re-evaluate on glitches, as in a classic event wheel.
         Terminates on acyclic logic; bounded by depth * nodes. *)
      let budget = ref (64 * (ncomb + 1) * (ncomb + 1)) in
      while not (Queue.is_empty t.fifo) do
        decr budget;
        if !budget < 0 then raise (Unstable "event wheel did not settle");
        let pos = Queue.pop t.fifo in
        t.dirty.(pos) <- false;
        t.current_pos <- pos;
        t.comb_eval.(pos) ();
        t.current_pos <- -1
      done
  | Cycle_based ->
      for pos = 0 to ncomb - 1 do
        t.current_pos <- pos;
        t.comb_eval.(pos) ();
        t.current_pos <- -1
      done;
      t.dirty_hi <- -1;
      t.dirty_lo <- ncomb;
      Array.fill t.dirty 0 ncomb false;
      Queue.clear t.fifo

let edge_fired edge ~old_b ~new_b =
  match edge with
  | Design.Posedge -> (not (Bits.bit old_b 0)) && Bits.bit new_b 0
  | Design.Negedge -> Bits.bit old_b 0 && not (Bits.bit new_b 0)

let commit_nba t =
  let writes = List.rev t.nba in
  t.nba <- [];
  List.iter (fun (id, v) -> write_signal t id v) writes;
  let mem_writes = List.rev t.nba_mem in
  t.nba_mem <- [];
  List.iter (fun (m, a, v) -> write_mem_now t m a v) mem_writes

let set_input t id v = write_signal t id v

let flip_bit t id bit =
  let cur = t.values.(id) in
  write_signal t id (Bits.force_bit cur bit (not (Bits.bit cur bit)))

let step t =
  settle t;
  let g = t.graph in
  let rounds = ref 0 in
  let continue = ref true in
  while !continue do
    incr rounds;
    if !rounds > 16 then raise (Unstable "clock edge cascade did not settle");
    let fired = ref [] in
    Array.iter
      (fun c ->
        let old_b = t.prev_clock.(c) and new_b = t.values.(c) in
        if not (Bits.equal old_b new_b) then begin
          List.iter
            (fun (pidx, edge) ->
              if edge_fired edge ~old_b ~new_b then fired := pidx :: !fired)
            g.Elaborate.ff_of_clock.(c);
          t.prev_clock.(c) <- new_b
        end)
      g.Elaborate.clocks;
    match !fired with
    | [] -> continue := false
    | l ->
        List.iter (fun pidx -> t.ff_run.(pidx) ()) (List.sort_uniq compare l);
        commit_nba t;
        settle t
  done

let peek t id = t.values.(id)
let peek_mem t m a = t.mems.(m).(a)
let outputs t = Array.map (fun id -> t.values.(id)) t.graph.Elaborate.outputs
let graph t = t.graph
let proc_executions t = t.executions
