exception Shutdown

(* A queued task: [run] executes it on a worker, [discard] completes its
   future with [Shutdown]. [discard] is called with the pool lock held. *)
type task = { run : int -> unit; discard : unit -> unit }

type t = {
  m : Mutex.t;
  cond : Condition.t;  (* queued work, a settled future, or closing *)
  queue : task Queue.t;
  mutable closed : bool;
}

(* Settled exactly once, under the pool lock: by the worker that ran the
   task or by the discard that dropped it from the queue. *)
type 'a future = {
  pool : t;
  mutable outcome : ('a, exn * Printexc.raw_backtrace) result option;
}

let worker_loop t w =
  let tasks = ref 0 and idle = ref 0.0 in
  Mutex.lock t.m;
  let rec loop () =
    match Queue.take_opt t.queue with
    | Some task ->
        incr tasks;
        Mutex.unlock t.m;
        let t0 = Obs.Trace.span_begin "pool.task" in
        task.run w;
        Obs.Trace.span_end "pool.task" t0;
        Mutex.lock t.m;
        loop ()
    | None when t.closed -> Mutex.unlock t.m
    | None ->
        (* waiting is already the slow path: always time it *)
        let idle0 = Unix.gettimeofday () in
        Condition.wait t.cond t.m;
        idle := !idle +. (Unix.gettimeofday () -. idle0);
        loop ()
  in
  loop ();
  (* Each worker stamps its own totals into its domain's ring on exit, so
     the Chrome trace shows one counter track per worker. *)
  if Obs.Trace.on () then begin
    Obs.Trace.counter "pool.worker_tasks" (float_of_int !tasks);
    Obs.Trace.counter "pool.worker_idle_s" !idle
  end

(* Caller holds the pool lock. *)
let settle fut r =
  fut.outcome <- Some r;
  Condition.broadcast fut.pool.cond

let submit t f =
  let fut = { pool = t; outcome = None } in
  let run w =
    let r = try Ok (f w) with e -> Error (e, Printexc.get_raw_backtrace ()) in
    Mutex.protect t.m (fun () -> settle fut r)
  in
  let discard () = settle fut (Error (Shutdown, Printexc.get_callstack 0)) in
  Mutex.protect t.m (fun () ->
      if t.closed then invalid_arg "Pool.submit: pool is closed";
      Queue.push { run; discard } t.queue;
      Condition.broadcast t.cond);
  fut

let await_result fut =
  let t = fut.pool in
  Mutex.protect t.m (fun () ->
      let rec wait () =
        match fut.outcome with
        | Some r -> r
        | None ->
            Condition.wait t.cond t.m;
            wait ()
      in
      wait ())

let await fut =
  match await_result fut with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let with_pool ~jobs f =
  if jobs < 1 then invalid_arg "Pool.with_pool: jobs must be >= 1";
  let t =
    {
      m = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      closed = false;
    }
  in
  let domains =
    Array.init jobs (fun w -> Domain.spawn (fun () -> worker_loop t w))
  in
  let close ~discard =
    Mutex.protect t.m (fun () ->
        t.closed <- true;
        if discard then begin
          Queue.iter (fun task -> task.discard ()) t.queue;
          Queue.clear t.queue
        end;
        Condition.broadcast t.cond);
    Array.iter Domain.join domains
  in
  match f t with
  | v ->
      close ~discard:false;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close ~discard:true;
      Printexc.raise_with_backtrace e bt
