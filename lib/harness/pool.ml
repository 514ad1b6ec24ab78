open Faultsim
module Ivec = Engine.Ivec

type ctx = { worker : int; jobs : int; rng : Rng.t }

exception Shutdown

type 'a fstate =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  mutable st : 'a fstate;
  fm : Mutex.t;  (* the pool's lock — completion is signalled on [fc] *)
  fc : Condition.t;
}

(* A queued task: [run] executes it and records the outcome in its future;
   [cancel] completes the future with [Shutdown]. [cancel] is called with
   the pool lock held, so it must not lock. *)
type task = { run : ctx -> unit; cancel : unit -> unit }

(* Elements [head, length) are live; the owner pops from the back, thieves
   advance [head]. Resetting [head] when the deque empties keeps the
   backing storage bounded by the peak queue depth. *)
type deque = { iv : Ivec.t; mutable head : int }

(* Per-worker utilization accounting, mutated only by the owning worker
   under the pool lock (idle time around [Condition.wait], counts at task
   claim), read by {!worker_stats} under the same lock. *)
type worker_stat = {
  mutable ws_tasks : int;
  mutable ws_steals : int;
  mutable ws_idle_s : float;
}

type t = {
  m : Mutex.t;
  cond : Condition.t;
  deques : deque array;  (* one per worker, task ids *)
  mutable tasks : task option array;  (* slot emptied once claimed *)
  mutable ntasks : int;
  mutable closed : bool;
  mutable next : int;  (* round-robin submission cursor *)
  rngs : Rng.t array;
  mutable domains : unit Domain.t array;
  njobs : int;
  wstats : worker_stat array;
}

let jobs t = t.njobs

let deque_empty d =
  if d.head = Ivec.length d.iv then begin
    Ivec.clear d.iv;
    d.head <- 0;
    true
  end
  else false

let take_back d =
  if deque_empty d then None
  else begin
    let id = Ivec.pop d.iv in
    ignore (deque_empty d);
    Some id
  end

let steal_front d =
  if deque_empty d then None
  else begin
    let id = Ivec.get d.iv d.head in
    d.head <- d.head + 1;
    ignore (deque_empty d);
    Some id
  end

(* Own deque first (LIFO keeps caches warm), then scan siblings from the
   next index so thieves spread out. Caller holds the lock. The flag says
   whether the task came from a sibling's deque (a steal). *)
let find_work t w =
  match take_back t.deques.(w) with
  | Some id -> Some (id, false)
  | None ->
      let rec scan i =
        if i = t.njobs then None
        else
          match steal_front t.deques.((w + i) mod t.njobs) with
          | Some id -> Some (id, true)
          | None -> scan (i + 1)
      in
      scan 1

let worker_loop t w =
  let ctx = { worker = w; jobs = t.njobs; rng = t.rngs.(w) } in
  let ws = t.wstats.(w) in
  Mutex.lock t.m;
  let rec loop () =
    match find_work t w with
    | Some (id, stolen) ->
        let task =
          match t.tasks.(id) with Some k -> k | None -> assert false
        in
        t.tasks.(id) <- None;
        ws.ws_tasks <- ws.ws_tasks + 1;
        if stolen then ws.ws_steals <- ws.ws_steals + 1;
        Mutex.unlock t.m;
        let t0 = Obs.Trace.span_begin "pool.task" in
        task.run ctx;
        Obs.Trace.span_end "pool.task" t0;
        Mutex.lock t.m;
        loop ()
    | None ->
        if t.closed then Mutex.unlock t.m
        else begin
          (* waiting is already the slow path: always time it *)
          let idle0 = Unix.gettimeofday () in
          Condition.wait t.cond t.m;
          ws.ws_idle_s <- ws.ws_idle_s +. (Unix.gettimeofday () -. idle0);
          loop ()
        end
  in
  loop ();
  (* Each worker stamps its own utilization totals into its domain's ring
     on exit, so the Chrome trace shows one counter track per worker. *)
  if Obs.Trace.on () then begin
    Obs.Trace.counter "pool.worker_tasks" (float_of_int ws.ws_tasks);
    Obs.Trace.counter "pool.worker_steals" (float_of_int ws.ws_steals);
    Obs.Trace.counter "pool.worker_idle_s" ws.ws_idle_s
  end

let create ?(seed = 0x51CA5EEDL) ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      m = Mutex.create ();
      cond = Condition.create ();
      deques =
        Array.init jobs (fun _ -> { iv = Ivec.create ~capacity:16 (); head = 0 });
      tasks = Array.make 64 None;
      ntasks = 0;
      closed = false;
      next = 0;
      rngs = Rng.split (Rng.create seed) jobs;
      domains = [||];
      njobs = jobs;
      wstats =
        Array.init jobs (fun _ ->
            { ws_tasks = 0; ws_steals = 0; ws_idle_s = 0.0 });
    }
  in
  t.domains <- Array.init jobs (fun w -> Domain.spawn (fun () -> worker_loop t w));
  t

(* The only legal [st] transitions are Pending -> Done / Pending -> Failed,
   and they happen under the future's lock: [cancel] and a worker finishing
   the same task both funnel through here, and whichever arrives second
   finds the future settled and drops its result. Caller holds [fut.fm]. *)
let complete fut r cond =
  match fut.st with
  | Pending ->
      fut.st <- r;
      Condition.broadcast cond
  | Done _ | Failed _ -> ()

let submit t f =
  let fut = { st = Pending; fm = t.m; fc = t.cond } in
  let run ctx =
    Mutex.lock t.m;
    let cancelled = fut.st <> Pending in
    Mutex.unlock t.m;
    if not cancelled then begin
      let r =
        try Done (f ctx) with e -> Failed (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.m;
      complete fut r t.cond;
      Mutex.unlock t.m
    end
  in
  let cancel () =
    complete fut (Failed (Shutdown, Printexc.get_callstack 0)) t.cond
  in
  Mutex.lock t.m;
  if t.closed then begin
    Mutex.unlock t.m;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  let id = t.ntasks in
  if id = Array.length t.tasks then begin
    let a = Array.make (2 * id) None in
    Array.blit t.tasks 0 a 0 id;
    t.tasks <- a
  end;
  t.tasks.(id) <- Some { run; cancel };
  t.ntasks <- id + 1;
  Ivec.push t.deques.(t.next).iv id;
  t.next <- (t.next + 1) mod t.njobs;
  Condition.broadcast t.cond;
  Mutex.unlock t.m;
  fut

let await_result fut =
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.st with
    | Pending ->
        Condition.wait fut.fc fut.fm;
        wait ()
    | Done v ->
        Mutex.unlock fut.fm;
        Ok v
    | Failed (e, bt) ->
        Mutex.unlock fut.fm;
        Error (e, bt)
  in
  wait ()

let await fut =
  match await_result fut with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let cancel fut =
  Mutex.lock fut.fm;
  let won = fut.st = Pending in
  if won then begin
    fut.st <- Failed (Shutdown, Printexc.get_callstack 0);
    Condition.broadcast fut.fc
  end;
  Mutex.unlock fut.fm;
  won

let shutdown ?(discard = false) t =
  Mutex.lock t.m;
  if t.closed then Mutex.unlock t.m
  else begin
    t.closed <- true;
    if discard then
      Array.iter
        (fun d ->
          while not (deque_empty d) do
            let id = Ivec.get d.iv d.head in
            d.head <- d.head + 1;
            match t.tasks.(id) with
            | Some task ->
                t.tasks.(id) <- None;
                task.cancel ()
            | None -> ()
          done)
        t.deques;
    Condition.broadcast t.cond;
    Mutex.unlock t.m;
    Array.iter Domain.join t.domains
  end

let worker_stats t =
  Mutex.lock t.m;
  let r =
    Array.map (fun ws -> (ws.ws_tasks, ws.ws_steals, ws.ws_idle_s)) t.wstats
  in
  Mutex.unlock t.m;
  r

let with_pool ?seed ~jobs f =
  let t = create ?seed ~jobs () in
  match f t with
  | v ->
      shutdown t;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      shutdown ~discard:true t;
      Printexc.raise_with_backtrace e bt
