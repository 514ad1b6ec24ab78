(** FIFO domain pool for fault-partition parallelism.

    Fault partitions never interact — every faulty network is an
    independent perturbation of the shared good trace — so the pool only
    has to start tasks on its worker domains. One mutex and condition
    guard one queue: {!submit} appends, an idle worker takes the oldest
    task, so tasks start in submission order (a caller that submits its
    costliest work first gets it started first). Tasks are coarse (whole
    fault batches), so the single lock is never contended enough to
    matter.

    Determinism contract: tasks may finish in any order — callers get
    determinism by merging results in submission order ([await] on the
    futures in the order they were created), which is how {!Resilient}
    produces byte-identical reports for any [jobs].

    When tracing is enabled ({!Obs.Trace}), every task records a
    ["pool.task"] span on its worker's timeline, and each worker stamps its
    task count and cumulative idle seconds as the ["pool.worker_tasks"] and
    ["pool.worker_idle_s"] counters on exit. *)

type t

(** Result handle for a submitted task. *)
type 'a future

(** Completes every task that was still queued when {!with_pool}'s body
    raised. *)
exception Shutdown

(** Queue a task; it receives the index in [0, jobs) of the worker that
    runs it. Raises [Invalid_argument] once the pool is closed. Tasks must
    not [await] futures of the same pool — workers executing tasks are the
    only threads that complete them. *)
val submit : t -> (int -> 'a) -> 'a future

(** Block until the task finishes. Re-raises the task's exception with its
    original backtrace if it failed, or {!Shutdown} if it was discarded. *)
val await : 'a future -> 'a

(** Block until the task finishes, returning the outcome as a value instead
    of re-raising — the supervision entry point: a coordinator inspects the
    error and decides to re-dispatch rather than unwind. *)
val await_result : 'a future -> ('a, exn * Printexc.raw_backtrace) result

(** [with_pool ~jobs f] runs [f] over a fresh pool of [jobs >= 1] worker
    domains. When [f] returns, the pool closes, the queue drains and every
    worker is joined. When [f] raises, tasks no worker has started complete
    with {!Shutdown} (so a blocked [await] never hangs), running tasks
    finish, every worker is joined and the exception is re-raised. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a
