(** Work-stealing domain pool for fault-partition parallelism.

    Fault partitions never interact — every faulty network is an
    independent perturbation of the shared good trace — so batches can be
    dispatched to worker domains freely. The pool is deliberately simple
    and dependency-free: one mutex and condition guard per-worker deques of
    task ids ([Engine.Ivec]-backed); a worker pops from the back of its own
    deque and steals from the front of a sibling's when idle. Tasks are
    coarse (whole fault batches), so the single lock is never contended
    enough to matter.

    Determinism contract: the pool itself guarantees nothing about
    execution order — callers get determinism by merging results in
    submission order ([await] on the futures in the order they were
    created), which is how {!Resilient} produces byte-identical reports for
    any [jobs]. *)

type t

(** Passed to every task: the executing worker's index in [0, jobs), the
    pool width, and a deterministic per-worker RNG ([Rng.split] of the pool
    seed — the same worker always holds the same stream, whatever tasks it
    ends up running). *)
type ctx = { worker : int; jobs : int; rng : Faultsim.Rng.t }

(** Result handle for a submitted task. *)
type 'a future

(** Raised by {!await} when the task was discarded by
    [shutdown ~discard:true] before a worker picked it up. *)
exception Shutdown

(** [create ~jobs ()] spawns [jobs] worker domains ([jobs >= 1]). [seed]
    roots the per-worker RNG streams. *)
val create : ?seed:int64 -> jobs:int -> unit -> t

val jobs : t -> int

(** Queue a task (round-robin over the workers; idle workers steal).
    Raises [Invalid_argument] after {!shutdown}. Tasks must not [await]
    futures of the same pool — workers executing tasks are the only threads
    that complete them. *)
val submit : t -> (ctx -> 'a) -> 'a future

(** Block until the task finishes. Re-raises the task's exception with its
    original backtrace if it failed, or {!Shutdown} if it was discarded. *)
val await : 'a future -> 'a

(** Block until the task finishes, returning the outcome as a value instead
    of re-raising — the supervision entry point: a coordinator inspects the
    error and decides to re-dispatch rather than unwind. *)
val await_result : 'a future -> ('a, exn * Printexc.raw_backtrace) result

(** Cancel a future: if it is still [Pending] the future completes with
    {!Shutdown} and [cancel] returns [true]; if a worker has already settled
    it (or another cancel won), returns [false] and the existing outcome
    stands. The transition is atomic with respect to worker completion — a
    task body that finishes after a successful cancel has its result
    discarded, and a task not yet claimed never runs its body. Cancelling
    does not remove the task id from its deque; the claiming worker skips
    the body when it finds the future settled. *)
val cancel : 'a future -> bool

(** Per-worker utilization snapshot: [(tasks_run, tasks_stolen,
    idle_seconds)] for each worker index. Steals count tasks claimed from a
    sibling's deque; idle time is the cumulative wait for work. When
    tracing is enabled ({!Obs.Trace}), every task additionally records a
    ["pool.task"] span on its worker's timeline and each worker stamps
    these totals as counters on exit. *)
val worker_stats : t -> (int * int * float) array

(** Close the pool and join every worker. With [discard = false] (the
    default) queued tasks are drained first; with [discard = true] tasks no
    worker has started are dropped and their futures complete with
    {!Shutdown} (so a blocked [await] never hangs). Idempotent. *)
val shutdown : ?discard:bool -> t -> unit

(** [with_pool ~jobs f] runs [f] over a fresh pool, draining it on normal
    return and discarding queued work when [f] raises. *)
val with_pool : ?seed:int64 -> jobs:int -> (t -> 'a) -> 'a
