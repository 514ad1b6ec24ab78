(** Good-network trace capture and warm-start replay.

    The concurrent engine re-simulates the identical good network from
    cycle 0 for every fault batch. A [Goodtrace.t] removes that
    redundancy: one zero-fault capture run records, per cycle, every good
    write the engine performed (inputs, continuous assigns, comb-process
    blocking writes, ff-process nonblocking signal/memory writes), the
    branch decisions each behavioral execution took (so the implicit
    redundancy walk still sees the good control path), the output vector,
    and one full {!State.t} snapshot: the good state at the end of the
    workload. Replay then applies the recorded writes through the
    engine's own [write_good]/[write_good_mem] seams instead of
    re-executing good procs. Mid-trace snapshots are placed afterwards,
    by the schedule planner, through {!with_snapshots}: a batch whose
    earliest fault activation is [a] then starts from the latest snapshot
    [<= a], skipping the dead prefix entirely.

    Everything in a finished trace is immutable (plain [int]/[int64]
    arrays and Bigarrays), so one trace can be shared read-only across
    worker domains. Snapshots returned by {!snapshot_at} must only be
    used as a [State.blit] source, never mutated.

    The event stream is strictly ordered: a cursor consumes events in
    exactly the order the capture run produced them, and any structural
    disagreement (wrong event kind, wrong node, wrong cycle count) raises
    {!Trace_mismatch} — replay never silently drifts. *)

type i64a = State.i64a

type t = {
  cycles : int;  (** workload length the trace was captured for *)
  clock : int;  (** the workload's clock signal id *)
  nout : int;  (** number of output ports recorded per cycle *)
  code : int array;  (** event stream opcodes and operands *)
  vals : i64a;  (** event payloads, consumed in parallel with [code] *)
  cycle_code : int array;
      (** length [cycles + 1]: [cycle_code.(c)] is the [code] offset where
          cycle [c]'s events begin; [\[0, cycle_code.(0))] holds the
          init-settle events and [cycle_code.(cycles)] is the stream end. *)
  cycle_vals : int array;  (** same boundaries, into [vals] *)
  outputs : i64a;  (** per-cycle output vectors, [cycles × nout] row-major *)
  snapshots : (int * State.t) array;
      (** ascending [(cycle, state)] pairs: the good state at the start of
          [cycle]. A capture holds only [(cycles, end state)] (none when
          [cycles = 0]), so a never-activating fault can skip the whole
          run; {!with_snapshots} adds the mid-trace ones. *)
  capture_bytes : int;  (** approximate heap footprint of the capture *)
}

exception Trace_mismatch of string

(** {1 Capture} *)

type builder

val builder : cycles:int -> clock:int -> nout:int -> builder

val rec_input : builder -> int -> int64 -> unit
val rec_step : builder -> unit
val rec_assign : builder -> pos:int -> target:int -> int64 -> unit

(** [writes] is the process's blocking-write sequence in program order;
    [choices] the taken-branch record at the process's decision nodes, in
    canonical (ascending CFG node id) order. *)
val rec_comb_proc :
  builder ->
  pos:int ->
  pid:int ->
  writes:(int * int64) list ->
  choices:int array ->
  unit

val rec_ff_proc :
  builder ->
  pid:int ->
  writes:(int * int64) list ->
  mem_writes:(int * int * int64) list ->
  choices:int array ->
  unit

(** Marks the end of the initialisation settle; everything recorded before
    this belongs to the pre-cycle-0 prefix. *)
val rec_init_done : builder -> unit

(** Called once per simulated cycle, after the engine observed it: records
    the output vector and, after the last cycle, a deep copy of the good
    state as the end snapshot. *)
val rec_cycle_done : builder -> outputs:int64 array -> state:State.t -> unit

(** Pack the builder into an immutable trace. Raises {!Trace_mismatch} if
    the capture did not run the declared number of cycles. *)
val finish : builder -> t

(** {1 Replay} *)

type cursor

(** [cursor t ~start] positions a fresh cursor at the first event of cycle
    [start] ([start = 0] includes the init-settle prefix). *)
val cursor : t -> start:int -> cursor

(** [Some (id, v)] if the next event is an input write, [None] otherwise
    (the caller then takes the step marker). *)
val take_input : cursor -> (int * int64) option

val take_step : cursor -> unit

(** The recorded result of the continuous assign at comb position [pos]. *)
val take_assign : cursor -> pos:int -> int64

(** Replays the comb process at position [pos]: restores the recorded
    branch choices via [set_choice k choice] (k-th decision node in
    canonical order) and applies the recorded blocking writes in order
    through [write]. *)
val take_comb_proc :
  cursor ->
  pos:int ->
  pid:int ->
  set_choice:(int -> int -> unit) ->
  write:(int -> int64 -> unit) ->
  unit

(** Replays one ff-process execution: restores branch choices and returns
    the recorded [(signal, value)] and [(mem, addr, value)] nonblocking
    write lists in program order. *)
val take_ff_proc :
  cursor ->
  pid:int ->
  set_choice:(int -> int -> unit) ->
  (int * int64) list * (int * int * int64) list

(** {1 Snapshots} *)

(** The good state at the start of [cycle]. Raises {!Trace_mismatch} if no
    snapshot was taken there. The result is shared with the trace: use it
    only as a [State.blit ~src]. *)
val snapshot_at : t -> int -> State.t

(** Largest snapshot cycle [<= activation], or [0] (cold start) if none. *)
val start_for : t -> activation:int -> int

(** A warm-start request: replay [trace] beginning at snapshot [start]. *)
type warm = { trace : t; start : int }

(** [with_snapshots t ~base ~at] is [t] with its snapshot set replaced by
    exact post-hoc snapshots at the requested cycle boundaries (clamped to
    [\[1, cycles\]], deduplicated; the final boundary [cycles] is always
    kept so never-activating faults still skip the whole run). Because the
    event stream is a complete state-update log, each snapshot is
    reconstructed by one pass over the stream that applies every recorded
    signal {e and memory} write to [base] — which must be a fresh
    [State.create] of the captured design and is consumed (mutated) by the
    call; the clock's boundary value comes from [t]'s end snapshot.
    [capture_bytes] is recomputed for the new snapshot set. This is the
    only place mid-trace snapshots come from: the schedule planner uses it
    to put them on batch activation boundaries without re-running the
    capture. *)
val with_snapshots : t -> base:State.t -> at:int list -> t

(** {1 Activation windows} *)

type site_kind = Stuck0 | Stuck1 | Transient of int
type site = { s_signal : int; s_bit : int; s_kind : site_kind }

(** [scan_writes t f] calls [f cycle id v] for every recorded good signal
    write, in stream order. Events in the init-settle prefix are
    attributed to cycle 0; an event at [code] offset [i] belongs to cycle
    [c] iff [cycle_code.(c) <= i < cycle_code.(c + 1)], so writes landing
    on the last recorded cycle report [cycles - 1]. Exposed for tests. *)
val scan_writes : t -> (int -> int -> int64 -> unit) -> unit

(** [first_divergence t ~comb_driven sites] is the conservative activation
    rule (pre-cone): the first cycle each fault site's forced bit differs
    from a recorded good value at all, regardless of whether the diff can
    propagate anywhere:

    - [Transient c] activates at [c] (or never, i.e. [t.cycles], when [c]
      is past the end);
    - a stuck-at fault on a non-comb-driven signal whose stuck value
      differs from the pristine zero state activates at 0 (its forced bit
      is readable during the init settle);
    - otherwise a stuck-at activates at the first cycle some recorded good
      write to its signal carries a bit value different from the stuck
      value (init-settle writes count as cycle 0), or never.

    [comb_driven] is indexed by signal id. Kept as the baseline the bench
    compares the cone-refined rule against, and as the sound fallback for
    state-holding sites inside {!activations}. *)
val first_divergence : t -> comb_driven:bool array -> site array -> int array

(** [activations t ~cone sites] is the cone-refined activation window: the
    first cycle each fault site can *persistently or observably* diverge
    from the good network.

    Sites on state-holding signals (nonblocking targets), on signals with
    a combinational path into an edge sensitivity list, and on wires a
    comb process both writes and reads ([Cone.self_read]) get the
    {!first_divergence} rule — a diff there survives on its own, can
    create/suppress clock edges, or can steer sibling writes of the same
    body, so first divergence is the only sound window. Every other stuck site is combinationally recomputed (or an
    undriven input): its diff is memoryless, and the activation is the
    first cycle the forced bit differs from the tracked good value at a
    moment it can actually be captured — an edge-triggered process firing
    whose read cone contains the signal ({!Flow.Cone.reaches_ff}), or a
    cycle boundary when the signal combinationally reaches an output
    ([out_comb]). Before that cycle the fault network's registers,
    memories and outputs are provably bit-identical to the good network,
    so a warm start from any snapshot [<= activation] reproduces the cold
    verdict exactly.

    Activations are pointwise [>=] {!first_divergence} on stuck sites, so
    batch minima — and the dead prefix skipped — only grow. *)
val activations : t -> cone:Flow.Cone.t -> site array -> int array

(** The recorded output vector of one cycle (mostly for tests). *)
val output_row : t -> int -> int64 array
