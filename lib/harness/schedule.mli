(** The fault-schedule planner: one cost-model-driven batching layer shared
    by every execution path ({!Campaign}, {!Resilient}, the pool workers,
    and — through {!halve} — the retry/quarantine/shrink refinements).

    A {!t} ("plan") fixes, before any fault simulation runs, how the fault
    set is decomposed into ordered batches, which good-trace snapshot each
    batch warm-starts from, and a relative cost hint per batch (used to
    submit long batches to the pool first). Planning is deterministic: the
    same inputs always produce the same plan, which is what lets
    {!Resilient} journal the plan as a typed record and validate it on
    resume, and what makes reports byte-identical across [--jobs] values.

    Because batches never interact — each fault's verdict depends only on
    its own injected run against the shared good network — any plan is
    sound: stats-free verdict reports are byte-identical for {e any}
    permutation partition of the fault set. The policy only trades how
    much redundant good-network prefix the engine gets to skip. *)

(** How faults are ordered into batches. Campaigns do not choose: warm
    runs plan [Adaptive], cold runs [Fixed].

    - [Fixed] — batches cut from ascending fault ids. On a cold run this
      reproduces the historical contiguous-chunk decomposition
      byte-for-byte.
    - [Adaptive] — faults sorted by activation window (ties by id) so
      batches share dead prefixes.

    The policy decides only the order. Every warm plan places its own
    snapshots the same way: each batch's exact earliest-activation
    boundary is reconstructed post hoc ({!Sim.Goodtrace.with_snapshots})
    under a budget that depends only on the workload length —
    [ceil (cycles / max 8 (cycles / 16))], at least 1. Densely clustered
    activation boundaries are merged (closest pair first, keeping the
    earlier — hence still sound — cycle) until the budget holds. When no
    batch needs a snapshot, the plan keeps the capture's end snapshot
    alone.

    Without a warm capture the plan degrades to [Fixed]. *)
type policy = Fixed | Adaptive

val policy_name : policy -> string

(** Batch decomposition grain: [Size s] cuts batches of at most [s] faults
    ({!Resilient}'s [batch_size] — independent of worker count, so plans
    resume across [--jobs]); [Chunks k] cuts at most [k] near-equal chunks
    ({!Campaign}'s one-chunk-per-job split). *)
type granularity = Size of int | Chunks of int

type batch = {
  sb_index : int;  (** position in the plan; reports merge in this order *)
  sb_ids : int array;  (** original fault ids, in planned execution order *)
  sb_start : int;
      (** warm-start snapshot cycle ([0] = cold start from reset) *)
  sb_cost : float;
      (** relative cost hint: live faults × good-trace events remaining
          after [sb_start] (uniform per-fault on cold plans) *)
}

(** Everything the planner consumes about a warm capture. *)
type warm_input = {
  wi_trace : Sim.Goodtrace.t;
  wi_acts : int array;  (** per fault id: activation window start *)
  wi_pruned : bool array;  (** per fault id: statically undetectable *)
}

type t = {
  sp_policy : policy;  (** effective policy ([Fixed] when planned cold) *)
  sp_batches : batch array;
  sp_pruned : int array;  (** ascending pruned fault ids (empty when cold) *)
  sp_trace : Sim.Goodtrace.t option;
      (** the trace consumers must replay from — the re-snapshotted
          trace, not the one passed in via [warm_input] *)
  sp_acts : int array option;
      (** retained activation windows, so refinements of a batch can
          recompute their own warm starts via {!warm_for} *)
}

(** [plan ~policy ~granularity ~design ~n ()] decomposes fault ids
    [0..n-1] into a plan. With [?warm] absent the plan is cold: no
    pruning, identity order, every batch starts at cycle 0. With [?warm]
    present, statically-undetectable faults are pruned into [sp_pruned],
    live faults are ordered per [policy], and each batch gets the best
    warm start its policy allows. *)
val plan :
  policy:policy ->
  granularity:granularity ->
  ?warm:warm_input ->
  design:Rtlir.Elaborate.t ->
  n:int ->
  unit ->
  t

(** The warm start for any subset of a plan's fault ids (a whole planned
    batch, or a refinement of one): latest snapshot at or before the
    subset's earliest activation. [None] on cold plans. *)
val warm_for : t -> int array -> Sim.Goodtrace.warm option

(** Split a batch's id array into its two order-preserving halves — the
    planner's refinement step, shared by retry-by-halving ({!Resilient})
    and divergence shrinking ({!Shrink}). [None] when the batch cannot be
    split further (fewer than two faults). *)
val halve : int array -> (int array * int array) option

(** Refine a batch into single-fault batches (quarantine grain). *)
val singletons : int array -> int array array

(** The typed journal record ([{"type":"plan",...}]) {!Resilient} writes
    after the header and validates for exact equality on resume: policy,
    batch count, and per-batch warm-start cycles. Batch id membership is
    already validated per batch record, so ids are not repeated here. *)
val to_json : t -> Jsonl.t
