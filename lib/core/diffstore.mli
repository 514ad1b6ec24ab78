(** Specialized int-keyed stores for per-fault divergence bookkeeping.

    The concurrent engine keeps, for every signal (and memory), the set of
    faults whose value currently differs from the good network's — small
    maps keyed by fault id (or fault-relative word index) holding unboxed
    int64 payloads. The generic [Hashtbl] previously used here costs a
    bucket-list cell and a boxed [Bits.t] per entry plus polymorphic
    hashing on every probe; these open-addressing tables store keys in a
    plain int array and payloads in an int64 Bigarray, probe with an
    inlined integer mix, and are sized from the configured fault-batch
    width instead of magic constants.

    Iteration visits entries in slot order — deterministic for a given
    insertion history. Engine reports do not depend on this order (every
    entry is keyed by an independent fault), but determinism keeps runs
    reproducible.

    Keys must be non-negative (fault ids and word keys are). *)

type t

(** [create ~expect ()] sizes the table for [expect] expected entries (the
    fault-batch width); the table grows as needed beyond that. Growth
    follows the live population: once tombstones left by [remove] fill the
    table it is rehashed at the same capacity, and it doubles only when
    live entries fill a quarter of it. *)
val create : expect:int -> unit -> t

val length : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool

(** Current slot-array capacity (exposed for the shrink-on-clear and churn
    tests). *)
val capacity : t -> int

(** [find t key ~default] — the stored payload, or [default] when absent. *)
val find : t -> int -> default:int64 -> int64

(** [set t key v] inserts or replaces. *)
val set : t -> int -> int64 -> unit

(** [remove t key] — no-op when absent. *)
val remove : t -> int -> unit

(** Empty the table. When the slot array has grown past [shrink_factor]
    (16) times the creation-time expectation, it is reallocated back to
    that base capacity so a one-off giant batch does not pin its
    high-water footprint. Clearing an already-clear table is O(1). *)
val clear : t -> unit

(** Slot-order iteration, O(capacity); an empty table returns at once. The
    callback must not mutate the table. *)
val iter : t -> (int -> int64 -> unit) -> unit

val iter_keys : t -> (int -> unit) -> unit

(** Open-addressing int -> int refcount table ([bump] removes entries that
    drop to zero) — the [mem_fault_words] "does fault [f] diverge anywhere
    in this memory" index, with the same shrink-on-clear policy as the
    payload table. *)
module Counts : sig
  type t

  val create : expect:int -> unit -> t
  val length : t -> int
  val capacity : t -> int
  val mem : t -> int -> bool
  val bump : t -> int -> int -> unit
  val iter_keys : t -> (int -> unit) -> unit
  val clear : t -> unit
end
