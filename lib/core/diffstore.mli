(** Open-addressing int-keyed stores for the concurrent engine's tables
    that are not keyed by fault id alone (fault-keyed tables are
    {!Faultmap}s):

    - {!t}, the per-memory word diffs, keyed by [fault * size + address]
      and holding unboxed int64 payloads;
    - {!Counts}, refcounts keyed by fault id or by a (process, fault) pair
      key: the per-memory "which faults diverge anywhere in this memory"
      index and the edge round's suppressed and executed pair sets.

    Keys go in a plain int array and payloads in an int64 Bigarray; probes
    use an inlined integer mix, and tables are sized from the configured
    fault-batch width.

    Keys must be non-negative (fault ids and word keys are). *)

type t

(** [create ~expect ()] sizes the table for [expect] expected entries (the
    fault-batch width); the table grows as needed beyond that. Growth
    follows the live population: once tombstones left by [remove] fill the
    table it is rehashed at the same capacity, and it doubles only when
    live entries fill a quarter of it. *)
val create : expect:int -> unit -> t

val mem : t -> int -> bool

(** [find t key ~default] — the stored payload, or [default] when absent. *)
val find : t -> int -> default:int64 -> int64

(** [set t key v] inserts or replaces. *)
val set : t -> int -> int64 -> unit

(** [remove t key] — no-op when absent. *)
val remove : t -> int -> unit

(** Open-addressing int -> int refcount table ([bump] removes entries that
    drop to zero), with the payload table's growth policy. *)
module Counts : sig
  type t

  val create : expect:int -> unit -> t
  val length : t -> int

  (** Current slot-array capacity (exposed for the churn test). *)
  val capacity : t -> int

  val mem : t -> int -> bool
  val bump : t -> int -> int -> unit
  val iter_keys : t -> (int -> unit) -> unit

  (** Empty the table. When the slot array has grown past 16 times the
      creation-time expectation, it is reallocated back to that base
      capacity so a one-off giant batch does not pin its high-water
      footprint. Clearing an already-clear table is O(1). *)
  val clear : t -> unit
end
