(** Fault-indexed int64 maps: the concurrent engine's per-signal and
    per-clock diff tables.

    Every key is a fault id of the current batch, so keys are dense in
    [\[0, nkeys)]. A table pairs a position index by key with packed key and
    value arrays:

    - [find], [mem], [set] and [remove] are O(1): one load from the
      position index, no hashing or probing;
    - [iter] and [iter_keys] visit exactly the live entries, in slot order.
      Slot order is insertion order, perturbed by [remove], which moves the
      last entry into the freed slot. It is deterministic for a given
      operation history. Engine reports do not depend on it: every entry
      belongs to an independent fault.

    The position index (4 bytes per key) is allocated by the first [set],
    so a table that never holds an entry costs a few words. The packed
    arrays grow with the live population, up to [nkeys] entries. *)

type i32a = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type i64a = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Read-only outside this module, so that a hot loop can look a key up
    with plain loads: no call, no boxed result (see {!Kernel}). *)
type t = private {
  nkeys : int;
  mutable pos : i32a;
      (** by key: its slot in [keys]/[vals], or -1. Unallocated (length 0)
          until the first [set]; [count > 0] implies it is allocated. *)
  mutable keys : int array;  (** slots [\[0, count)] hold the live keys *)
  mutable vals : i64a;  (** by slot *)
  mutable count : int;
}

(** [create ~nkeys] — an empty table for keys in [\[0, nkeys)]. *)
val create : nkeys:int -> t

val is_empty : t -> bool

(** [mem t key] — [key] must be in [\[0, nkeys)]; it is not checked. *)
val mem : t -> int -> bool

(** [find t key ~default] — the stored value, or [default] when absent.
    [key] must be in [\[0, nkeys)]; it is not checked. *)
val find : t -> int -> default:int64 -> int64

(** [set t key v] inserts or replaces. Raises [Invalid_argument] when [key]
    is outside [\[0, nkeys)]. *)
val set : t -> int -> int64 -> unit

(** [remove t key] — no-op when absent. Raises [Invalid_argument] when
    [key] is outside [\[0, nkeys)]. *)
val remove : t -> int -> unit

(** Empty the table, in O(length). *)
val clear : t -> unit

(** Slot-order iteration over the live entries. The callback must not
    mutate the table. *)
val iter : t -> (int -> int64 -> unit) -> unit

val iter_keys : t -> (int -> unit) -> unit
