(** Growable int vector.

    The concurrent engine's compact, allocation-light int collections
    (per-node fault sets, fault-id lists). Not thread-safe — every instance
    must be confined to one domain (or externally locked). *)

type t

(** [create ?capacity ()] — empty vector; [capacity] is the initial backing
    size (default 64, clamped to at least 1). *)
val create : ?capacity:int -> unit -> t

val length : t -> int
val is_empty : t -> bool

(** Drop every element (keeps the backing storage). *)
val clear : t -> unit

(** Append, doubling the backing array when full. *)
val push : t -> int -> unit

(** [get v i] — [i] must be within [0, length v). *)
val get : t -> int -> int

(** Iterate in insertion order. *)
val iter : (int -> unit) -> t -> unit

val to_array : t -> int array
