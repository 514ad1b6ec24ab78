(** Testbench protocol shared by every engine.

    A workload drives one clock input and, per cycle, a set of data inputs.
    Every engine runs the identical protocol so that detected-fault sets are
    comparable:

    cycle k:  apply [drive k] and raise the clock, step (registers capture),
              lower the clock, step, observe the output ports. *)

open Rtlir

type t = {
  cycles : int;
  clock : int;  (** signal id of the clock input *)
  drive : int -> (int * Bits.t) list;
      (** cycle number -> input assignments (the clock must not appear) *)
}

(** A structurally bad workload: negative cycle count, drive entries
    targeting unknown signal ids or the clock. Raised with a descriptive
    message instead of letting the engine crash on an array bound. *)
exception Invalid_workload of string

(** A watchdog budget installed by {!with_budget} tripped at [cycle]. *)
exception Budget_exceeded of { cycle : int; reason : string }

(** [run w ~set_input ~step ~observe] executes the protocol against an
    engine. [observe cycle] is called once per cycle, after the falling
    edge, when outputs are stable; it returns [true] to continue and [false]
    to stop early (e.g. all faults detected). [?first_cycle] (default 0)
    starts the protocol at that cycle instead: an engine resuming from a
    good-state snapshot taken there passes the snapshot's cycle. Raises
    {!Invalid_workload} on a negative cycle count. *)
val run :
  ?on_cycle_start:(int -> unit) ->
  ?first_cycle:int ->
  t ->
  set_input:(int -> Bits.t -> unit) ->
  step:(unit -> unit) ->
  observe:(int -> bool) ->
  unit

(** [checked ~num_signals w] wraps [w.drive] so that every returned entry is
    validated against the design: ids outside [0, num_signals) and entries
    that target the clock raise {!Invalid_workload} with the offending cycle
    and id, instead of a deep array-bounds crash inside the engine. Engines
    install this wrapper themselves; callers need not. *)
val checked : num_signals:int -> t -> t

(** [with_budget ?max_cycles ?deadline w] installs a per-run watchdog: the
    wrapped drive raises {!Budget_exceeded} when the cycle index reaches
    [max_cycles] or when [Stats.now () > deadline] (the monotonic-safe
    wall clock, so a backwards clock step never arms or disarms the
    watchdog spuriously). The exception
    propagates out of [run] (and out of any engine), leaving the engine's
    partial state behind — callers are expected to retry with a smaller
    fault batch or report a timeout. *)
val with_budget : ?max_cycles:int -> ?deadline:float -> t -> t

(** Convenience: build a [drive] function from a per-cycle random vector
    generator over the given (signal, width) inputs, with a fixed prefix of
    directed vectors. *)
val random_drive :
  seed:int64 ->
  inputs:(int * int) list ->
  ?directed:(int * Bits.t) list array ->
  unit ->
  int -> (int * Bits.t) list
