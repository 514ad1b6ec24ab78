(** Single-network event-driven / cycle-based simulator.

    Simulates one network (fault-free, or with one stuck-at bit forced) over
    one-[Bits.t]-per-value state, the cost model of the IFsim/VFsim
    baselines. It runs in one of two evaluation styles:

    - {e closure-compiled} ([Closures]): everything compiles once into
      nested closures — the fast path used by the golden reference and (with
      cycle-based scheduling) the VFsim baseline;
    - {e bytecode} ([Bytecode]): vvp-style stack-machine execution — the
      Iverilog-fidelity path used by the IFsim baseline.

    and one of three scheduling styles:

    - {e levelized event-driven} ([Levelized]): only combinational nodes
      whose inputs changed are re-evaluated, once each, in topological
      order;
    - {e FIFO event wheel} ([Fifo]): nodes are evaluated in event arrival
      order without levelization — reconvergent fanout causes glitch
      re-evaluations, as in Iverilog's dynamic scheduler;
    - {e cycle-based} ([Cycle_based]): every combinational node is
      re-evaluated every settle, in topological order (Verilator-style
      full evaluation).

    A step models one Verilog time slot: settle combinational logic, detect
    clock edges (after the settle — event nodes are postponed past blocking
    events), run fired edge-triggered processes, commit nonblocking updates,
    settle again; repeated while derived clocks keep firing. *)

open Rtlir

type scheduler = Levelized | Fifo | Cycle_based

type eval_style = Closures | Bytecode

type config = { eval : eval_style; scheduler : scheduler }

(** [Closures], [Levelized]. *)
val default_config : config

type t

(** [create ?config ?force graph] builds a simulator instance. [force] is a
    stuck-at site [(signal, bit, value)]: every write to that signal has the
    bit forced, including initialisation. *)
val create : ?config:config -> ?force:int * int * bool -> Elaborate.t -> t

val graph : t -> Elaborate.t

(** Drive an input port. Takes effect at the next [step]. *)
val set_input : t -> int -> Bits.t -> unit

(** Invert one bit of a signal in place (single-event-upset injection). *)
val flip_bit : t -> int -> int -> unit

(** Advance one time slot. *)
val step : t -> unit

val peek : t -> int -> Bits.t
val peek_mem : t -> int -> int -> Bits.t

(** Current values of all output ports, in [graph.outputs] order. *)
val outputs : t -> Bits.t array

(** Number of behavioral-node body executions performed so far. *)
val proc_executions : t -> int

exception Unstable of string
