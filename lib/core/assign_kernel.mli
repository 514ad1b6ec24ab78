(** Continuous assigns as flat int64 register programs: the concurrent
    engine's RTL-node evaluator.

    An assign's expression compiles once into an [int array] of fixed-size
    instructions over a per-program int64 register Bigarray, with every
    constant preloaded into its own register. A [Mux] becomes a
    conditional jump, so the arm the selector does not take never runs.
    One interpreter loop runs a program either for the good network or for
    one fault:

    - good: signals and memory words are read from the {!Sim.State.t}
      Bigarrays, and each executed read is recorded (its signal id, or
      [lnot m] for memory [m]) into a caller-supplied path buffer: the
      reads of the taken path, the only ones a fault must see to change
      the result;
    - fault [f]: a signal read looks up [f]'s slot in the signal's
      {!Faultmap.t} position index and falls back to the good value; a
      memory read takes the boxed {!Diffstore} lookup only when [f] has a
      diverging word somewhere in that memory.

    Operator semantics equal {!Rtlir.Bitops} (masked payloads, widths
    resolved at compile time). They are restated here as local functions
    because a dev build compiles every module [-opaque]: a call into
    [Bitops], [State] or [Faultmap] would not be inlined and would box its
    int64 result. The loop makes no closure call and allocates nothing,
    except on the rare fault-mode read of a diverging memory. *)

open Rtlir

type i64a = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  code : int array;  (** instructions, five ints each *)
  regs : i64a;  (** registers; constants preloaded *)
  out : int;  (** the register that holds the result after a run *)
  nreads : int;
      (** signal and memory read instructions: an upper bound on the
          entries one good run records, since every jump is forward *)
}

val compile :
  sig_width:(int -> int) ->
  mem_width:(int -> int) ->
  mem_size:(int -> int) ->
  Expr.t ->
  t

(** The faulty network one fault-mode run reads: the good state plus the
    per-signal diff tables and the per-memory word diffs and fault index
    of the engine's diff store. Memory word keys are
    [fault * size + address]. *)
type view = {
  st : Sim.State.t;
  diffs : Faultmap.t array;  (** by signal *)
  mem_diffs : Diffstore.t array;  (** by memory *)
  mem_fault_words : Diffstore.Counts.t array;  (** by memory *)
}

(** [eval_good t v ~path ~off] runs [t] on the good state of [v], leaving
    the result in [t.regs] at [t.out]. The reads it executes are written to
    [path] from [off] on, in execution order and with repeats; the return
    value is their count, at most [t.nreads]. *)
val eval_good : t -> view -> path:int array -> off:int -> int

(** [eval_fault t v f ~target] runs [t] on fault [f]'s values, leaving the
    result in [t.regs] at [t.out]. It returns whether the result differs
    from [f]'s current value of signal [target]: when it does not, storing
    it would change nothing. *)
val eval_fault : t -> view -> int -> target:int -> bool
