(** The concurrent engine's one expression compiler: every continuous
    assign, behavioral statement, decision selector and memory-read site
    the Algorithm-1 walk checks, as a flat int64 register program.

    An expression compiles once into an [int array] of fixed-size
    instructions over a per-program int64 register Bigarray, with every
    constant preloaded into its own register. A [Mux] becomes a
    conditional jump, so the arm the selector does not take never runs.
    One interpreter loop runs a program either for the good network or for
    one fault:

    - good: signals and memory words are read from the {!Sim.State.t}
      Bigarrays. An assign's good run also records each executed read (its
      signal id, or [lnot m] for memory [m]) into a caller-supplied path
      buffer: the reads of the taken path, the only ones a fault must see
      to change the result;
    - fault [f]: a signal read looks up [f]'s slot in the signal's
      {!Faultmap.t} position index and falls back to the good value; a
      memory read takes the boxed {!Diffstore} lookup only when [f] has a
      diverging word somewhere in that memory.

    A behavioral body is its CFG over such programs ({!body}). Its
    executor runs the good copy or a fault's copy and hands each store to
    a {!sink}; its walk is the paper's Algorithm 1 ({!redundant}).

    Operator semantics equal {!Rtlir.Bitops} (masked payloads, widths
    resolved at compile time). They are restated here as local functions
    because a dev build compiles every module [-opaque]: a call into
    [Bitops], [State] or [Faultmap] would not be inlined and would box its
    int64 result. For the same reason no int64 crosses a call out of this
    module: a store leaves its value in the program's output register. The
    loop, the executor and the walk make no closure call except into the
    sink and allocate nothing, except on the rare fault-mode read of a
    diverging memory. *)

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

(** {1 Behavioral bodies} *)

(** Where a body's executor hands its stores. The value stored is in the
    program's output register ([p.regs] at [p.out]) when the sink is
    called; [f] is the fault whose copy runs, or -1 for the good one.

    - [blocking f s p]: [s := p]'s result, seen by every later read of the
      same execution (the good state for the good copy, [f]'s diff table
      for a fault's);
    - [nonblocking f s p]: [s <= p]'s result, committed later by the
      caller;
    - [mem_write f m a p]: memory [m]'s word [a] (already wrapped to the
      memory's size) [<= p]'s result. *)
type sink = {
  blocking : int -> int -> t -> unit;
  nonblocking : int -> int -> t -> unit;
  mem_write : int -> int -> int -> t -> unit;
}

(** A compiled behavioral body: its CFG, with each statement's right-hand
    side, each memory write's address and data, each selector and each
    memory-read site of the walk compiled once. Its registers and the
    walk's written set are scratch space, so a body must not run in two
    domains at once. *)
type body

val body :
  sig_width:(int -> int) ->
  mem_width:(int -> int) ->
  mem_size:(int -> int) ->
  Stmt.t ->
  body

(** The CFG's node count: the length of a choice record. *)
val node_count : body -> int

(** The decision node ids, ascending: the canonical order in which a good
    trace stores a body's choices. *)
val decisions : body -> int array

(** [exec_good b v ~record sink] runs the good copy of [b] on [v]'s good
    state, storing the chosen target index of every decision it traverses
    at the decision's node id in [record] (the good path Algorithm 1 walks
    against), unless [record] is empty. *)
val exec_good : body -> view -> record:int array -> sink -> unit

(** [exec_fault b v f sink] runs fault [f]'s copy of [b] on [f]'s values. *)
val exec_fault : body -> view -> int -> sink -> unit

(** [redundant b v f ~choices ~visited] is the paper's Algorithm 1
    (Section IV-A): [true] only if fault [f]'s execution of [b] provably
    follows the good path recorded in [choices] (by {!exec_good}) and
    reads only values [f] shares with the good network, hence writes
    exactly the good values, so it can be skipped. It reads [v] before
    [f]'s execution; signal [s] is visible to [f] when [f] has a diff on
    it. [visited] is incremented once per node the walk visits. Along the
    walked path:
    - a decision re-runs its selector for [f] and must choose the recorded
      target. A selector that reads a signal written earlier on the path
      by a blocking assignment cannot be re-evaluated against
      pre-execution state; it falls back to: no visible read that is not
      such a local write, and every memory site of the selector clean;
    - a segment needs the same: no visible non-local read and every memory
      site clean. Its blocking targets then join the locally-written set;
    - a memory site is clean when its address reads no local write and its
      [Mem_read] program gives the same word for [f] as for the good
      network: memory dependencies are per word.

    The walk allocates nothing. *)
val redundant :
  body -> view -> int -> choices:int array -> visited:int ref -> bool
