(** Deterministic chaos injection for supervised campaigns.

    A {!plan} is a pure function of its seed: whether a given injection
    kind fires in a given batch is decided by hashing [(seed, kind, batch)]
    — never by wall clock or scheduling — so a chaos campaign's failure
    schedule is reproducible, and the supervised runner's recovery path can
    be asserted to converge to the clean-run report byte-for-byte.

    Injection happens through four explicit seams, each behind one
    process-global [Atomic.get] when disabled (pinned by the zero-alloc
    test alongside the {!Obs} hooks):

    - [Resilient]'s batch task — calls {!batch_start} first thing, before
      the engine runs, whatever [jobs] is and wherever the task runs
      ([Raise_in_batch]);
    - [Resilient]'s drive wrapper — consults {!stall} to sleep past the
      batch deadline ([Stall_past_deadline]);
    - {!Engine.Concurrent.chaos_corrupt_diff} — flips one diff-store entry
      at an observation point ([Corrupt_diffstore]);
    - [Resilient]'s journal writer — consults {!torn_write} to truncate one
      record mid-write and raises {!Killed} ([Torn_journal_write]),
      simulating a crash for the resume path.

    Every injection but [Corrupt_diffstore] fires {e at most once} per
    (kind, batch) per {!install}, so a retried batch succeeds and the
    campaign converges. [Corrupt_diffstore] draws no coin per batch: at any
    rate above 0 it fires in every engine run, at cycle [seed mod 16], so
    the divergence it causes reproduces on every replay (the shrinker
    relies on this) and the online oracle check quarantines it. At rate 0
    no kind fires. *)

type kind =
  | Raise_in_batch  (** task body raises before the engine runs *)
  | Stall_past_deadline  (** drive sleeps past [max_batch_seconds] *)
  | Corrupt_diffstore  (** one diff-store entry flipped at observe *)
  | Torn_journal_write  (** journal record cut mid-write, then {!Killed} *)

val all_kinds : kind list
val kind_name : kind -> string

(** Inverse of {!kind_name}; [None] for unknown names. *)
val kind_of_name : string -> kind option

type plan = {
  seed : int64;  (** roots every injection decision *)
  kinds : kind list;  (** enabled injection kinds *)
  rate : float;
      (** per-(kind, batch) firing probability in [0, 1]; the CLI rejects
          any other value, NaN included *)
}

(** All four kinds at rate 0.5, seed [0xC4A05]. *)
val default_plan : plan

(** Raised into a batch task by [Raise_in_batch]. *)
exception Injected of string

(** Raised by the journal writer after a torn write: the simulated hard
    crash. Campaign drivers treat it as fatal and resume from the journal. *)
exception Killed of string

(** [targets plan kind ~batch] — the pure firing decision, independent of
    any installed state (used by tests to pin determinism). *)
val targets : plan -> kind -> batch:int -> bool

(** Install [plan] into every seam. Overwrites any previous installation
    (the fired-once tables reset). Not reference counted. *)
val install : plan -> unit

(** Clear every seam; idempotent. *)
val uninstall : unit -> unit

(** A plan is installed. One [Atomic.get]. *)
val active : unit -> bool

(** [batch_start ~batch] raises {!Injected} if [Raise_in_batch] fires for
    this batch (first call only). No-op when inactive. The resilient
    runner's batch task calls it before anything else, at every [jobs]. *)
val batch_start : batch:int -> unit

(** [stall ~batch] — [true] exactly once per batch when
    [Stall_past_deadline] fires; the caller sleeps past its deadline. *)
val stall : batch:int -> bool

(** [torn_write ~batch line] — [Some n] at most once per installation when
    [Torn_journal_write] fires for this batch: the caller must write only
    the first [n] bytes of [line] (no newline) and raise {!Killed}.
    Firing once per install, not per batch, lets an in-process resume
    complete instead of dying on every attempt. *)
val torn_write : batch:int -> string -> int option

(** Injection counts per kind since {!install}, in {!all_kinds} order. *)
val counts : unit -> (kind * int) list
