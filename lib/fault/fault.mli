(** Fault models.

    Stuck-at faults follow the paper (Section V-A: "stuck-at faults for
    wires and regs ... observation points at all output ports"). Transient
    faults (single-event upsets: one register bit flips at one cycle) are an
    extension — the other fault class ISO 26262 asks functional-safety
    campaigns to cover. *)

open Rtlir

type stuck =
  | Stuck_at_0
  | Stuck_at_1
  | Flip_at of int
      (** SEU: the bit flips once, at the start of the given cycle *)

type t = { fid : int; signal : int; bit : int; stuck : stuck }

val is_transient : t -> bool

(** [generate ?include_inputs ?max_faults ~seed design] enumerates single-bit
    stuck-at-0/1 sites over wires, regs and outputs (and input ports when
    [include_inputs], the default — port nets are wires too). When the site
    count exceeds [max_faults] the list is down-sampled deterministically
    with [seed]; fault ids are always dense [0..n-1]. *)
val generate :
  ?include_inputs:bool -> ?max_faults:int -> seed:int64 -> Design.t -> t array

(** Apply the fault's forced bit to a value of its signal (identity for
    transient faults — they do not force writes). *)
val force : t -> Bits.t -> Bits.t

(** Payload twin of {!force} over masked int64 payloads. *)
val force_i64 : t -> int64 -> int64

(** [generate_transients ~seed ~count ~max_cycle design] draws random SEUs:
    uniformly chosen register bits flipping at uniformly chosen cycles. *)
val generate_transients :
  seed:int64 -> count:int -> max_cycle:int -> Design.t -> t array

val describe : Design.t -> t -> string

(** Outcome of a fault-simulation campaign, shared by every engine. *)
type result = {
  detected : bool array;  (** indexed by fault id *)
  detection_cycle : int array;  (** cycle of first detection; -1 if never *)
  coverage_pct : float;
  stats : Stats.t;
  wall_time : float;  (** seconds *)
}

val count_detected : result -> int

(** [same_verdict a b] — the verdict contract (engine equivalence): the
    detected sets are identical and every detected fault was detected at
    the same cycle in both. *)
val same_verdict : result -> result -> bool

val make_result :
  detected:bool array ->
  ?detection_cycle:int array ->
  stats:Stats.t ->
  wall_time:float ->
  unit ->
  result

(** Mean detection latency in cycles over detected faults; [None] when no
    fault was detected — the mean of an empty set has no value, and
    formatting one as a number is how literal [nan] ends up in JSON
    reports. *)
val mean_detection_latency_opt : result -> float option

(** [mean_detection_latency_opt] with [None] collapsed to [0.0], for
    human-readable output that wants a number. *)
val mean_detection_latency : result -> float
