open Faultsim

type kind =
  | Raise_in_batch
  | Stall_past_deadline
  | Corrupt_diffstore
  | Torn_journal_write

let all_kinds =
  [ Raise_in_batch; Stall_past_deadline; Corrupt_diffstore; Torn_journal_write ]

let kind_name = function
  | Raise_in_batch -> "raise"
  | Stall_past_deadline -> "stall"
  | Corrupt_diffstore -> "corrupt"
  | Torn_journal_write -> "torn-journal"

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) all_kinds

let kind_tag = function
  | Raise_in_batch -> 0
  | Stall_past_deadline -> 1
  | Corrupt_diffstore -> 2
  | Torn_journal_write -> 3

type plan = { seed : int64; kinds : kind list; rate : float }

let default_plan = { seed = 0xC4A05L; kinds = all_kinds; rate = 0.5 }

exception Injected of string
exception Killed of string

(* Firing is a pure function of (seed, kind, batch): a fresh RNG keyed by
   the triple draws one coin. Uses the same golden-ratio / Murmur mixing
   constants as the resilient runner's oracle sampler. *)
let targets plan kind ~batch =
  List.mem kind plan.kinds
  && (plan.rate >= 1.0
     ||
     plan.rate > 0.0
     &&
     let key =
       ((batch + 1) * 0x9E3779B9) lxor ((kind_tag kind + 1) * 0x85EBCA6B)
     in
     let rng = Rng.create (Int64.logxor plan.seed (Int64.of_int key)) in
     Rng.int rng 1_000_000 < int_of_float (plan.rate *. 1e6))

(* Installed state. [fired] dedupes per (kind, batch) so a retried batch
   succeeds; [torn_done] dedupes the simulated crash per installation so an
   in-process resume survives. The mutex serialises workers that race on
   the same batch's first attempt (e.g. split halves). *)
type state = {
  plan : plan;
  mu : Mutex.t;
  fired : (int * int, unit) Hashtbl.t;
  counts : int array;
  mutable torn_done : bool;
}

let st : state option Atomic.t = Atomic.make None
let active () = Atomic.get st <> None

(* true iff this (kind, batch) had not fired yet; bumps the count once. *)
let fire s kind batch =
  let key = (kind_tag kind, batch) in
  Mutex.lock s.mu;
  let fresh = not (Hashtbl.mem s.fired key) in
  if fresh then begin
    Hashtbl.replace s.fired key ();
    s.counts.(kind_tag kind) <- s.counts.(kind_tag kind) + 1
  end;
  Mutex.unlock s.mu;
  fresh

let batch_start ~batch =
  match Atomic.get st with
  | None -> ()
  | Some s ->
      if targets s.plan Raise_in_batch ~batch && fire s Raise_in_batch batch
      then
        raise
          (Injected (Printf.sprintf "chaos: injected crash in batch %d" batch))

let stall ~batch =
  match Atomic.get st with
  | None -> false
  | Some s ->
      targets s.plan Stall_past_deadline ~batch
      && fire s Stall_past_deadline batch

let torn_write ~batch line =
  match Atomic.get st with
  | None -> None
  | Some s ->
      if
        (not s.torn_done)
        && targets s.plan Torn_journal_write ~batch
        && String.length line > 1
      then begin
        Mutex.lock s.mu;
        let fresh = not s.torn_done in
        if fresh then begin
          s.torn_done <- true;
          s.counts.(kind_tag Torn_journal_write) <-
            s.counts.(kind_tag Torn_journal_write) + 1
        end;
        Mutex.unlock s.mu;
        if fresh then Some (String.length line / 2) else None
      end
      else None

(* The engine-side hook: flip one fault's output-port view at a fixed
   cycle of every run, at any rate above 0. The cycle and target are pure
   functions of the seed (and the batch width), so a given batch corrupts
   identically on any worker and on every replay — which is exactly what
   lets the shrinker reproduce the divergence it is minimising. *)
let corrupt_for s ~cycle ~nfaults =
  if
    nfaults = 0
    || (not (s.plan.rate > 0.0))
    || not (List.mem Corrupt_diffstore s.plan.kinds)
  then None
  else
    let c0 = Int64.to_int (Int64.rem (Int64.abs s.plan.seed) 16L) in
    if cycle <> c0 then None
    else begin
      Mutex.lock s.mu;
      s.counts.(kind_tag Corrupt_diffstore) <-
        s.counts.(kind_tag Corrupt_diffstore) + 1;
      Mutex.unlock s.mu;
      let rng = Rng.create (Int64.logxor s.plan.seed 0x5EEDF00DL) in
      Some (Rng.int rng nfaults)
    end

let install plan =
  let s =
    {
      plan;
      mu = Mutex.create ();
      fired = Hashtbl.create 64;
      counts = Array.make 4 0;
      torn_done = false;
    }
  in
  Atomic.set st (Some s);
  Atomic.set Engine.Concurrent.chaos_corrupt_diff (Some (corrupt_for s))

let uninstall () =
  Atomic.set Engine.Concurrent.chaos_corrupt_diff None;
  Atomic.set st None

let counts () =
  match Atomic.get st with
  | None -> List.map (fun k -> (k, 0)) all_kinds
  | Some s -> List.map (fun k -> (k, s.counts.(kind_tag k))) all_kinds
