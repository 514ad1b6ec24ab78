open Rtlir

type t = {
  cycles : int;
  clock : int;
  drive : int -> (int * Bits.t) list;
}

exception Invalid_workload of string

exception Budget_exceeded of { cycle : int; reason : string }

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_workload s)) fmt

let run ?(on_cycle_start = fun _ -> ()) ?(first_cycle = 0) w ~set_input ~step
    ~observe =
  if w.cycles < 0 then
    invalid "negative cycle count %d (a workload runs 0 or more cycles)"
      w.cycles;
  let continue = ref true in
  let cycle = ref first_cycle in
  while !continue && !cycle < w.cycles do
    on_cycle_start !cycle;
    List.iter (fun (id, v) -> set_input id v) (w.drive !cycle);
    set_input w.clock (Bits.one 1);
    step ();
    set_input w.clock (Bits.zero 1);
    step ();
    continue := observe !cycle;
    incr cycle
  done

let checked ~num_signals w =
  if w.clock < 0 || w.clock >= num_signals then
    invalid "clock signal id %d out of range (design has %d signals)" w.clock
      num_signals;
  let drive cycle =
    let entries = w.drive cycle in
    List.iter
      (fun (id, _) ->
        if id < 0 || id >= num_signals then
          invalid
            "drive entry at cycle %d targets unknown signal id %d (design \
             has %d signals)"
            cycle id num_signals;
        if id = w.clock then
          invalid
            "drive entry at cycle %d targets the clock (signal id %d); the \
             clock is driven by the protocol"
            cycle id)
      entries;
    entries
  in
  { w with drive }

let with_budget ?max_cycles ?deadline w =
  let drive cycle =
    (match max_cycles with
    | Some limit when cycle >= limit ->
        raise
          (Budget_exceeded
             {
               cycle;
               reason = Printf.sprintf "cycle budget of %d exhausted" limit;
             })
    | _ -> ());
    (match deadline with
    | Some t when Stats.now () > t ->
        raise (Budget_exceeded { cycle; reason = "wall-clock budget exhausted" })
    | _ -> ());
    w.drive cycle
  in
  { w with drive }

let random_drive ~seed ~inputs ?(directed = [||]) () =
  (* Cycle-indexed determinism: each cycle reseeds from (seed, cycle) so
     the drive function is a pure function of the cycle number, no matter
     in which order engines query it. *)
  let n_directed = Array.length directed in
  fun cycle ->
    if cycle < n_directed then directed.(cycle)
    else begin
      let rng = Rng.create (Int64.add seed (Int64.of_int (cycle * 2654435761))) in
      List.map (fun (id, width) -> (id, Rng.bits rng width)) inputs
    end
