open Rtlir

type stuck = Stuck_at_0 | Stuck_at_1 | Flip_at of int

type t = { fid : int; signal : int; bit : int; stuck : stuck }

let is_transient f = match f.stuck with Flip_at _ -> true | _ -> false

let generate ?(include_inputs = true) ?(max_faults = max_int) ~seed design =
  let sites = ref [] in
  Array.iter
    (fun (s : Design.signal) ->
      let eligible =
        match s.kind with
        | Design.Wire | Design.Reg | Design.Output -> true
        | Design.Input -> include_inputs
      in
      if eligible then
        for bit = 0 to s.width - 1 do
          sites := (s.id, bit, Stuck_at_1) :: (s.id, bit, Stuck_at_0) :: !sites
        done)
    design.Design.signals;
  let all = Array.of_list (List.rev !sites) in
  let chosen =
    if Array.length all <= max_faults then all
    else begin
      let rng = Rng.create seed in
      Rng.shuffle rng all;
      let sub = Array.sub all 0 max_faults in
      Array.sort compare sub;
      sub
    end
  in
  Array.mapi (fun fid (signal, bit, stuck) -> { fid; signal; bit; stuck }) chosen

let force f v =
  match f.stuck with
  | Stuck_at_0 -> Bits.force_bit v f.bit false
  | Stuck_at_1 -> Bits.force_bit v f.bit true
  | Flip_at _ -> v

let force_i64 f v =
  match f.stuck with
  | Stuck_at_0 -> Bitops.force_bit v f.bit false
  | Stuck_at_1 -> Bitops.force_bit v f.bit true
  | Flip_at _ -> v

let generate_transients ~seed ~count ~max_cycle design =
  let regs =
    Array.of_list
      (List.filter
         (fun (s : Design.signal) -> s.kind = Design.Reg)
         (Array.to_list design.Design.signals))
  in
  if Array.length regs = 0 then [||]
  else begin
    let rng = Rng.create seed in
    Array.init count (fun fid ->
        let s = regs.(Rng.int rng (Array.length regs)) in
        {
          fid;
          signal = s.Design.id;
          bit = Rng.int rng s.Design.width;
          stuck = Flip_at (Rng.int rng max_cycle);
        })
  end

let describe design f =
  match f.stuck with
  | Stuck_at_0 | Stuck_at_1 ->
      Printf.sprintf "%s[%d] stuck-at-%d"
        (Design.signal_name design f.signal)
        f.bit
        (match f.stuck with Stuck_at_0 -> 0 | _ -> 1)
  | Flip_at c ->
      Printf.sprintf "%s[%d] flip@%d"
        (Design.signal_name design f.signal)
        f.bit c

type result = {
  detected : bool array;
  detection_cycle : int array;
  coverage_pct : float;
  stats : Stats.t;
  wall_time : float;
}

let count_detected r =
  Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 r.detected

let same_verdict a b =
  a.detected = b.detected
  && Array.to_seqi a.detected
     |> Seq.for_all (fun (i, d) ->
            (not d) || a.detection_cycle.(i) = b.detection_cycle.(i))

let make_result ~detected ?detection_cycle ~stats ~wall_time () =
  let n = Array.length detected in
  let nd = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 detected in
  {
    detected;
    detection_cycle =
      (match detection_cycle with
      | Some a -> a
      | None -> Array.make n (-1));
    coverage_pct = (if n = 0 then 0.0 else 100.0 *. float_of_int nd /. float_of_int n);
    stats;
    wall_time;
  }

let mean_detection_latency_opt r =
  let sum = ref 0 and n = ref 0 in
  Array.iter
    (fun c ->
      if c >= 0 then begin
        sum := !sum + c;
        incr n
      end)
    r.detection_cycle;
  if !n = 0 then None else Some (float_of_int !sum /. float_of_int !n)

let mean_detection_latency r =
  Option.value ~default:0.0 (mean_detection_latency_opt r)
