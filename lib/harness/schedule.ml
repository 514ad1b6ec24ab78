type policy = Fixed | Adaptive

let policy_name = function Fixed -> "fixed" | Adaptive -> "adaptive"

type granularity = Size of int | Chunks of int

type batch = {
  sb_index : int;
  sb_ids : int array;
  sb_start : int;
  sb_cost : float;
}

type warm_input = {
  wi_trace : Sim.Goodtrace.t;
  wi_acts : int array;
  wi_pruned : bool array;
}

type t = {
  sp_policy : policy;
  sp_batches : batch array;
  sp_pruned : int array;
  sp_trace : Sim.Goodtrace.t option;
  sp_acts : int array option;
}

(* Order-preserving decomposition of [order] into batch id arrays. *)
let slice ~granularity order =
  let nlive = Array.length order in
  if nlive = 0 then [||]
  else
    match granularity with
    | Size s ->
        let s = max 1 s in
        let nb = (nlive + s - 1) / s in
        Array.init nb (fun i ->
            let lo = i * s in
            Array.sub order lo (min nlive (lo + s) - lo))
    | Chunks k ->
        let k = max 1 (min k nlive) in
        Array.init k (fun i ->
            let lo = i * nlive / k and hi = (i + 1) * nlive / k in
            Array.sub order lo (hi - lo))

let min_act acts ids =
  Array.fold_left (fun m id -> min m acts.(id)) max_int ids

(* The snapshot budget: one snapshot per [max 8 (cycles / 16)] cycles,
   rounded up, so snapshot memory is bounded by the workload length
   alone. *)
let snapshot_budget cycles =
  let k = max 8 (cycles / 16) in
  max 1 ((cycles + k - 1) / k)

(* Snapshot placement: ask for each batch's exact earliest activation
   boundary, under {!snapshot_budget}. Over budget, the closest adjacent
   pair merges into its earlier member — batches that wanted the later
   point fall back to a cycle still at or before their activation, so
   soundness is untouched and only some skipped prefix is given back. When
   no batch needs a snapshot, the capture's end snapshot stays alone. *)
let place_snapshots (design : Rtlir.Elaborate.t) trace slices acts =
  let cycles = trace.Sim.Goodtrace.cycles in
  let desired =
    Array.to_list slices
    |> List.filter_map (fun ids ->
           if Array.length ids = 0 then None
           else
             let a = min (min_act acts ids) cycles in
             if a < 1 then None else Some a)
    |> List.sort_uniq compare
  in
  let budget = snapshot_budget cycles in
  let rec trim l =
    let arr = Array.of_list l in
    let nl = Array.length arr in
    if nl <= budget then l
    else begin
      let bi = ref 1 and bg = ref max_int in
      for i = 1 to nl - 1 do
        let gap = arr.(i) - arr.(i - 1) in
        if gap < !bg then begin
          bg := gap;
          bi := i
        end
      done;
      trim (List.filteri (fun i _ -> i <> !bi) l)
    end
  in
  let at = trim desired in
  if at = [] then trace
  else
    Sim.Goodtrace.with_snapshots trace
      ~base:(Sim.State.create design.Rtlir.Elaborate.design)
      ~at

let plan ~policy ~granularity ?warm
    ~(design : Rtlir.Elaborate.t) ~n () =
  let pruned_mask =
    match warm with Some wi -> wi.wi_pruned | None -> Array.make n false
  in
  let live = ref [] and pruned = ref [] in
  for i = n - 1 downto 0 do
    if pruned_mask.(i) then pruned := i :: !pruned else live := i :: !live
  done;
  let live = Array.of_list !live in
  let pruned = Array.of_list !pruned in
  (* without a capture there are no activation windows, so the plan
     degrades to Fixed *)
  let policy = match warm with None -> Fixed | Some _ -> policy in
  let order =
    match (policy, warm) with
    | Fixed, _ | _, None -> live
    | Adaptive, Some wi ->
        let o = Array.copy live in
        Array.sort
          (fun a b ->
            match compare wi.wi_acts.(a) wi.wi_acts.(b) with
            | 0 -> compare a b
            | c -> c)
          o;
        o
  in
  let slices = slice ~granularity order in
  match warm with
  | None ->
      {
        sp_policy = policy;
        sp_batches =
          Array.mapi
            (fun i ids ->
              {
                sb_index = i;
                sb_ids = ids;
                sb_start = 0;
                sb_cost = float_of_int (Array.length ids);
              })
            slices;
        sp_pruned = pruned;
        sp_trace = None;
        sp_acts = None;
      }
  | Some wi ->
      let trace = place_snapshots design wi.wi_trace slices wi.wi_acts in
      let ev_total = Array.length trace.Sim.Goodtrace.code in
      let batches =
        Array.mapi
          (fun i ids ->
            let start =
              if Array.length ids = 0 then 0
              else
                Sim.Goodtrace.start_for trace
                  ~activation:(min_act wi.wi_acts ids)
            in
            (* cost hint: live faults × good-trace events still to replay *)
            let remaining =
              ev_total - trace.Sim.Goodtrace.cycle_code.(start)
            in
            {
              sb_index = i;
              sb_ids = ids;
              sb_start = start;
              sb_cost = float_of_int (Array.length ids * (remaining + 1));
            })
          slices
      in
      {
        sp_policy = policy;
        sp_batches = batches;
        sp_pruned = pruned;
        sp_trace = Some trace;
        sp_acts = Some wi.wi_acts;
      }

let warm_for p ids =
  match (p.sp_trace, p.sp_acts) with
  | Some trace, Some acts when Array.length ids > 0 ->
      let a = min_act acts ids in
      Some
        { Sim.Goodtrace.trace; start = Sim.Goodtrace.start_for trace ~activation:a }
  | _ -> None

let halve ids =
  let n = Array.length ids in
  if n <= 1 then None
  else
    let h = n / 2 in
    Some (Array.sub ids 0 h, Array.sub ids h (n - h))

let singletons ids = Array.map (fun id -> [| id |]) ids

let to_json p =
  Jsonl.Obj
    [
      ("type", Jsonl.String "plan");
      ("policy", Jsonl.String (policy_name p.sp_policy));
      ("batches", Jsonl.Int (Array.length p.sp_batches));
      ( "starts",
        Jsonl.List
          (Array.to_list
             (Array.map (fun b -> Jsonl.Int b.sb_start) p.sp_batches)) );
    ]
