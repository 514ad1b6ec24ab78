(* Value-representation regression suite for the concurrent engine's
   flat (unboxed int64) state:

   - State.copy / State.blit isolate and round-trip, and a warm restore
     from a good-trace snapshot reproduces the straight run and the serial
     oracle;
   - the fault-indexed and open-addressing diff tables behave exactly like
     Hashtbl maps, under randomized operation sequences. *)

open Sim

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* ---- State.copy / State.blit ---- *)

let state_equal (a : State.t) (b : State.t) =
  let ok = ref (a.State.nsig = b.State.nsig) in
  for i = 0 to a.State.nsig - 1 do
    if State.get a i <> State.get b i then ok := false
  done;
  let words = State.mem_words a in
  if words <> State.mem_words b then ok := false
  else
    for i = 0 to words - 1 do
      if
        Bigarray.Array1.get a.State.mem_v i
        <> Bigarray.Array1.get b.State.mem_v i
      then ok := false
    done;
  !ok

let test_state_copy_blit () =
  let c = Circuits.find "alu" in
  let d, _, _, _ = Circuits.Bench_circuit.instantiate c ~scale:0.05 in
  let st = State.create d in
  for i = 0 to st.State.nsig - 1 do
    State.set st i (Int64.of_int (i * 7))
  done;
  let snap = State.copy st in
  check bool_t "copy equals source" true (state_equal st snap);
  (* mutating the source must not leak into the copy *)
  for i = 0 to st.State.nsig - 1 do
    State.set st i 0xDEADL
  done;
  check bool_t "copy isolated from source" false (state_equal st snap);
  check int_t "copy kept its value" 7 (Int64.to_int (State.get snap 1));
  (* blit restores the source exactly *)
  State.blit ~src:snap ~dst:st;
  check bool_t "blit round-trips" true (state_equal st snap)

(* Snapshot determinism at the engine level: capture the good trace, then
   warm-restore at a mid snapshot and run to the end — verdicts and
   detection cycles must equal the straight (cold) run, and both must
   match the serial oracle. *)
let snapshot_determinism name =
  let c = Circuits.find name in
  let _, g, w, _ = Circuits.Bench_circuit.instantiate c ~scale:0.05 in
  let w = { w with Faultsim.Workload.cycles = min w.cycles 60 } in
  let config =
    { Engine.Concurrent.default_config with mode = Engine.Concurrent.Full }
  in
  let capture = Engine.Concurrent.capture ~config g w in
  let d = g.Rtlir.Elaborate.design in
  let base =
    Faultsim.Fault.generate_transients ~seed:0xCAFEL ~count:6
      ~max_cycle:(w.Faultsim.Workload.cycles - 1) d
  in
  let late = w.Faultsim.Workload.cycles / 2 in
  let faults =
    Array.mapi
      (fun i f ->
        {
          f with
          Faultsim.Fault.stuck =
            Faultsim.Fault.Flip_at
              (late + (i mod (w.Faultsim.Workload.cycles - late)));
        })
      base
  in
  let acts = Engine.Concurrent.activations capture g faults in
  let earliest = Array.fold_left min max_int acts in
  let trace =
    Sim.Goodtrace.with_snapshots capture ~base:(Sim.State.create d)
      ~at:[ earliest ]
  in
  let start = Sim.Goodtrace.start_for trace ~activation:earliest in
  if start <= 0 then
    Alcotest.failf "%s: expected a mid snapshot for activation %d" name
      earliest;
  let ids = Array.init (Array.length faults) (fun i -> i) in
  let cold = Engine.Concurrent.run ~config g w faults ~ids in
  let warm =
    Engine.Concurrent.run ~config
      ~goodtrace:{ Sim.Goodtrace.trace; start }
      g w faults ~ids
  in
  let verdicts (r : Faultsim.Fault.result) =
    (r.Faultsim.Fault.detected, r.Faultsim.Fault.detection_cycle)
  in
  if verdicts warm <> verdicts cold then
    Alcotest.failf "%s: warm restore at cycle %d diverges from straight run"
      name start;
  let oracle =
    Baselines.Serial.run ~config:Simulator.default_config g w faults
  in
  if verdicts oracle <> verdicts warm then
    Alcotest.failf "%s: warm verdicts disagree with the serial oracle" name

let test_snapshot_determinism_alu () = snapshot_determinism "alu"
let test_snapshot_determinism_sha () = snapshot_determinism "sha256_hv"

(* ---- diff stores vs Hashtbl reference models ---- *)

let test_diffstore_model () =
  let rng = Random.State.make [| 0x5eed; 42 |] in
  for trial = 1 to 20 do
    let store = Engine.Diffstore.create ~expect:(1 + (trial mod 7)) () in
    let model : (int, int64) Hashtbl.t = Hashtbl.create 16 in
    let agrees key =
      let expect =
        match Hashtbl.find_opt model key with Some v -> v | None -> -1L
      in
      Engine.Diffstore.mem store key = Hashtbl.mem model key
      && Engine.Diffstore.find store key ~default:(-1L) = expect
    in
    for _ = 1 to 2000 do
      let key = Random.State.int rng 200 in
      match Random.State.int rng 4 with
      | 0 | 1 ->
          let v = Random.State.int64 rng 1000L in
          Engine.Diffstore.set store key v;
          Hashtbl.replace model key v
      | 2 ->
          Engine.Diffstore.remove store key;
          Hashtbl.remove model key
      | _ ->
          if not (agrees key) then
            Alcotest.failf "trial %d: lookup mismatch on key %d" trial key
    done;
    (* the whole key space agrees at the end *)
    for key = 0 to 199 do
      if not (agrees key) then
        Alcotest.failf "trial %d: final contents differ on key %d" trial key
    done
  done

(* The fault-indexed table against a Hashtbl model. Keys are dense in
   [0, nkeys); removal swaps the last entry into the freed slot, so the
   sequences below churn that path hard. *)
let faultmap_agrees ~what model fm nkeys =
  for key = 0 to nkeys - 1 do
    let expect = Hashtbl.find_opt model key in
    if Engine.Faultmap.mem fm key <> Option.is_some expect then
      Alcotest.failf "%s: mem mismatch on key %d" what key;
    if
      Engine.Faultmap.find fm key ~default:(-1L)
      <> Option.value expect ~default:(-1L)
    then Alcotest.failf "%s: find mismatch on key %d" what key
  done;
  check bool_t (what ^ ": is_empty") (Hashtbl.length model = 0)
    (Engine.Faultmap.is_empty fm);
  (* iteration visits each live key exactly once, with its value *)
  let seen = Hashtbl.create 16 in
  Engine.Faultmap.iter fm (fun k v ->
      if Hashtbl.mem seen k then Alcotest.failf "%s: key %d visited twice" what k;
      Hashtbl.add seen k ();
      match Hashtbl.find_opt model k with
      | Some mv when mv = v -> ()
      | Some _ -> Alcotest.failf "%s: key %d iterated with wrong value" what k
      | None -> Alcotest.failf "%s: key %d iterated but not in model" what k);
  check int_t (what ^ ": iter count") (Hashtbl.length model)
    (Hashtbl.length seen);
  let keys = ref 0 in
  Engine.Faultmap.iter_keys fm (fun k ->
      incr keys;
      if not (Hashtbl.mem model k) then
        Alcotest.failf "%s: iter_keys visited absent key %d" what k);
  check int_t (what ^ ": iter_keys count") (Hashtbl.length model) !keys

let test_faultmap_model () =
  (* lookups on a table that has never had an insert *)
  let fresh = Engine.Faultmap.create ~nkeys:32 in
  faultmap_agrees ~what:"fresh" (Hashtbl.create 1) fresh 32;
  Engine.Faultmap.remove fresh 5;
  Engine.Faultmap.clear fresh;
  faultmap_agrees ~what:"fresh after remove and clear" (Hashtbl.create 1) fresh
    32;
  (* removing the last member, then remove-and-reinsert *)
  let fm = Engine.Faultmap.create ~nkeys:8 in
  let model = Hashtbl.create 8 in
  Engine.Faultmap.set fm 3 30L;
  Engine.Faultmap.remove fm 3;
  faultmap_agrees ~what:"last member removed" model fm 8;
  Engine.Faultmap.set fm 3 31L;
  Engine.Faultmap.set fm 7 70L;
  Engine.Faultmap.remove fm 3;
  Engine.Faultmap.set fm 3 32L;
  Hashtbl.replace model 3 32L;
  Hashtbl.replace model 7 70L;
  faultmap_agrees ~what:"remove and reinsert" model fm 8;
  (* random sequences *)
  let rng = Random.State.make [| 0xfa17; 3 |] in
  for trial = 1 to 20 do
    let nkeys = 1 + Random.State.int rng 300 in
    let fm = Engine.Faultmap.create ~nkeys in
    let model : (int, int64) Hashtbl.t = Hashtbl.create 16 in
    for _ = 1 to 3000 do
      let key = Random.State.int rng nkeys in
      match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 ->
          let v = Random.State.int64 rng 1000L in
          Engine.Faultmap.set fm key v;
          Hashtbl.replace model key v
      | 4 | 5 | 6 ->
          Engine.Faultmap.remove fm key;
          Hashtbl.remove model key
      | 7 | 8 ->
          if Engine.Faultmap.mem fm key <> Hashtbl.mem model key then
            Alcotest.failf "trial %d: mem mismatch on key %d" trial key;
          if
            Engine.Faultmap.find fm key ~default:(-1L)
            <> Option.value (Hashtbl.find_opt model key) ~default:(-1L)
          then Alcotest.failf "trial %d: find mismatch on key %d" trial key
      | _ ->
          if Random.State.int rng 20 = 0 then begin
            Engine.Faultmap.clear fm;
            Hashtbl.reset model
          end
    done;
    faultmap_agrees ~what:(Printf.sprintf "trial %d" trial) model fm nkeys
  done;
  (* many swap-removals: fill every key, then remove all but every
     seventh in a scrambled order *)
  let n = 1024 in
  let fm = Engine.Faultmap.create ~nkeys:n in
  let model = Hashtbl.create n in
  for key = 0 to n - 1 do
    Engine.Faultmap.set fm key (Int64.of_int (key * 5));
    Hashtbl.replace model key (Int64.of_int (key * 5))
  done;
  for i = 0 to n - 1 do
    let key = i * 389 mod n in
    if key mod 7 <> 0 then begin
      Engine.Faultmap.remove fm key;
      Hashtbl.remove model key
    end
  done;
  faultmap_agrees ~what:"after swap-removals" model fm n;
  (* the out-of-range insert raises; lookups stay unchecked *)
  let raises key =
    match Engine.Faultmap.set fm key 1L with
    | () -> Alcotest.failf "set %d on a %d-key table did not raise" key n
    | exception Invalid_argument _ -> ()
  in
  raises n;
  raises (-1);
  raises max_int;
  faultmap_agrees ~what:"after rejected sets" model fm n

let test_counts_model () =
  let rng = Random.State.make [| 0xc0; 7 |] in
  for trial = 1 to 20 do
    let store = Engine.Diffstore.Counts.create ~expect:(1 + (trial mod 5)) () in
    let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let bump key delta =
      let c =
        (match Hashtbl.find_opt model key with Some c -> c | None -> 0)
        + delta
      in
      if c <= 0 then Hashtbl.remove model key else Hashtbl.replace model key c
    in
    for _ = 1 to 2000 do
      let key = Random.State.int rng 100 in
      let delta = Random.State.int rng 5 - 2 in
      Engine.Diffstore.Counts.bump store key delta;
      (* the engine only ever bumps by +-1 on existing state; the model
         mirrors the store's documented semantics for any delta *)
      if delta > 0 || Hashtbl.mem model key then bump key delta;
      if
        Engine.Diffstore.Counts.mem store key <> Hashtbl.mem model key
      then Alcotest.failf "trial %d: mem mismatch on key %d" trial key
    done;
    check int_t "length agrees" (Hashtbl.length model)
      (Engine.Diffstore.Counts.length store);
    let seen = ref 0 in
    Engine.Diffstore.Counts.iter_keys store (fun k ->
        incr seen;
        if not (Hashtbl.mem model k) then
          Alcotest.failf "key %d iterated but not in model" k);
    check int_t "iteration count" (Hashtbl.length model) !seen;
    Engine.Diffstore.Counts.clear store;
    check int_t "cleared" 0 (Engine.Diffstore.Counts.length store)
  done

(* Capacity follows the live population, not the insert history: churning
   many distinct keys through a table that never holds more than a few of
   them at once must leave it no larger than that population needs (a
   quarter-full table at most), and the tombstone rehashes must keep the
   contents intact. *)
let test_diffstore_capacity_after_churn () =
  (* 1,200 keys, at most 64 live: key k is removed when k + 64 goes in *)
  let live = 64 in
  let churned = Engine.Diffstore.create ~expect:16 () in
  let counts = Engine.Diffstore.Counts.create ~expect:16 () in
  for key = 0 to 1199 do
    if key >= live then begin
      Engine.Diffstore.remove churned (key - live);
      Engine.Diffstore.Counts.bump counts (key - live) (-1)
    end;
    Engine.Diffstore.set churned key (Int64.of_int (key * 7));
    Engine.Diffstore.Counts.bump counts key 1
  done;
  check int_t "windowed churn counts length" live
    (Engine.Diffstore.Counts.length counts);
  if Engine.Diffstore.Counts.capacity counts > 4 * live then
    Alcotest.failf "counts store grew to %d slots for %d live entries"
      (Engine.Diffstore.Counts.capacity counts) live;
  for key = 1200 - live to 1199 do
    if
      Engine.Diffstore.find churned key ~default:(-1L)
      <> Int64.of_int (key * 7)
    then Alcotest.failf "key %d lost across tombstone rehashes" key;
    if not (Engine.Diffstore.Counts.mem counts key) then
      Alcotest.failf "counted key %d lost across tombstone rehashes" key
  done;
  check bool_t "removed key stays removed" false
    (Engine.Diffstore.mem churned (1199 - live))

let suite =
  [
    Alcotest.test_case "State.copy and blit isolate and round-trip" `Quick
      test_state_copy_blit;
    Alcotest.test_case "snapshot restore equals straight run (alu)" `Quick
      test_snapshot_determinism_alu;
    Alcotest.test_case "snapshot restore equals straight run (sha256_hv)"
      `Quick test_snapshot_determinism_sha;
    Alcotest.test_case "diffstore matches Hashtbl model" `Quick
      test_diffstore_model;
    Alcotest.test_case "faultmap matches Hashtbl model" `Quick
      test_faultmap_model;
    Alcotest.test_case "counts store matches refcount model" `Quick
      test_counts_model;
    Alcotest.test_case "diffstore capacity follows live entries under churn"
      `Quick test_diffstore_capacity_after_churn;
  ]
