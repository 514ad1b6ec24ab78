(* Value-representation regression suite for the concurrent engine's
   flat (unboxed int64) state:

   - State.copy / State.blit isolate and round-trip, and a warm restore
     from a good-trace snapshot reproduces the straight run and the serial
     oracle;
   - the open-addressing diff stores behave exactly like the Hashtbl maps
     they replaced, under randomized operation sequences. *)

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
  let trace = Engine.Concurrent.capture ~config g w in
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
  let acts = Engine.Concurrent.activations trace g faults in
  let earliest = Array.fold_left min max_int acts in
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

(* ---- diff store vs Hashtbl reference model ---- *)

let test_diffstore_model () =
  let rng = Random.State.make [| 0x5eed; 42 |] in
  for trial = 1 to 20 do
    let store = Engine.Diffstore.create ~expect:(1 + (trial mod 7)) () in
    let model : (int, int64) Hashtbl.t = Hashtbl.create 16 in
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
          check bool_t "mem agrees" (Hashtbl.mem model key)
            (Engine.Diffstore.mem store key);
          let expect =
            match Hashtbl.find_opt model key with Some v -> v | None -> -1L
          in
          if Engine.Diffstore.find store key ~default:(-1L) <> expect then
            Alcotest.failf "trial %d: find mismatch on key %d" trial key
    done;
    check int_t "length agrees" (Hashtbl.length model)
      (Engine.Diffstore.length store);
    (* iteration covers exactly the live entries *)
    let seen = Hashtbl.create 16 in
    Engine.Diffstore.iter store (fun k v ->
        if Hashtbl.mem seen k then Alcotest.failf "key %d visited twice" k;
        Hashtbl.add seen k ();
        match Hashtbl.find_opt model k with
        | Some mv when mv = v -> ()
        | Some _ -> Alcotest.failf "key %d iterated with wrong value" k
        | None -> Alcotest.failf "key %d iterated but not in model" k);
    check int_t "iteration count" (Hashtbl.length model) (Hashtbl.length seen);
    Engine.Diffstore.clear store;
    check int_t "cleared" 0 (Engine.Diffstore.length store);
    check bool_t "cleared mem" false (Engine.Diffstore.mem store 0)
  done

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

(* clear releases a grown slot array back to the creation-time size, but
   only once the table has outgrown it by the documented factor (16) —
   moderate growth must keep its capacity across rounds. *)
let test_diffstore_shrink_on_clear () =
  let store = Engine.Diffstore.create ~expect:4 () in
  let base = Engine.Diffstore.capacity store in
  for key = 0 to 4095 do
    Engine.Diffstore.set store key (Int64.of_int key)
  done;
  check int_t "populated" 4096 (Engine.Diffstore.length store);
  if Engine.Diffstore.capacity store <= 16 * base then
    Alcotest.failf "giant batch did not grow past the shrink threshold (%d)"
      (Engine.Diffstore.capacity store);
  Engine.Diffstore.clear store;
  check int_t "shrunk back to base capacity" base
    (Engine.Diffstore.capacity store);
  check int_t "cleared" 0 (Engine.Diffstore.length store);
  (* still a working table after the reallocation *)
  for key = 0 to 63 do
    Engine.Diffstore.set store key (Int64.of_int (key * 3))
  done;
  check int_t "usable after shrink" 64 (Engine.Diffstore.length store);
  check bool_t "lookup after shrink" true
    (Engine.Diffstore.find store 21 ~default:(-1L) = 63L);
  (* moderate growth (<= 16x) keeps its capacity across clear *)
  Engine.Diffstore.clear store;
  for key = 0 to (4 * base) - 1 do
    Engine.Diffstore.set store key (Int64.of_int key)
  done;
  let grown = Engine.Diffstore.capacity store in
  if grown > 16 * base then
    Alcotest.failf "moderate growth unexpectedly passed the threshold (%d)"
      grown;
  Engine.Diffstore.clear store;
  check int_t "moderate growth retained across clear" grown
    (Engine.Diffstore.capacity store)

(* Capacity follows the live population, not the insert history: churning
   many distinct keys through a table that never holds more than a few of
   them at once must leave it no larger than that population needs (a
   quarter-full table at most), and the tombstone rehashes must keep the
   contents intact. *)
let test_diffstore_capacity_after_churn () =
  let store = Engine.Diffstore.create ~expect:16 () in
  let base = Engine.Diffstore.capacity store in
  for key = 0 to 99_999 do
    Engine.Diffstore.set store key (Int64.of_int key);
    Engine.Diffstore.remove store key
  done;
  check int_t "single-entry churn keeps the base capacity" base
    (Engine.Diffstore.capacity store);
  check int_t "single-entry churn leaves it empty" 0
    (Engine.Diffstore.length store);
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
  check int_t "windowed churn length" live (Engine.Diffstore.length churned);
  check int_t "windowed churn counts length" live
    (Engine.Diffstore.Counts.length counts);
  if Engine.Diffstore.capacity churned > 4 * live then
    Alcotest.failf "diffstore grew to %d slots for %d live entries"
      (Engine.Diffstore.capacity churned) live;
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
    Alcotest.test_case "counts store matches refcount model" `Quick
      test_counts_model;
    Alcotest.test_case "diffstore clear shrinks a high-water slot array"
      `Quick test_diffstore_shrink_on_clear;
    Alcotest.test_case "diffstore capacity follows live entries under churn"
      `Quick test_diffstore_capacity_after_churn;
  ]
