type i64a = State.i64a

(* Event stream encoding (opcodes in [code], payloads in [vals], the two
   consumed in lockstep):

     0  input       [0; id]                                   vals: v
     1  assign      [1; pos; target]                          vals: v
     2  comb proc   [2; pos; pid; nw; nrec;
                     w_id * nw; choice * nrec]                vals: w_v * nw
     3  ff proc     [3; pid; nw; nmw; nrec;
                     w_id * nw; (mem, addr) * nmw;
                     choice * nrec]                           vals: w_v * nw;
                                                                    mw_v * nmw
     4  step        [4]

   Branch choices are stored only for decision nodes, in ascending CFG
   node id order — the canonical order both capture and replay derive
   independently from the compiled process. *)

type t = {
  cycles : int;
  clock : int;
  nout : int;
  code : int array;
  vals : i64a;
  cycle_code : int array;
  cycle_vals : int array;
  outputs : i64a;
  snapshots : (int * State.t) array;
  capture_bytes : int;
}

exception Trace_mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Trace_mismatch s)) fmt

let ba n : i64a =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0L;
  a

(* ---- capture ---- *)

type builder = {
  b_cycles : int;
  b_clock : int;
  b_nout : int;
  mutable b_code : int array;
  mutable b_clen : int;
  mutable b_vals : int64 array;
  mutable b_vlen : int;
  b_cycle_code : int array;
  b_cycle_vals : int array;
  b_outputs : i64a;
  mutable b_end : State.t option;  (* the good state at [b_cycles] *)
  mutable b_cycle : int;
  mutable b_init_done : bool;
}

let builder ~cycles ~clock ~nout =
  if cycles < 0 then mismatch "negative cycle count %d" cycles;
  {
    b_cycles = cycles;
    b_clock = clock;
    b_nout = nout;
    b_code = Array.make 1024 0;
    b_clen = 0;
    b_vals = Array.make 256 0L;
    b_vlen = 0;
    b_cycle_code = Array.make (cycles + 1) 0;
    b_cycle_vals = Array.make (cycles + 1) 0;
    b_outputs = ba (cycles * nout);
    b_end = None;
    b_cycle = 0;
    b_init_done = false;
  }

let push_code b x =
  if b.b_clen = Array.length b.b_code then begin
    let a = Array.make (2 * b.b_clen) 0 in
    Array.blit b.b_code 0 a 0 b.b_clen;
    b.b_code <- a
  end;
  b.b_code.(b.b_clen) <- x;
  b.b_clen <- b.b_clen + 1

let push_val b x =
  if b.b_vlen = Array.length b.b_vals then begin
    let a = Array.make (2 * b.b_vlen) 0L in
    Array.blit b.b_vals 0 a 0 b.b_vlen;
    b.b_vals <- a
  end;
  b.b_vals.(b.b_vlen) <- x;
  b.b_vlen <- b.b_vlen + 1

let rec_input b id v =
  push_code b 0;
  push_code b id;
  push_val b v

let rec_step b = push_code b 4

let rec_assign b ~pos ~target v =
  push_code b 1;
  push_code b pos;
  push_code b target;
  push_val b v

let rec_comb_proc b ~pos ~pid ~writes ~choices =
  push_code b 2;
  push_code b pos;
  push_code b pid;
  push_code b (List.length writes);
  push_code b (Array.length choices);
  List.iter (fun (id, _) -> push_code b id) writes;
  Array.iter (fun c -> push_code b c) choices;
  List.iter (fun (_, v) -> push_val b v) writes

let rec_ff_proc b ~pid ~writes ~mem_writes ~choices =
  push_code b 3;
  push_code b pid;
  push_code b (List.length writes);
  push_code b (List.length mem_writes);
  push_code b (Array.length choices);
  List.iter (fun (id, _) -> push_code b id) writes;
  List.iter
    (fun (m, a, _) ->
      push_code b m;
      push_code b a)
    mem_writes;
  Array.iter (fun c -> push_code b c) choices;
  List.iter (fun (_, v) -> push_val b v) writes;
  List.iter (fun (_, _, v) -> push_val b v) mem_writes

let rec_init_done b =
  if b.b_init_done then mismatch "init recorded twice";
  b.b_cycle_code.(0) <- b.b_clen;
  b.b_cycle_vals.(0) <- b.b_vlen;
  b.b_init_done <- true

let rec_cycle_done b ~outputs ~state =
  if not b.b_init_done then mismatch "cycle recorded before init";
  let c = b.b_cycle in
  if c >= b.b_cycles then
    mismatch "capture ran past the declared %d cycles" b.b_cycles;
  if Array.length outputs <> b.b_nout then
    mismatch "output vector has %d ports, trace declares %d"
      (Array.length outputs) b.b_nout;
  for i = 0 to b.b_nout - 1 do
    Bigarray.Array1.set b.b_outputs ((c * b.b_nout) + i) outputs.(i)
  done;
  let c1 = c + 1 in
  b.b_cycle_code.(c1) <- b.b_clen;
  b.b_cycle_vals.(c1) <- b.b_vlen;
  if c1 = b.b_cycles then b.b_end <- Some (State.copy state);
  b.b_cycle <- c1

(* [t] with [capture_bytes] recomputed for its stream and snapshot set. *)
let sized t =
  let state_bytes (s : State.t) = 8 * (s.State.nsig + State.mem_words s) in
  let capture_bytes =
    (8
    * (Array.length t.code + Bigarray.Array1.dim t.vals + (t.cycles * t.nout)))
    + (16 * (t.cycles + 1))
    + Array.fold_left (fun acc (_, s) -> acc + state_bytes s) 0 t.snapshots
  in
  { t with capture_bytes }

let finish b =
  if not b.b_init_done then mismatch "capture never finished initialising";
  if b.b_cycle <> b.b_cycles then
    mismatch "capture stopped after %d of %d cycles" b.b_cycle b.b_cycles;
  let code = Array.sub b.b_code 0 b.b_clen in
  let vals = ba b.b_vlen in
  for i = 0 to b.b_vlen - 1 do
    Bigarray.Array1.set vals i b.b_vals.(i)
  done;
  sized
    {
      cycles = b.b_cycles;
      clock = b.b_clock;
      nout = b.b_nout;
      code;
      vals;
      cycle_code = b.b_cycle_code;
      cycle_vals = b.b_cycle_vals;
      outputs = b.b_outputs;
      snapshots =
        (match b.b_end with Some s -> [| (b.b_cycles, s) |] | None -> [||]);
      capture_bytes = 0;
    }

(* ---- replay ---- *)

type cursor = { c_t : t; mutable c_code : int; mutable c_vals : int }

let cursor t ~start =
  if start < 0 || start > t.cycles then
    mismatch "warm start cycle %d outside [0, %d]" start t.cycles;
  if start = 0 then { c_t = t; c_code = 0; c_vals = 0 }
  else
    {
      c_t = t;
      c_code = t.cycle_code.(start);
      c_vals = t.cycle_vals.(start);
    }

let expect cu kind what =
  if cu.c_code >= Array.length cu.c_t.code then
    mismatch "trace exhausted while expecting %s" what;
  if cu.c_t.code.(cu.c_code) <> kind then
    mismatch "expected %s, found event kind %d at offset %d" what
      cu.c_t.code.(cu.c_code) cu.c_code

let take_input cu =
  let t = cu.c_t in
  if cu.c_code < Array.length t.code && t.code.(cu.c_code) = 0 then begin
    let id = t.code.(cu.c_code + 1) in
    let v = Bigarray.Array1.get t.vals cu.c_vals in
    cu.c_code <- cu.c_code + 2;
    cu.c_vals <- cu.c_vals + 1;
    Some (id, v)
  end
  else None

let take_step cu =
  expect cu 4 "a step marker";
  cu.c_code <- cu.c_code + 1

let take_assign cu ~pos =
  expect cu 1 "a continuous-assign event";
  let t = cu.c_t in
  if t.code.(cu.c_code + 1) <> pos then
    mismatch "assign event at comb position %d, replay is at %d"
      t.code.(cu.c_code + 1) pos;
  let v = Bigarray.Array1.get t.vals cu.c_vals in
  cu.c_code <- cu.c_code + 3;
  cu.c_vals <- cu.c_vals + 1;
  v

let take_comb_proc cu ~pos ~pid ~set_choice ~write =
  expect cu 2 "a comb-process event";
  let t = cu.c_t in
  let i = cu.c_code in
  if t.code.(i + 1) <> pos || t.code.(i + 2) <> pid then
    mismatch "comb-process event (pos %d, pid %d), replay is at (%d, %d)"
      t.code.(i + 1)
      t.code.(i + 2)
      pos pid;
  let nw = t.code.(i + 3) and nrec = t.code.(i + 4) in
  let wbase = i + 5 in
  let rbase = wbase + nw in
  for k = 0 to nrec - 1 do
    set_choice k t.code.(rbase + k)
  done;
  let vb = cu.c_vals in
  for j = 0 to nw - 1 do
    write t.code.(wbase + j) (Bigarray.Array1.get t.vals (vb + j))
  done;
  cu.c_code <- rbase + nrec;
  cu.c_vals <- vb + nw

let take_ff_proc cu ~pid ~set_choice =
  expect cu 3 "an ff-process event";
  let t = cu.c_t in
  let i = cu.c_code in
  if t.code.(i + 1) <> pid then
    mismatch "ff-process event for pid %d, replay fired pid %d"
      t.code.(i + 1) pid;
  let nw = t.code.(i + 2) and nmw = t.code.(i + 3) and nrec = t.code.(i + 4) in
  let wbase = i + 5 in
  let mbase = wbase + nw in
  let rbase = mbase + (2 * nmw) in
  for k = 0 to nrec - 1 do
    set_choice k t.code.(rbase + k)
  done;
  let vb = cu.c_vals in
  let writes = ref [] in
  for j = nw - 1 downto 0 do
    writes :=
      (t.code.(wbase + j), Bigarray.Array1.get t.vals (vb + j)) :: !writes
  done;
  let mem_writes = ref [] in
  for j = nmw - 1 downto 0 do
    mem_writes :=
      ( t.code.(mbase + (2 * j)),
        t.code.(mbase + (2 * j) + 1),
        Bigarray.Array1.get t.vals (vb + nw + j) )
      :: !mem_writes
  done;
  cu.c_code <- rbase + nrec;
  cu.c_vals <- vb + nw + nmw;
  (!writes, !mem_writes)

(* ---- snapshots ---- *)

let snapshot_at t c =
  let rec find i =
    if i >= Array.length t.snapshots then
      mismatch "no snapshot at cycle %d" c
    else
      let sc, s = t.snapshots.(i) in
      if sc = c then s else find (i + 1)
  in
  find 0

let start_for t ~activation =
  let best = ref 0 in
  Array.iter
    (fun (c, _) -> if c <= activation && c > !best then best := c)
    t.snapshots;
  !best

type warm = { trace : t; start : int }

(* ---- activation windows ---- *)

type site_kind = Stuck0 | Stuck1 | Transient of int
type site = { s_signal : int; s_bit : int; s_kind : site_kind }

(* One linear pass over the event stream, the decoder every whole-stream
   pass shares (the cursor above serves replay). [on_write cycle id v]
   fires for every recorded good signal write, [on_mem_write cycle mem addr
   v] for every ff memory write, [on_ff cycle pid] when an edge-triggered
   process fires (before its writes), and [on_boundary c] once cycle [c]
   is fully recorded — i.e. at the exact point [observe c] ran during
   capture. The init-settle prefix is attributed to cycle 0. *)
let scan_events t ~on_write ~on_mem_write ~on_ff ~on_boundary =
  let code = t.code and vals = t.vals in
  let n = Array.length code in
  let i = ref 0 and vi = ref 0 in
  let k = ref 0 in
  let cycle_of idx =
    while !k < t.cycles && t.cycle_code.(!k + 1) <= idx do
      on_boundary !k;
      incr k
    done;
    !k
  in
  while !i < n do
    let cyc = cycle_of !i in
    match code.(!i) with
    | 0 ->
        on_write cyc code.(!i + 1) (Bigarray.Array1.get vals !vi);
        i := !i + 2;
        incr vi
    | 1 ->
        on_write cyc code.(!i + 2) (Bigarray.Array1.get vals !vi);
        i := !i + 3;
        incr vi
    | 2 ->
        let nw = code.(!i + 3) and nrec = code.(!i + 4) in
        for j = 0 to nw - 1 do
          on_write cyc code.(!i + 5 + j) (Bigarray.Array1.get vals (!vi + j))
        done;
        i := !i + 5 + nw + nrec;
        vi := !vi + nw
    | 3 ->
        let nw = code.(!i + 2)
        and nmw = code.(!i + 3)
        and nrec = code.(!i + 4) in
        let mbase = !i + 5 + nw in
        on_ff cyc code.(!i + 1);
        for j = 0 to nw - 1 do
          on_write cyc code.(!i + 5 + j) (Bigarray.Array1.get vals (!vi + j))
        done;
        for j = 0 to nmw - 1 do
          on_mem_write cyc
            code.(mbase + (2 * j))
            code.(mbase + (2 * j) + 1)
            (Bigarray.Array1.get vals (!vi + nw + j))
        done;
        i := !i + 5 + nw + (2 * nmw) + nrec;
        vi := !vi + nw + nmw
    | 4 -> incr i
    | other -> mismatch "corrupt trace: opcode %d at offset %d" other !i
  done;
  for c = !k to t.cycles - 1 do
    on_boundary c
  done

let scan_writes t f =
  scan_events t ~on_write:f
    ~on_mem_write:(fun _ _ _ _ -> ())
    ~on_ff:(fun _ _ -> ())
    ~on_boundary:(fun _ -> ())

let stuck_bit_of v bit =
  Int64.to_int (Int64.logand (Int64.shift_right_logical v bit) 1L)

let first_divergence t ~comb_driven sites =
  let n = Array.length sites in
  let act = Array.make n t.cycles in
  let by_sig : (int, int list ref) Hashtbl.t = Hashtbl.create 32 in
  let unresolved = ref 0 in
  Array.iteri
    (fun i s ->
      match s.s_kind with
      | Transient c -> act.(i) <- (if c < 0 then 0 else min c t.cycles)
      | Stuck1 when not comb_driven.(s.s_signal) ->
          (* the forced 1 differs from the pristine zero state and is
             readable from the very first settle *)
          act.(i) <- 0
      | Stuck0 | Stuck1 -> (
          incr unresolved;
          match Hashtbl.find_opt by_sig s.s_signal with
          | Some l -> l := i :: !l
          | None -> Hashtbl.add by_sig s.s_signal (ref [ i ])))
    sites;
  if !unresolved > 0 then (
    try
      scan_writes t (fun cyc id v ->
          match Hashtbl.find_opt by_sig id with
          | None -> ()
          | Some l ->
              l :=
                List.filter
                  (fun i ->
                    let s = sites.(i) in
                    let bit = stuck_bit_of v s.s_bit in
                    let stuck =
                      match s.s_kind with Stuck1 -> 1 | _ -> 0
                    in
                    if bit <> stuck then begin
                      act.(i) <- cyc;
                      decr unresolved;
                      false
                    end
                    else true)
                  !l;
              if !unresolved = 0 then raise Exit)
    with Exit -> ());
  act

(* Cone-refined activation windows.

   Stuck sites fall in two regimes:

   - [Legacy] — state-holding signals (nonblocking targets), signals with
     a combinational path into an edge sensitivity list, and signals a
     comb process both writes and reads ([self_read], where forcing an
     intermediate write can steer the rest of the body). A diff there
     either persists across cycles by itself, can create/suppress clock
     edges, or can diverge sibling writes even while the site's own final
     value matches — so the only sound window is the conservative
     first-divergence rule above (first recorded write whose bit differs;
     activation 0 for a stuck-1 on a never-yet-written signal, whose
     forced bit differs from the pristine zero state from the very first
     settle).

   - [Sampled] — everything else: combinationally recomputed signals (and
     undriven inputs). A diff on such a site is memoryless — every good
     write re-applies the forcing, so before the diff is *latched* by an
     edge-triggered process that structurally reads it, or *observed* at a
     cycle boundary with a comb path to an output, the fault network's
     registers, memories and outputs are identical to the good network's.
     The activation is therefore the first cycle where the forced bit
     differs from the tracked good value at such a sampling moment: an ff
     firing with [Cone.reaches_ff], or a cycle boundary with
     [Cone.out_comb]. Sites that never hit a sampling moment keep
     [t.cycles] (the fault can never be detected). *)
let activations t ~(cone : Flow.Cone.t) sites =
  let n = Array.length sites in
  let act = Array.make n t.cycles in
  let sampled = Array.make n false in
  (* current good bit of a sampled site differs from the forced bit;
     seeded against the pristine zero state *)
  let differs = Array.make n false in
  let by_sig : (int, int list ref) Hashtbl.t = Hashtbl.create 32 in
  let pending = ref [] in
  let unresolved = ref 0 in
  let add_by_sig s i =
    match Hashtbl.find_opt by_sig s with
    | Some l -> l := i :: !l
    | None -> Hashtbl.add by_sig s (ref [ i ])
  in
  Array.iteri
    (fun i s ->
      match s.s_kind with
      | Transient c -> act.(i) <- (if c < 0 then 0 else min c t.cycles)
      | (Stuck0 | Stuck1)
        when cone.Flow.Cone.state_sig.(s.s_signal)
             || cone.Flow.Cone.clock_comb.(s.s_signal)
             || cone.Flow.Cone.self_read.(s.s_signal) ->
          if s.s_kind = Stuck1 && not cone.Flow.Cone.comb_sig.(s.s_signal)
          then act.(i) <- 0
          else begin
            incr unresolved;
            add_by_sig s.s_signal i
          end
      | Stuck0 | Stuck1 ->
          sampled.(i) <- true;
          differs.(i) <- s.s_kind = Stuck1;
          incr unresolved;
          pending := i :: !pending;
          add_by_sig s.s_signal i)
    sites;
  let stuck_of i = match sites.(i).s_kind with Stuck1 -> 1 | _ -> 0 in
  let resolve cyc keep =
    pending :=
      List.filter
        (fun i ->
          if differs.(i) && keep i then begin
            act.(i) <- cyc;
            decr unresolved;
            false
          end
          else true)
        !pending;
    if !unresolved = 0 then raise Exit
  in
  if !unresolved > 0 then (
    try
      scan_events t
        ~on_mem_write:(fun _ _ _ _ -> ())
        ~on_write:(fun cyc id v ->
          match Hashtbl.find_opt by_sig id with
          | None -> ()
          | Some l ->
              l :=
                List.filter
                  (fun i ->
                    let bit = stuck_bit_of v sites.(i).s_bit in
                    if sampled.(i) then begin
                      differs.(i) <- bit <> stuck_of i;
                      true
                    end
                    else if bit <> stuck_of i then begin
                      act.(i) <- cyc;
                      decr unresolved;
                      if !unresolved = 0 then raise Exit;
                      false
                    end
                    else true)
                  !l)
        ~on_ff:(fun cyc pid ->
          if !pending <> [] then
            resolve cyc (fun i ->
                Flow.Cone.reaches_ff cone ~signal:sites.(i).s_signal ~pid))
        ~on_boundary:(fun cyc ->
          if !pending <> [] then
            resolve cyc (fun i -> cone.Flow.Cone.out_comb.(sites.(i).s_signal)))
    with Exit -> ());
  act

(* ---- post-hoc snapshot placement ---- *)

let with_snapshots t ~base ~at =
  let at =
    List.sort_uniq compare (t.cycles :: at)
    |> List.filter (fun c -> c >= 1 && c <= t.cycles)
  in
  if at = [] then t
  else begin
    (* The event stream is a complete state-update log, so replaying it
       over a pristine base reconstructs the exact good state at any cycle
       boundary. The clock signal is the one exception — its toggles are
       step markers, not writes — but its boundary value is the same every
       cycle, so it is borrowed from the end snapshot. *)
    let clock_v = State.get (snapshot_at t t.cycles) t.clock in
    let pending = ref at and snaps = ref [] in
    scan_events t
      ~on_write:(fun _ id v -> State.set base id v)
      ~on_mem_write:(fun _ m a v -> State.set_mem base m a v)
      ~on_ff:(fun _ _ -> ())
      ~on_boundary:(fun c ->
        match !pending with
        | sc :: rest when sc = c + 1 ->
            State.set base t.clock clock_v;
            snaps := (sc, State.copy base) :: !snaps;
            pending := rest
        | _ -> ());
    sized { t with snapshots = Array.of_list (List.rev !snaps) }
  end

let output_row t c =
  if c < 0 || c >= t.cycles then mismatch "output row %d out of range" c;
  Array.init t.nout (fun i -> Bigarray.Array1.get t.outputs ((c * t.nout) + i))
