(* The kernel (Engine.Kernel): its programs compute what the reference
   evaluator computes, for the good network and for a fault over a diff
   overlay; the reads a good run records are all a fault can change the
   result through; and a run, a body's execution and a walk allocate
   nothing. *)
open Rtlir
open Sim
module K = Engine.Kernel
module A = Bigarray.Array1

let check = Alcotest.check

(* ---- a fixed universe of signals and memories ---- *)
let sig_widths = [| 1; 2; 3; 7; 8; 13; 16; 31; 32; 33; 63; 64; 64; 5 |]

(* (data width, size): sizes that are not powers of two wrap unevenly *)
let mems = [| (8, 5); (64, 16); (13, 3) |]

let nsig = Array.length sig_widths
let sig_width i = sig_widths.(i)
let mem_width m = fst mems.(m)
let mem_size m = snd mems.(m)

let mask w = if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L
let rand_payload rs w = Int64.logand (Random.State.bits64 rs) (mask w)

(* Small and boundary payloads as well as uniform ones: zero divisors,
   shift amounts at and beyond the width and 64, sign bits. *)
let payload rs w =
  let sign = Int64.shift_left 1L (w - 1) in
  match Random.State.int rs 8 with
  | 0 -> 0L
  | 1 -> Int64.logand (Int64.of_int (Random.State.int rs 70)) (mask w)
  | 2 -> mask w
  | 3 -> sign
  | 4 -> Int64.logxor (mask w) sign
  | 5 ->
      let near = [| 63; 64; 65; w - 1; w; w + 1 |] in
      Int64.logand (Int64.of_int near.(Random.State.int rs 6)) (mask w)
  | _ -> rand_payload rs w

let const rs w = Expr.Const (Bits.make w (payload rs w))

let coerce rs e w target =
  if w = target then e
  else if w > target then
    let lo = Random.State.int rs (w - target + 1) in
    Expr.Slice (e, lo + target - 1, lo)
  else if Random.State.bool rs then Expr.Zext (e, target)
  else Expr.Sext (e, target)

let any_width rs =
  if Random.State.int rs 4 = 0 then 64 else 1 + Random.State.int rs 64

(* A well-typed expression of width [target] over the universe. *)
let rec gen rs depth target =
  let sub w = gen rs (depth - 1) w in
  let leaf () =
    if Random.State.int rs 3 = 0 then const rs target
    else
      let s = Random.State.int rs nsig in
      coerce rs (Expr.Sig s) sig_widths.(s) target
  in
  if depth <= 0 then leaf ()
  else
    match Random.State.int rs 12 with
    | 0 -> leaf ()
    | 1 ->
        let op = [| Expr.Not; Expr.Neg |].(Random.State.int rs 2) in
        Expr.Unop (op, sub target)
    | 2 ->
        let op =
          [| Expr.Red_and; Expr.Red_or; Expr.Red_xor |].(Random.State.int rs 3)
        in
        coerce rs (Expr.Unop (op, sub (any_width rs))) 1 target
    | 3 ->
        let op =
          [|
            Expr.Add; Expr.Sub; Expr.Mul; Expr.Divu; Expr.Modu; Expr.And;
            Expr.Or; Expr.Xor;
          |].(Random.State.int rs 8)
        in
        Expr.Binop (op, sub target, sub target)
    | 4 ->
        let op = [| Expr.Shl; Expr.Shru; Expr.Shra |].(Random.State.int rs 3) in
        let amount =
          if Random.State.bool rs then const rs (any_width rs)
          else sub (any_width rs)
        in
        Expr.Binop (op, sub target, amount)
    | 5 ->
        let w = any_width rs in
        let op =
          [|
            Expr.Eq; Expr.Neq; Expr.Ltu; Expr.Leu; Expr.Gtu; Expr.Geu;
            Expr.Lts; Expr.Les; Expr.Gts; Expr.Ges;
          |].(Random.State.int rs 10)
        in
        coerce rs (Expr.Binop (op, sub w, sub w)) 1 target
    | 6 | 7 -> Expr.Mux (sub (any_width rs), sub target, sub target)
    | 8 when target < 64 ->
        let w = target + 1 + Random.State.int rs (64 - target) in
        let lo = Random.State.int rs (w - target + 1) in
        Expr.Slice (sub w, lo + target - 1, lo)
    | 9 when target >= 2 ->
        let lo_w = 1 + Random.State.int rs (target - 1) in
        Expr.Concat (sub (target - lo_w), sub lo_w)
    | 10 when target >= 2 ->
        let from = 1 + Random.State.int rs (target - 1) in
        if Random.State.bool rs then Expr.Sext (sub from, target)
        else Expr.Zext (sub from, target)
    | _ ->
        let m = Random.State.int rs (Array.length mems) in
        let e = Expr.Mem_read (m, sub (any_width rs)) in
        coerce rs e (mem_width m) target

(* ---- a good state and one fault's diff overlay ---- *)
let nfaults = 3
let fault = 1

type world = {
  view : K.view;
  good : Access.reader;
  faulty : Access.reader;
}

let state rs =
  let base = Array.make (Array.length mems) 0 in
  let total = ref 0 in
  Array.iteri
    (fun m (_, size) ->
      base.(m) <- !total;
      total := !total + size)
    mems;
  let i64 n =
    let a = A.create Bigarray.int64 Bigarray.c_layout n in
    A.fill a 0L;
    a
  in
  let st =
    {
      State.nsig;
      sig_v = i64 nsig;
      widths = Array.copy sig_widths;
      mem_v = i64 !total;
      mem_base = base;
      mem_sizes = Array.map snd mems;
      mem_widths = Array.map fst mems;
    }
  in
  Array.iteri (fun s w -> State.set st s (payload rs w)) sig_widths;
  Array.iteri
    (fun m (w, size) ->
      for a = 0 to size - 1 do
        State.set_mem st m a (payload rs w)
      done)
    mems;
  st

let world rs st =
  let diffs =
    Array.init nsig (fun _ -> Engine.Faultmap.create ~nkeys:nfaults)
  in
  let mem_diffs =
    Array.map (fun _ -> Engine.Diffstore.create ~expect:4 ()) mems
  in
  let mem_fault_words =
    Array.map (fun _ -> Engine.Diffstore.Counts.create ~expect:4 ()) mems
  in
  Array.iteri
    (fun s w ->
      for f = 0 to nfaults - 1 do
        if Random.State.int rs 3 = 0 then
          let v = payload rs w in
          if v <> State.get st s then Engine.Faultmap.set diffs.(s) f v
      done)
    sig_widths;
  Array.iteri
    (fun m (w, size) ->
      for a = 0 to size - 1 do
        for f = 0 to nfaults - 1 do
          if Random.State.int rs 4 = 0 then
            let v = payload rs w in
            if v <> State.get_mem st m a then begin
              Engine.Diffstore.set mem_diffs.(m) ((f * size) + a) v;
              Engine.Diffstore.Counts.bump mem_fault_words.(m) f 1
            end
        done
      done)
    mems;
  let good =
    {
      Access.get = (fun s -> Bits.make sig_widths.(s) (State.get st s));
      get_mem = (fun m a -> Bits.make (mem_width m) (State.get_mem st m a));
    }
  in
  let faulty =
    {
      Access.get =
        (fun s ->
          Bits.make sig_widths.(s)
            (Engine.Faultmap.find diffs.(s) fault ~default:(State.get st s)));
      get_mem =
        (fun m a ->
          Bits.make (mem_width m)
            (Engine.Diffstore.find mem_diffs.(m)
               ((fault * mem_size m) + a)
               ~default:(State.get_mem st m a)));
    }
  in
  { view = { K.st; diffs; mem_diffs; mem_fault_words }; good; faulty }

let result p = A.get p.K.regs p.K.out

let reference reader e = Bits.to_int64 (Eval.eval ~mem_size reader e)

(* Every signal and memory word the recorded path does not name gets a new
   value; the good result must not move. *)
let perturb_off_path rs st path n =
  let on_sig = Array.make nsig false in
  let on_mem = Array.make (Array.length mems) false in
  for i = 0 to n - 1 do
    let e = path.(i) in
    if e >= 0 then on_sig.(e) <- true else on_mem.(lnot e) <- true
  done;
  Array.iteri
    (fun s w -> if not on_sig.(s) then State.set st s (rand_payload rs w))
    sig_widths;
  Array.iteri
    (fun m (w, size) ->
      if not on_mem.(m) then
        for a = 0 to size - 1 do
          State.set_mem st m a (rand_payload rs w)
        done)
    mems

let kernel_matches_eval seed =
  let rs = Random.State.make [| seed |] in
  let width = any_width rs in
  let e = gen rs (1 + Random.State.int rs 5) width in
  let p = K.compile ~sig_width ~mem_width ~mem_size e in
  let st = state rs in
  let w = world rs st in
  let path = Array.make p.K.nreads 0 in
  let n = K.eval_good p w.view ~path ~off:0 in
  let good = result p in
  let target = Random.State.int rs nsig in
  let changed = K.eval_fault p w.view fault ~target in
  let faulty = result p in
  let ok_good = Int64.equal good (reference w.good e) in
  let ok_fault = Int64.equal faulty (reference w.faulty e) in
  let ok_changed =
    changed = not (Int64.equal faulty (Bits.to_int64 (w.faulty.get target)))
  in
  perturb_off_path rs st path n;
  let ok_path = Int64.equal good (reference w.good e) in
  if not (ok_good && ok_fault && ok_changed && ok_path && n <= p.K.nreads)
  then
    QCheck2.Test.fail_reportf
      "seed %d: good %b fault %b changed %b path %b (%d/%d reads)" seed ok_good
      ok_fault ok_changed ok_path n p.K.nreads;
  true

let qcheck =
  QCheck2.Test.make ~count:5000 ~name:"kernel equals Eval.eval"
    (QCheck2.Gen.int_bound 1_000_000_000)
    kernel_matches_eval

(* ---- allocation ---- *)

(* 10,000 good and faulty runs over sha256_c2v's assigns move no minor
   word: no closure, no boxed operand or read. The faults carry signal
   diffs only; a diverging memory word takes the one boxed lookup. *)
let test_no_allocation () =
  let d, _, _, _ =
    Circuits.Bench_circuit.instantiate (Circuits.find "sha256_c2v") ~scale:0.06
  in
  let sig_width i = d.Design.signals.(i).Design.width in
  let mem_width m = d.Design.mems.(m).Design.data_width in
  let mem_size m = d.Design.mems.(m).Design.size in
  let progs =
    Array.map
      (fun (a : Design.assign) ->
        K.compile ~sig_width ~mem_width ~mem_size a.expr)
      d.Design.assigns
  in
  let st = State.create d in
  let rs = Random.State.make [| 7 |] in
  let n = Design.num_signals d in
  for s = 0 to n - 1 do
    State.set st s (rand_payload rs (sig_width s))
  done;
  let nf = 8 in
  let diffs = Array.init n (fun _ -> Engine.Faultmap.create ~nkeys:nf) in
  for s = 0 to n - 1 do
    if Random.State.int rs 4 = 0 then
      Engine.Faultmap.set diffs.(s) (Random.State.int rs nf)
        (Int64.logxor (State.get st s) 1L)
  done;
  let nmem = Array.length d.Design.mems in
  let view =
    {
      K.st;
      diffs;
      mem_diffs =
        Array.init nmem (fun _ -> Engine.Diffstore.create ~expect:4 ());
      mem_fault_words =
        Array.init nmem (fun _ -> Engine.Diffstore.Counts.create ~expect:4 ());
    }
  in
  let path =
    Array.make (Array.fold_left (fun m p -> max m p.K.nreads) 0 progs) 0
  in
  let np = Array.length progs in
  let run k =
    let p = progs.(k mod np) in
    if k land 1 = 0 then ignore (K.eval_good p view ~path ~off:0 : int)
    else ignore (K.eval_fault p view (k mod nf) ~target:(k mod n) : bool)
  in
  for k = 0 to 2 * np do
    run k
  done;
  let w0 = Gc.minor_words () in
  for k = 0 to 9_999 do
    run k
  done;
  let w1 = Gc.minor_words () in
  check (Alcotest.float 0.) "minor words over 10,000 runs" 0. (w1 -. w0)

(* riscv_mini's 8 behavioral bodies: 30,000 good runs recording their
   choices, faulty runs over a signal-diff overlay and Algorithm-1 walks,
   with a preallocated sink, move no minor word either: no closure, no
   boxed read or store value, and choosers that allocate nothing. *)
let test_bodies_no_allocation () =
  let d, _, _, _ =
    Circuits.Bench_circuit.instantiate (Circuits.find "riscv_mini") ~scale:0.06
  in
  let sig_width i = d.Design.signals.(i).Design.width in
  let mem_width m = d.Design.mems.(m).Design.data_width in
  let mem_size m = d.Design.mems.(m).Design.size in
  let bodies =
    Array.map
      (fun (p : Design.proc) ->
        K.body ~sig_width ~mem_width ~mem_size p.body)
      d.Design.procs
  in
  check Alcotest.int "bodies" 8 (Array.length bodies);
  let st = State.create d in
  let rs = Random.State.make [| 11 |] in
  let n = Design.num_signals d in
  for s = 0 to n - 1 do
    State.set st s (rand_payload rs (sig_width s))
  done;
  let nf = 8 in
  let diffs = Array.init n (fun _ -> Engine.Faultmap.create ~nkeys:nf) in
  for s = 0 to n - 1 do
    if Random.State.int rs 4 = 0 then
      Engine.Faultmap.set diffs.(s) (Random.State.int rs nf)
        (Int64.logxor (State.get st s) 1L)
  done;
  let nmem = Array.length d.Design.mems in
  let view =
    {
      K.st;
      diffs;
      mem_diffs =
        Array.init nmem (fun _ -> Engine.Diffstore.create ~expect:4 ());
      mem_fault_words =
        Array.init nmem (fun _ -> Engine.Diffstore.Counts.create ~expect:4 ());
    }
  in
  (* The good copy's blocking stores land in the good state; every store
     value goes to a ring of 64 slots. *)
  let ring = A.create Bigarray.int64 Bigarray.c_layout 64 in
  let stores = ref 0 in
  let keep (p : K.t) =
    A.unsafe_set ring (!stores land 63) (A.unsafe_get p.K.regs p.K.out);
    incr stores
  in
  let sink =
    {
      K.blocking =
        (fun f s p ->
          if f < 0 then
            A.unsafe_set st.State.sig_v s (A.unsafe_get p.K.regs p.K.out);
          keep p);
      nonblocking = (fun _ _ p -> keep p);
      mem_write = (fun _ _ _ p -> keep p);
    }
  in
  let records = Array.map (fun b -> Array.make (K.node_count b) 0) bodies in
  let visited = ref 0 and redundant = ref 0 in
  let nb = Array.length bodies in
  (* Each run first gives one signal a new payload, so that the bodies
     take every kind of path, cases included. *)
  let masks = A.create Bigarray.int64 Bigarray.c_layout n in
  for s = 0 to n - 1 do
    A.set masks s (mask (sig_width s))
  done;
  let run k =
    let s = k mod n in
    let h = Int64.mul (Int64.of_int (k + 1)) 0x9E3779B97F4A7C15L in
    A.unsafe_set st.State.sig_v s
      (Int64.logand (Int64.shift_right_logical h 17) (A.unsafe_get masks s));
    let i = k mod nb and f = k mod nf in
    match k / nb mod 3 with
    | 0 -> K.exec_good bodies.(i) view ~record:records.(i) sink
    | 1 -> K.exec_fault bodies.(i) view f sink
    | _ ->
        if K.redundant bodies.(i) view f ~choices:records.(i) ~visited then
          incr redundant
  in
  for k = 0 to 3 * nb do
    run k
  done;
  let w0 = Gc.minor_words () in
  for k = 0 to 29_999 do
    run k
  done;
  let w1 = Gc.minor_words () in
  check (Alcotest.float 0.) "minor words over 30,000 runs" 0. (w1 -. w0);
  check Alcotest.bool "stores made" true (!stores > 0);
  check Alcotest.bool "walks visited nodes" true (!visited > 0);
  check Alcotest.bool "a case chose an arm past its second" true
    (Array.exists (Array.exists (fun c -> c >= 2)) records);
  check Alcotest.bool "some walk skipped a copy" true (!redundant > 0)

(* The NBA commit of a whole engine run: each executed fault copy of one
   of sha256_c2v's single-register processes stores and preserves one
   value, into the run's append logs. Two cold runs with the same faults,
   50 and 100 cycles, on one instance: the minor words the later 50 cycles
   add, per fault copy they execute, stay under a bound that covers the
   boxed diff updates of the commit and the settle around each copy (about
   19 words), but not a consed list entry per store (about 10 more). *)
let test_commit_words_per_copy () =
  let _, g, w, faults =
    Circuits.Bench_circuit.instantiate (Circuits.find "sha256_c2v") ~scale:0.06
  in
  let inst = Engine.Concurrent.instance g in
  let run cycles =
    let w = { w with Faultsim.Workload.cycles } in
    let w0 = Gc.minor_words () in
    let r = Engine.Concurrent.run ~instance:inst g w faults in
    (Gc.minor_words () -. w0, r.Faultsim.Fault.stats.Faultsim.Stats.bn_fault_exec)
  in
  ignore (run 50);
  let words50, exec50 = run 50 in
  let words100, exec100 = run 100 in
  let copies = exec100 - exec50 in
  check Alcotest.bool "the later cycles execute fault copies" true
    (copies > 5_000);
  let per_copy = (words100 -. words50) /. float_of_int copies in
  if per_copy > 24. then
    Alcotest.failf "%.1f minor words per executed fault copy (%d copies)"
      per_copy copies

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck;
    Alcotest.test_case "no allocation on sha256_c2v's assigns" `Quick
      test_no_allocation;
    Alcotest.test_case "no allocation in riscv_mini's bodies" `Quick
      test_bodies_no_allocation;
    Alcotest.test_case "NBA commit: bounded words per fault copy" `Quick
      test_commit_words_per_copy;
  ]
