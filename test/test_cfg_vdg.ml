(* CFG construction, the kernel's body executor and the Algorithm-1
   redundancy walk. *)
open Rtlir
open Flow
module K = Engine.Kernel
module A = Bigarray.Array1
module State = Sim.State

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* a representative body:
     x = a + b;
     if (c) { q <= x; } else { if (d == 2) q <= e; else q <= f; }
     y = x ^ g;                                                     *)
let body =
  Stmt.Block
    [
      Stmt.Assign (10, Expr.Binop (Expr.Add, Expr.Sig 0, Expr.Sig 1));
      Stmt.If
        ( Expr.Sig 2,
          Stmt.Nonblock (11, Expr.Sig 10),
          Stmt.Case
            ( Expr.Sig 3,
              [ (Bits.of_int 4 2, Stmt.Nonblock (11, Expr.Sig 4)) ],
              Stmt.Nonblock (11, Expr.Sig 5) ) );
      Stmt.Assign (12, Expr.Binop (Expr.Xor, Expr.Sig 10, Expr.Sig 6));
    ]

let cfg = Cfg.build body

let test_structure () =
  check int_t "decisions" 2 cfg.Cfg.n_decisions;
  check int_t "statements preserved" 5 (Cfg.statement_count cfg);
  (* entry segment holds the leading assignment *)
  match cfg.Cfg.nodes.(cfg.Cfg.entry) with
  | Cfg.Segment s ->
      check (Alcotest.list int_t) "entry reads" [ 0; 1 ]
        (Array.to_list s.Cfg.reads);
      check (Alcotest.list int_t) "entry blocking" [ 10 ]
        (Array.to_list s.Cfg.blocking)
  | _ -> Alcotest.fail "entry is not a segment"

(* ---- the kernel over explicit states ---- *)

let i64s n =
  let a = A.create Bigarray.int64 Bigarray.c_layout n in
  A.fill a 0L;
  a

(* A good state holding payloads [vals] (widths [widths]) and memories
   [mems], each a (data width, words) pair. *)
let state widths vals mems =
  let sizes = Array.map (fun (_, words) -> Array.length words) mems in
  let base = Array.make (Array.length mems) 0 in
  let total = ref 0 in
  Array.iteri
    (fun m n ->
      base.(m) <- !total;
      total := !total + n)
    sizes;
  let st =
    {
      State.nsig = Array.length vals;
      sig_v = i64s (Array.length vals);
      widths;
      mem_v = i64s !total;
      mem_base = base;
      mem_sizes = sizes;
      mem_widths = Array.map fst mems;
    }
  in
  Array.iteri (State.set st) vals;
  Array.iteri (fun m (_, words) -> Array.iteri (State.set_mem st m) words) mems;
  st

(* Fault [f]'s view over [st]: a diff on every signal where [fvals]
   differs from the good value, and on every memory word of [fmem], given
   as (memory, address, payload). *)
let view ?(f = 0) ?(fmem = []) st fvals =
  let diffs =
    Array.init st.State.nsig (fun s ->
        let t = Engine.Faultmap.create ~nkeys:(f + 1) in
        if fvals.(s) <> State.get st s then Engine.Faultmap.set t f fvals.(s);
        t)
  in
  let nmem = Array.length st.State.mem_sizes in
  let mem_diffs =
    Array.init nmem (fun _ -> Engine.Diffstore.create ~expect:4 ())
  in
  let mem_fault_words =
    Array.init nmem (fun _ -> Engine.Diffstore.Counts.create ~expect:4 ())
  in
  List.iter
    (fun (m, a, v) ->
      Engine.Diffstore.set mem_diffs.(m) ((f * st.State.mem_sizes.(m)) + a) v;
      Engine.Diffstore.Counts.bump mem_fault_words.(m) f 1)
    fmem;
  { K.st; diffs; mem_diffs; mem_fault_words }

(* Logs every store, newest first. A blocking store also lands where the
   execution's later reads see it: the good state, or the fault's diffs. *)
let log_sink v log =
  let value (p : K.t) = A.get p.K.regs p.K.out in
  {
    K.blocking =
      (fun f s p ->
        let x = value p in
        if f < 0 then State.set v.K.st s x
        else Engine.Faultmap.set v.K.diffs.(s) f x;
        log := (`B s, x) :: !log);
    nonblocking = (fun _ s p -> log := (`N s, value p) :: !log);
    mem_write = (fun _ m a p -> log := (`M (m, a), value p) :: !log);
  }

let exec_good ?(record = [||]) b v =
  let log = ref [] in
  K.exec_good b v ~record (log_sink v log);
  !log

let exec_fault ?(f = 0) b v =
  let log = ref [] in
  K.exec_fault b v f (log_sink v log);
  !log

(* Records the good choices on one copy of the state, then walks fault 0
   against another, both holding the pre-execution values. *)
let walk_env b ~sig_width ~good ~fault =
  let widths = Array.init (Array.length good) sig_width in
  let record = Array.make (K.node_count b) 0 in
  ignore (exec_good ~record b (view (state widths good [||]) good));
  K.redundant b
    (view (state widths good [||]) fault)
    0 ~choices:record ~visited:(ref 0)

(* Drive the walk with explicit value environments (masked int64
   payloads, the representation the engine walks over). *)
let width i = if i = 2 then 1 else if i = 3 then 4 else 16
let nsig = 13

let compile ?(sig_width = width) body =
  K.body ~sig_width ~mem_width:(fun _ -> 8) ~mem_size:(fun _ -> 1) body

let cp = compile body
let payload i v = Bits.to_int64 (Bits.make (width i) (Int64.of_int v))
let base i = payload i (i + 1)

let with_ overrides i =
  match List.assoc_opt i overrides with
  | Some v -> payload i v
  | None -> base i

let test_choose () =
  let decision labelled =
    let found = ref None in
    Array.iteri
      (fun i n ->
        match n with
        | Cfg.Decision d when (d.Cfg.labels <> None) = labelled ->
            found := Some i
        | _ -> ())
      cfg.Cfg.nodes;
    match !found with
    | Some i -> i
    | None -> Alcotest.fail "decision not found"
  in
  let chosen env id =
    let vals = Array.init nsig env in
    let record = Array.make (K.node_count cp) (-1) in
    ignore
      (exec_good ~record cp
         (view (state (Array.init nsig width) vals [||]) vals));
    record.(id)
  in
  let ifd = decision false and cased = decision true in
  check int_t "if true arm" 0 (chosen (with_ [ (2, 1) ]) ifd);
  check int_t "if false arm" 1 (chosen (with_ [ (2, 0) ]) ifd);
  check int_t "case match" 0 (chosen (with_ [ (2, 0); (3, 2) ]) cased);
  check int_t "case default" 1 (chosen (with_ [ (2, 0); (3, 7) ]) cased)

let walk ~good ~fault =
  walk_env cp ~sig_width:width ~good:(Array.init nsig good)
    ~fault:(Array.init nsig fault)

let test_walk_redundant_offpath () =
  (* good takes the then-branch (c=1); fault differs only on e/f, which the
     then-branch never reads -> redundant *)
  check bool_t "off-path diff is redundant" true
    (walk ~good:(with_ [ (2, 1) ]) ~fault:(with_ [ (2, 1); (4, 99); (5, 77) ]))

let test_walk_onpath () =
  (* fault differs on a, which the entry segment reads -> not redundant *)
  check bool_t "on-path diff is not redundant" false
    (walk ~good:base ~fault:(with_ [ (0, 99) ]))

let test_walk_path_divergence () =
  (* fault flips the branch condition -> not redundant *)
  check bool_t "path divergence detected" false
    (walk ~good:(with_ [ (2, 1) ]) ~fault:(with_ [ (2, 0) ]))

let test_walk_selector_value_change_same_path () =
  (* the case selector differs (3 vs 7) but both fall to the default arm:
     the paper's Fig. 3(b) situation — still redundant provided the taken
     path reads no differing signal *)
  check bool_t "changed selector, same arm" true
    (walk
       ~good:(with_ [ (2, 0); (3, 3) ])
       ~fault:(with_ [ (2, 0); (3, 7) ]))

let test_walk_locals_are_skipped () =
  (* signal 10 is blocking-written before being read: its pre-execution
     visibility must not matter *)
  check bool_t "locally-written reads ignored" true
    (walk ~good:(with_ [ (2, 1) ]) ~fault:(with_ [ (2, 1); (10, 1234) ]))

(* A random design's good state: signal and memory payloads derived from
   the ids. *)
let design_state d vals mems =
  let st = State.create d in
  Array.iteri (State.set st) vals;
  Array.iteri (fun m words -> Array.iteri (State.set_mem st m) words) mems;
  st

(* soundness property on random designs: when the walk declares a fault
   redundant, executing the faulty copy writes exactly the good values —
   for comb bodies (blocking writes, local-write tracking) and
   edge-triggered ones alike *)
let rec has_case = function
  | Stmt.Case _ -> true
  | Stmt.Block l -> List.exists has_case l
  | Stmt.If (_, a, b) -> has_case a || has_case b
  | _ -> false

let test_walk_soundness_random () =
  let checked = ref 0 and checked_comb = ref 0 and checked_comb_case = ref 0 in
  for seed = 1 to 40 do
    let s = Harness.Rand_design.generate ~seed:(Int64.of_int (9000 + seed)) () in
    let d = s.Harness.Rand_design.design in
    let sig_width = Design.signal_width d in
    let mem_width m = d.Design.mems.(m).Design.data_width in
    let mem_size m = d.Design.mems.(m).Design.size in
    let vals =
      Array.init (Design.num_signals d) (fun i ->
          Bits.to_int64 (Bits.make (sig_width i) (Int64.of_int (i * 131))))
    in
    let mems =
      Array.map
        (fun (m : Design.mem) ->
          match m.Design.init with
          | Some a -> Array.map Bits.to_int64 a
          | None ->
              Array.init m.Design.size (fun a ->
                  Bits.to_int64
                    (Bits.make m.Design.data_width (Int64.of_int (a * 7)))))
        d.Design.mems
    in
    let fresh fvals = view (design_state d vals mems) fvals in
    (* faulty view: flip one bit of one signal *)
    let rng = Faultsim.Rng.create (Int64.of_int seed) in
    let flip fsig fbit =
      let fvals = Array.copy vals in
      fvals.(fsig) <- Int64.logxor vals.(fsig) (Int64.shift_left 1L fbit);
      fvals
    in
    let fsig = Faultsim.Rng.int rng (Design.num_signals d) in
    let random_view = flip fsig (Faultsim.Rng.int rng (sig_width fsig)) in
    Array.iter
      (fun (p : Design.proc) ->
        let b = K.body ~sig_width ~mem_width ~mem_size p.body in
        let record = Array.make (K.node_count b) 0 in
        let glog = exec_good ~record b (fresh vals) in
        let check_view fvals =
          let redundant =
            K.redundant b (fresh fvals) 0 ~choices:record ~visited:(ref 0)
          in
          if redundant then begin
            incr checked;
            if p.trigger = Design.Comb then begin
              incr checked_comb;
              if has_case p.body then incr checked_comb_case
            end;
            if glog <> exec_fault b (fresh fvals) then
              Alcotest.failf
                "seed %d proc %s: walk said redundant but writes differ" seed
                p.pname
          end
        in
        check_view random_view;
        (* a comb body may read a target's previous value before writing
           it: fault each target too *)
        List.iter
          (fun t -> check_view (flip t 0))
          (Stmt.blocking_writes p.body))
      d.Design.procs
  done;
  check bool_t "some redundant cases exercised" true (!checked > 20);
  check bool_t "some comb-body redundant cases exercised" true
    (!checked_comb > 10);
  check bool_t "some of them in a comb body with a case" true
    (!checked_comb_case > 0)

(* The compiled CFG executor, the bytecode interpreter and the kernel
   perform the same writes in the same order, on the behavioral bodies of
   random designs: on the good state, and for a fault over a random diff
   overlay, which the boxed executors run as an overlaid state. *)
let test_cfg_exec_equals_bytecode () =
  for seed = 1 to 30 do
    let s = Harness.Rand_design.generate ~seed:(Int64.of_int (60_000 + seed)) () in
    let d = s.Harness.Rand_design.design in
    let msz m = d.Design.mems.(m).Design.size in
    let mwidth m = d.Design.mems.(m).Design.data_width in
    let swidth = Design.signal_width d in
    let vals =
      Array.init (Design.num_signals d) (fun i ->
          Bits.make (swidth i) (Int64.of_int ((i * 2654435761) lxor seed)))
    in
    let mems =
      Array.map
        (fun (m : Design.mem) ->
          match m.Design.init with
          | Some a -> Array.copy a
          | None ->
              Array.init m.Design.size (fun a ->
                  Bits.make m.Design.data_width (Int64.of_int (a * 97))))
        d.Design.mems
    in
    (* fault 1's overlay: a third of the signals, a quarter of the words *)
    let rs = Random.State.make [| seed |] in
    let fvals =
      Array.map
        (fun v ->
          if Random.State.int rs 3 = 0 then
            Bits.make (Bits.width v) (Random.State.int64 rs Int64.max_int)
          else v)
        vals
    in
    let fmem = ref [] in
    let fmems =
      Array.mapi
        (fun m words ->
          Array.mapi
            (fun a v ->
              if Random.State.int rs 4 = 0 then begin
                let x =
                  Bits.make (mwidth m) (Random.State.int64 rs Int64.max_int)
                in
                fmem := (m, a, Bits.to_int64 x) :: !fmem;
                x
              end
              else v)
            words)
        mems
    in
    let payloads = Array.map Bits.to_int64 in
    let kstate () = design_state d (payloads vals) (Array.map payloads mems) in
    let boxed log =
      List.rev_map
        (fun (k, x) ->
          let w =
            match k with `B s | `N s -> swidth s | `M (m, _) -> mwidth m
          in
          (k, Bits.make w x))
        log
    in
    Array.iter
      (fun (p : Design.proc) ->
        (* blocking writes make the executions interact with the state
           store, so give each its own copy *)
        let run vals mems exec_fn =
          let local_vals = Array.copy vals in
          let log = ref [] in
          let reader =
            {
              Sim.Access.get = (fun i -> local_vals.(i));
              get_mem = (fun m a -> mems.(m).(a));
            }
          in
          let writer =
            {
              Sim.Access.set_blocking =
                (fun id v ->
                  local_vals.(id) <- v;
                  log := (`B id, v) :: !log);
              set_nonblocking = (fun id v -> log := (`N id, v) :: !log);
              write_mem = (fun m a v -> log := (`M (m, a), v) :: !log);
            }
          in
          exec_fn reader writer;
          List.rev !log
        in
        let cp = Sim.Compile.proc ~mem_size:msz p.body in
        let compiled = run vals mems (fun r w -> Sim.Compile.exec cp r w) in
        let bytecode =
          let sp = Sim.Bytecode.compile_stmt ~mem_size:msz p.body in
          run vals mems (fun r w -> Sim.Bytecode.exec sp r w)
        in
        if compiled <> bytecode then
          Alcotest.failf "seed %d proc %s: executors disagree" seed p.pname;
        let kb =
          K.body ~sig_width:swidth ~mem_width:mwidth ~mem_size:msz p.body
        in
        let st = kstate () in
        if boxed (exec_good kb (view st (payloads vals))) <> compiled then
          Alcotest.failf "seed %d proc %s: kernel good run disagrees" seed
            p.pname;
        let faulty = run fvals fmems (fun r w -> Sim.Compile.exec cp r w) in
        let kfaulty =
          exec_fault ~f:1 kb
            (view ~f:1 ~fmem:!fmem (kstate ()) (payloads fvals))
        in
        if boxed kfaulty <> faulty then
          Alcotest.failf "seed %d proc %s: kernel fault run disagrees" seed
            p.pname)
      d.Design.procs
  done

let test_vdg_compression () =
  (* a body with an empty-read segment between decisions compresses *)
  let b =
    Stmt.Block
      [
        Stmt.Nonblock (0, Expr.Const (Bits.make 4 3L));
        Stmt.If (Expr.Sig 1, Stmt.Skip, Stmt.Skip);
      ]
  in
  let c = Cfg.build b in
  let v = Vdg.build c in
  check bool_t "constant-only segment is boring" true
    (Vdg.dependency_node_count v < c.Cfg.n_segments)

(* A selector reading a locally-written signal (x) and an external one (b)
   cannot be re-evaluated against pre-execution state:
     x = a;  if (x ^ b) q <= 1; else q <= 2;                          *)
let test_walk_selector_fallback () =
  let x = 0 and a = 1 and b = 2 and q = 3 in
  let byte = Bits.make 8 in
  let fb =
    compile ~sig_width:(fun _ -> 8)
      (Stmt.Block
         [
           Stmt.Assign (x, Expr.Sig a);
           Stmt.If
             ( Expr.Binop (Expr.Xor, Expr.Sig x, Expr.Sig b),
               Stmt.Nonblock (q, Expr.Const (byte 1L)),
               Stmt.Nonblock (q, Expr.Const (byte 2L)) );
         ])
  in
  let good = [| 1L; 1L; 1L; 0L |] in
  let walk fault = walk_env fb ~sig_width:(fun _ -> 8) ~good ~fault in
  check bool_t "visible external selector read executes" false
    (walk [| 1L; 1L; 0L; 0L |]);
  (* re-evaluating the selector on the pre-execution x would flip the
     branch; the executed x equals the good one *)
  check bool_t "differing pre-execution local alone is redundant" true
    (walk [| 0L; 1L; 1L; 0L |])

let suite =
  [
    Alcotest.test_case "cfg structure" `Quick test_structure;
    Alcotest.test_case "choose" `Quick test_choose;
    Alcotest.test_case "walk: off-path diff redundant" `Quick
      test_walk_redundant_offpath;
    Alcotest.test_case "walk: on-path diff executes" `Quick test_walk_onpath;
    Alcotest.test_case "walk: path divergence executes" `Quick
      test_walk_path_divergence;
    Alcotest.test_case "walk: changed selector same arm" `Quick
      test_walk_selector_value_change_same_path;
    Alcotest.test_case "walk: locals skipped" `Quick
      test_walk_locals_are_skipped;
    Alcotest.test_case "walk soundness on random procs" `Quick
      test_walk_soundness_random;
    Alcotest.test_case "cfg exec = bytecode" `Quick
      test_cfg_exec_equals_bytecode;
    Alcotest.test_case "vdg empty-node removal" `Quick test_vdg_compression;
    Alcotest.test_case "walk: local selector falls back" `Quick
      test_walk_selector_fallback;
  ]
