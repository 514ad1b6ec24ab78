(* CFG construction and the Algorithm-1 redundancy walk. *)
open Rtlir
open Flow

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
let vdg = Vdg.build cfg

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

let test_choose () =
  let find_decision labels_expected =
    let found = ref None in
    Array.iter
      (fun n ->
        match n with
        | Cfg.Decision d
          when (d.Cfg.labels <> None) = labels_expected ->
            found := Some d
        | _ -> ())
      cfg.Cfg.nodes;
    match !found with Some d -> d | None -> Alcotest.fail "decision not found"
  in
  let ifd = find_decision false in
  check int_t "if true arm" 0 (Cfg.choose_i ifd 1L);
  check int_t "if false arm" 1 (Cfg.choose_i ifd 0L);
  let cased = find_decision true in
  check int_t "case match" 0 (Cfg.choose_i cased 2L);
  check int_t "case default" 1 (Cfg.choose_i cased 7L)

(* Drive the walk with explicit value environments (masked int64
   payloads, the representation the engine walks over). *)
let width i = if i = 2 then 1 else if i = 3 then 4 else 16

let walk ~good ~fault =
  let ev env e =
    Sim.Eval.eval_i ~sig_width:width
      ~mem_width:(fun _ -> 8)
      ~mem_size:(fun _ -> 1)
      { Sim.Access.iget = env; iget_mem = (fun _ _ -> 0L) }
      e
  in
  (* record good choices by walking decisions with good values *)
  let record = Array.make (Array.length cfg.Cfg.nodes) 0 in
  Array.iteri
    (fun i n ->
      match n with
      | Cfg.Decision d -> record.(i) <- Cfg.choose_i d (ev good d.Cfg.selector)
      | _ -> ())
    cfg.Cfg.nodes;
  Vdg.redundant_i vdg
    ~good_choice:(fun i -> record.(i))
    ~eval_good:(ev good)
    ~eval_fault:(ev fault)
    ~visible:(fun s -> good s <> fault s)
    ~mem_word_visible:(fun _ _ -> false)

let payload i v = Bits.to_int64 (Bits.make (width i) (Int64.of_int v))
let base i = payload i (i + 1)

let with_ overrides i =
  match List.assoc_opt i overrides with
  | Some v -> payload i v
  | None -> base i

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

(* soundness property on random designs: when the walk declares a fault
   redundant, executing the faulty copy writes exactly the good values *)
let test_walk_soundness_random () =
  let checked = ref 0 in
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
    (* faulty view: flip one bit of one signal *)
    let rng = Faultsim.Rng.create (Int64.of_int seed) in
    let fsig = Faultsim.Rng.int rng (Design.num_signals d) in
    let fbit = Faultsim.Rng.int rng (sig_width fsig) in
    let fault_val i =
      if i = fsig then Int64.logxor vals.(i) (Int64.shift_left 1L fbit)
      else vals.(i)
    in
    let good_r =
      { Sim.Access.iget = (fun i -> vals.(i)); iget_mem = (fun m a -> mems.(m).(a)) }
    in
    let fault_r =
      { Sim.Access.iget = fault_val; iget_mem = (fun m a -> mems.(m).(a)) }
    in
    let eval r e = Sim.Eval.eval_i ~sig_width ~mem_width ~mem_size r e in
    Array.iter
      (fun (p : Design.proc) ->
        if p.trigger <> Design.Comb then begin
          let cp = Sim.Compile.proc_i ~sig_width ~mem_width ~mem_size p.body in
          let record =
            Array.make (Array.length cp.Sim.Compile.icfg.Cfg.nodes) 0
          in
          (* collect good writes *)
          let wr log =
            {
              Sim.Access.iset_blocking = (fun _ _ -> assert false);
              iset_nonblocking = (fun id v -> log := (`S id, v) :: !log);
              iwrite_mem = (fun m a v -> log := (`M (m, a), v) :: !log);
            }
          in
          let glog = ref [] in
          Sim.Compile.exec_i cp ~record good_r (wr glog);
          let redundant =
            Vdg.redundant_i cp.Sim.Compile.ivdg
              ~good_choice:(fun i -> record.(i))
              ~eval_good:(eval good_r) ~eval_fault:(eval fault_r)
              ~visible:(fun s -> vals.(s) <> fault_val s)
              ~mem_word_visible:(fun _ _ -> false)
          in
          if redundant then begin
            incr checked;
            let flog = ref [] in
            Sim.Compile.exec_i cp fault_r (wr flog);
            if !glog <> !flog then
              Alcotest.failf
                "seed %d proc %s: walk said redundant but writes differ" seed
                p.pname
          end
        end)
      d.Design.procs
  done;
  check bool_t "some redundant cases exercised" true (!checked > 20)

(* the compiled CFG executor and the bytecode interpreter perform the
   same writes in the same order, on the behavioral bodies of random
   designs *)
let test_cfg_exec_equals_bytecode () =
  for seed = 1 to 30 do
    let s = Harness.Rand_design.generate ~seed:(Int64.of_int (60_000 + seed)) () in
    let d = s.Harness.Rand_design.design in
    let msz m = d.Design.mems.(m).Design.size in
    let vals =
      Array.init (Design.num_signals d) (fun i ->
          Bits.make (Design.signal_width d i) (Int64.of_int ((i * 2654435761) lxor seed)))
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
    Array.iter
      (fun (p : Design.proc) ->
        (* blocking writes make the two executions interact with the state
           store, so give each its own copy *)
        let run exec_fn =
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
        let compiled = run (fun r w -> Sim.Compile.exec cp r w) in
        let bytecode =
          let sp = Sim.Bytecode.compile_stmt ~mem_size:msz p.body in
          run (fun r w -> Sim.Bytecode.exec sp r w)
        in
        if compiled <> bytecode then
          Alcotest.failf "seed %d proc %s: executors disagree" seed p.pname)
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
  ]
