(* Paper-reproduction harness: regenerates every table and figure of the
   evaluation section, plus Bechamel micro-benchmarks of the kernels that
   explain them.

     dune exec bench/main.exe                  # everything, default scale
     dune exec bench/main.exe -- fig6 --scale 0.5
     dune exec bench/main.exe -- micro

   Scale multiplies the paper's per-circuit stimulus and fault counts
   (Table II); the committed reference outputs in EXPERIMENTS.md record the
   scale they were produced at. *)

open Rtlir
module H = Harness

let ppf = Format.std_formatter

let table1 () = H.Report.environment ppf ()

let table2 ~scale =
  Format.fprintf ppf "@.";
  H.Report.table2 ppf (H.Experiments.table2 ~scale)

let table3 ~scale =
  Format.fprintf ppf "@.";
  H.Report.table3 ppf (H.Experiments.table3 ~scale)

let fig1b ~scale =
  Format.fprintf ppf "@.";
  H.Report.fig1b ppf (H.Experiments.fig1b ~scale)

let fig6 ~scale =
  Format.fprintf ppf "@.";
  H.Report.perf
    ~title:
      "Fig. 6: Performance comparison of RTL fault simulators (IFsim is the \
       baseline)"
    ppf
    (H.Experiments.fig6 ~scale)

let fig7 ~scale =
  Format.fprintf ppf "@.";
  H.Report.perf
    ~title:
      "Fig. 7: Ablation on redundancy elimination (Eraser-- / Eraser- / \
       Eraser)"
    ppf
    (H.Experiments.fig7 ~scale)

let ablation ~scale =
  Format.fprintf ppf "@.";
  H.Report.mem_ablation ppf (H.Experiments.mem_ablation ~scale)

let resilience ~scale =
  Format.fprintf ppf "@.";
  H.Report.resilience ppf (H.Experiments.resilience ~scale)

let scaling ~scale ~jobs ~out =
  Format.fprintf ppf "@.";
  let rows = H.Experiments.scaling ~jobs ~scale () in
  H.Report.scaling ppf rows;
  let json = H.Experiments.scaling_json ~scale rows in
  let text = H.Jsonl.to_string json in
  (* self-check: the emitted document must parse back *)
  ignore (H.Jsonl.parse text);
  H.Resilient.write_atomic out (fun oc ->
      output_string oc text;
      output_char oc '\n');
  Format.fprintf ppf "  json       %s@." out

let warmstart ~scale ~jobs ~out =
  Format.fprintf ppf "@.";
  let jobs = match jobs with j :: _ -> j | [] -> 4 in
  let rows = H.Experiments.warmstart ~jobs ~scale () in
  H.Report.warmstart ppf rows;
  let json = H.Experiments.warmstart_json ~scale rows in
  let text = H.Jsonl.to_string json in
  ignore (H.Jsonl.parse text);
  H.Resilient.write_atomic out (fun oc ->
      output_string oc text;
      output_char oc '\n');
  Format.fprintf ppf "  json       %s@." out

(* --- representation experiment: boxed vs flat value representation --- *)

(* End-to-end serial fault-simulation throughput (compile + golden trace +
   one full simulator per fault) under each evaluation style, old (boxed
   Bits.t per value) vs new (flat int64 state) representation. The two
   representations are verdict-checked against each other on every run. *)
let repr_bench ~scale ~out =
  Format.fprintf ppf
    "@.Value representation: boxed vs flat, serial engine per style@.";
  let styles =
    [
      ("closures", Sim.Simulator.Closures);
      ("ast", Sim.Simulator.Ast);
      ("bytecode", Sim.Simulator.Bytecode);
    ]
  in
  let circuits = [ "alu"; "sha256_hv" ] in
  let rows =
    List.map
      (fun name ->
        let c = Circuits.find name in
        let _, g, w, faults = Circuits.Bench_circuit.instantiate c ~scale in
        let nfaults = Array.length faults in
        (* best-of-3: the per-config runs are short enough that a single
           sample is at the mercy of the scheduler *)
        let run eval repr =
          let one () =
            Baselines.Serial.run
              ~config:
                {
                  Sim.Simulator.eval;
                  scheduler = Sim.Simulator.Levelized;
                  repr;
                }
              g w faults
          in
          let r = one () in
          let best = ref r.Faultsim.Fault.wall_time in
          for _ = 1 to 2 do
            let r' = one () in
            if r'.Faultsim.Fault.detected <> r.Faultsim.Fault.detected then
              failwith (Printf.sprintf "%s: nondeterministic verdicts" name);
            if r'.wall_time < !best then best := r'.wall_time
          done;
          (r, !best)
        in
        let style_rows =
          List.map
            (fun (sname, eval) ->
              let rb, bw = run eval Sim.Simulator.Boxed in
              let rf, fw = run eval Sim.Simulator.Flat in
              if rb.Faultsim.Fault.detected <> rf.Faultsim.Fault.detected then
                failwith
                  (Printf.sprintf "%s/%s: representations disagree" name sname);
              let speedup = bw /. fw in
              Format.fprintf ppf
                "  %-10s %-9s boxed %8.4f s  flat %8.4f s  speedup %5.2fx@."
                name sname bw fw speedup;
              (sname, bw, fw, speedup))
            styles
        in
        (name, nfaults, w.Faultsim.Workload.cycles, style_rows))
      circuits
  in
  let json =
    H.Jsonl.Obj
      [
        ("experiment", H.Jsonl.String "repr");
        ("scale", H.Jsonl.Float scale);
        ( "circuits",
          H.Jsonl.List
            (List.map
               (fun (name, nfaults, cycles, style_rows) ->
                 H.Jsonl.Obj
                   [
                     ("name", H.Jsonl.String name);
                     ("faults", H.Jsonl.Int nfaults);
                     ("cycles", H.Jsonl.Int cycles);
                     ( "styles",
                       H.Jsonl.List
                         (List.map
                            (fun (sname, bw, fw, speedup) ->
                              H.Jsonl.Obj
                                [
                                  ("style", H.Jsonl.String sname);
                                  ("boxed_wall_s", H.Jsonl.Float bw);
                                  ("flat_wall_s", H.Jsonl.Float fw);
                                  ( "flat_faults_per_sec",
                                    H.Jsonl.Float (float_of_int nfaults /. fw)
                                  );
                                  ("speedup_vs_boxed", H.Jsonl.Float speedup);
                                ])
                            style_rows) );
                   ])
               rows) );
      ]
  in
  let text = H.Jsonl.to_string json in
  ignore (H.Jsonl.parse text);
  H.Resilient.write_atomic out (fun oc ->
      output_string oc text;
      output_char oc '\n');
  Format.fprintf ppf "  json       %s@." out

(* --- Bechamel micro-benchmarks --- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  (* kernels *)
  let a64 = Bits.make 64 0x123456789ABCDEFL in
  let b64 = Bits.make 64 0xFEDCBA987654321L in
  let bits_add = Test.make ~name:"bits_add" (Staged.stage (fun () -> Bits.add a64 b64)) in
  let bits_mul = Test.make ~name:"bits_mul" (Staged.stage (fun () -> Bits.mul a64 b64)) in
  (* a representative expression under the three evaluation styles *)
  let expr =
    let s i = Expr.Sig i in
    Expr.Binop
      ( Expr.Xor,
        Expr.Binop
          ( Expr.Add,
            Expr.Binop (Expr.Mul, s 0, s 1),
            Expr.Mux
              ( Expr.Binop (Expr.Ltu, s 2, s 3),
                Expr.Binop (Expr.And, s 0, s 3),
                Expr.Unop (Expr.Not, s 1) ) ),
        Expr.Binop (Expr.Shru, s 2, Expr.Slice (s 3, 5, 0)) )
  in
  let values =
    [| a64; b64; Bits.make 64 42L; Bits.make 64 0xFFFFL |]
  in
  let reader =
    { Sim.Access.get = (fun i -> values.(i)); get_mem = (fun _ _ -> a64) }
  in
  let mem_size _ = 1 in
  let compiled = Sim.Compile.expr ~mem_size expr in
  let prog = Sim.Bytecode.compile ~mem_size expr in
  let eval_ast =
    Test.make ~name:"eval_ast"
      (Staged.stage (fun () -> Sim.Eval.eval ~mem_size reader expr))
  in
  let eval_closure =
    Test.make ~name:"eval_closure" (Staged.stage (fun () -> compiled reader))
  in
  let eval_bytecode =
    Test.make ~name:"eval_bytecode_4state"
      (Staged.stage (fun () -> Sim.Bytecode.eval prog reader))
  in
  (* behavioral execution vs the Algorithm-1 walk on the ALU main process *)
  let alu = Circuits.Alu64.build () in
  let body =
    (Array.to_list alu.Design.procs
    |> List.find (fun (p : Design.proc) -> p.pname = "alu_main"))
      .body
  in
  let cp = Sim.Compile.proc ~mem_size:(fun _ -> 1) body in
  let vals =
    Array.init (Design.num_signals alu) (fun i ->
        Bits.make (Design.signal_width alu i) (Int64.of_int (i * 77)))
  in
  let rd = { Sim.Access.get = (fun i -> vals.(i)); get_mem = (fun _ _ -> a64) } in
  let sink = ref (Bits.make 1 0L) in
  let wr =
    {
      Sim.Access.set_blocking = (fun _ v -> sink := v);
      set_nonblocking = (fun _ v -> sink := v);
      write_mem = (fun _ _ _ -> ());
    }
  in
  let record = Array.make (Array.length cp.Sim.Compile.cfg.Flow.Cfg.nodes) 0 in
  Sim.Compile.exec cp ~record rd wr;
  let exec_bn =
    Test.make ~name:"behavioral_exec"
      (Staged.stage (fun () -> Sim.Compile.exec cp rd wr))
  in
  let walk =
    Test.make ~name:"vdg_walk_algorithm1"
      (Staged.stage (fun () ->
           Flow.Vdg.redundant cp.Sim.Compile.vdg
             ~good_choice:(fun i -> record.(i))
             ~eval_good:(fun e -> Sim.Eval.eval ~mem_size:(fun _ -> 1) rd e)
             ~eval_fault:(fun e -> Sim.Eval.eval ~mem_size:(fun _ -> 1) rd e)
             ~visible:(fun _ -> false)
             ~mem_word_visible:(fun _ _ -> false)))
  in
  let tests =
    Test.make_grouped ~name:"kernels"
      [
        bits_add; bits_mul; eval_ast; eval_closure; eval_bytecode; exec_bn;
        walk;
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.fprintf ppf "Micro-benchmarks (ns/op):@.";
  Hashtbl.iter
    (fun name result ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some [ est ] -> Format.fprintf ppf "  %-28s %10.1f@." name est
      | _ -> Format.fprintf ppf "  %-28s (no estimate)@." name)
    results

let parse_jobs s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")
  |> List.map int_of_string

let () =
  let scale = ref 0.5 in
  let jobs = ref [ 1; 2; 4; 8 ] in
  let scaling_out = ref "BENCH_scaling.json" in
  let repr_out = ref "BENCH_repr.json" in
  let warmstart_out = ref "BENCH_warmstart.json" in
  let cmds = ref [] in
  let rec parse i =
    if i < Array.length Sys.argv then
      match Sys.argv.(i) with
      | "--scale" ->
          scale := float_of_string Sys.argv.(i + 1);
          parse (i + 2)
      | s when String.length s > 8 && String.sub s 0 8 = "--scale=" ->
          scale := float_of_string (String.sub s 8 (String.length s - 8));
          parse (i + 1)
      | "--jobs" ->
          jobs := parse_jobs Sys.argv.(i + 1);
          parse (i + 2)
      | s when String.length s > 7 && String.sub s 0 7 = "--jobs=" ->
          jobs := parse_jobs (String.sub s 7 (String.length s - 7));
          parse (i + 1)
      | "--scaling-out" ->
          scaling_out := Sys.argv.(i + 1);
          parse (i + 2)
      | "--repr-out" ->
          repr_out := Sys.argv.(i + 1);
          parse (i + 2)
      | "--warmstart-out" ->
          warmstart_out := Sys.argv.(i + 1);
          parse (i + 2)
      | cmd ->
          cmds := cmd :: !cmds;
          parse (i + 1)
  in
  (try parse 1
   with _ ->
     prerr_endline
       "usage: main [tableN|figN|scaling|repr|warmstart|micro] [--scale S] \
        [--jobs 1,2,4] [--scaling-out FILE] [--repr-out FILE] \
        [--warmstart-out FILE]");
  let cmds = if !cmds = [] then [ "all" ] else List.rev !cmds in
  let scale = !scale in
  Format.fprintf ppf "ERASER reproduction harness (scale %.2f)@.@." scale;
  List.iter
    (fun cmd ->
      match cmd with
      | "table1" -> table1 ()
      | "table2" -> table2 ~scale
      | "table3" -> table3 ~scale
      | "fig1b" -> fig1b ~scale
      | "fig6" -> fig6 ~scale
      | "fig7" -> fig7 ~scale
      | "ablation" -> ablation ~scale
      | "resilience" -> resilience ~scale
      | "scaling" -> scaling ~scale ~jobs:!jobs ~out:!scaling_out
      | "repr" -> repr_bench ~scale ~out:!repr_out
      | "warmstart" -> warmstart ~scale ~jobs:!jobs ~out:!warmstart_out
      | "micro" -> micro ()
      | "all" ->
          table1 ();
          table2 ~scale;
          fig1b ~scale;
          fig6 ~scale;
          fig7 ~scale;
          table3 ~scale;
          ablation ~scale;
          resilience ~scale;
          scaling ~scale ~jobs:!jobs ~out:!scaling_out;
          repr_bench ~scale ~out:!repr_out;
          warmstart ~scale ~jobs:!jobs ~out:!warmstart_out;
          micro ()
      | other -> Format.fprintf ppf "unknown experiment %S@." other)
    cmds
