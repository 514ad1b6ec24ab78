(* Verilog frontend round-trip: for every benchmark circuit (and a sample
   of random designs), export to Verilog, parse it back, and require
   behavioural equivalence — identical good-simulation traces of every
   signal, and identical fault verdicts for the name-mapped fault list. *)
open Rtlir
open Sim
open Faultsim

let check = Alcotest.check
let bool_t = Alcotest.bool

let trace g (w : Workload.t) ~cycles names =
  let d = g.Elaborate.design in
  let sim = Simulator.create g in
  let out = ref [] in
  Workload.run { w with cycles }
    ~set_input:(fun id v -> Simulator.set_input sim id v)
    ~step:(fun () -> Simulator.step sim)
    ~observe:(fun _ ->
      out :=
        List.map (fun n -> Simulator.peek sim (Design.find_signal d n)) names
        :: !out;
      true);
  List.rev !out

let workload_by_name src_design (w : Workload.t) dst_design =
  (* re-target a workload's signal ids through names *)
  let map id =
    Design.find_signal dst_design (Design.signal_name src_design id)
  in
  {
    Workload.cycles = w.cycles;
    clock = map w.clock;
    drive =
      (fun c -> List.map (fun (id, v) -> (map id, v)) (w.Workload.drive c));
  }

let roundtrip_equiv name (design : Design.t) (w : Workload.t) ~cycles
    ~with_faults =
  let text = Verilog.to_string design in
  let reparsed =
    try Verilog_parser.parse text
    with Verilog_parser.Parse_error msg ->
      Alcotest.failf "%s: reparse failed: %s" name msg
  in
  let g1 = Elaborate.build design in
  let g2 = Elaborate.build reparsed in
  let w2 = workload_by_name design w reparsed in
  (* identical traces on every original signal *)
  let names =
    Array.to_list (Array.map (fun (s : Design.signal) -> s.name) design.signals)
  in
  let t1 = trace g1 w ~cycles names in
  let t2 = trace g2 w2 ~cycles names in
  if t1 <> t2 then begin
    (* locate the first divergence for the error message *)
    List.iteri
      (fun cyc (r1, r2) ->
        List.iteri
          (fun i (a, b) ->
            if not (Bits.equal a b) then
              Alcotest.failf "%s: cycle %d signal %s: %s vs %s" name cyc
                (List.nth names i) (Bits.to_string a) (Bits.to_string b))
          (List.combine r1 r2))
      (List.combine t1 t2)
  end;
  if with_faults then begin
    let faults1 =
      Fault.generate ~max_faults:60 ~seed:0xBEEFL design
    in
    let faults2 =
      Array.map
        (fun (f : Fault.t) ->
          {
            f with
            Fault.signal =
              Design.find_signal reparsed
                (Design.signal_name design f.signal);
          })
        faults1
    in
    let r1 =
      Engine.Concurrent.run g1 { w with cycles } faults1
    in
    let r2 = Engine.Concurrent.run g2 { w2 with cycles } faults2 in
    check bool_t (name ^ " fault verdicts survive round-trip") true
      (r1.Fault.detected = r2.Fault.detected)
  end

let circuit_case (c : Circuits.Bench_circuit.t) =
  Alcotest.test_case (c.name ^ " round-trips") `Quick (fun () ->
      let design, _, w, _ = Circuits.Bench_circuit.instantiate c ~scale:0.05 in
      roundtrip_equiv c.name design w ~cycles:(min 120 w.Workload.cycles)
        ~with_faults:true)

let test_random_designs () =
  for seed = 1 to 20 do
    let s =
      Harness.Rand_design.generate ~seed:(Int64.of_int (77_000 + seed)) ()
    in
    roundtrip_equiv
      (Printf.sprintf "rand%d" seed)
      s.Harness.Rand_design.design s.Harness.Rand_design.workload ~cycles:80
      ~with_faults:(seed mod 4 = 0)
  done

let test_handwritten_verilog () =
  (* a module written by hand, exercising Verilog-style sizing: the 9-bit
     sum of two 8-bit operands keeps its carry *)
  let src =
    {|
      // adder with carry and a mux
      module handmade(clk, a, b, sel, y, c);
        input clk;
        input [7:0] a, b;
        input sel;
        output [8:0] y;
        output c;
        reg [8:0] acc;
        wire [8:0] sum;
        assign sum = a + b;     /* context-extended to 9 bits */
        assign y = acc;
        assign c = acc[8];
        always @(posedge clk)
          if (sel)
            acc <= sum;
          else
            acc <= acc - 9'd1;
      endmodule
    |}
  in
  let d = Verilog_parser.parse src in
  let g = Elaborate.build d in
  let sim = Simulator.create g in
  let f n = Design.find_signal d n in
  let cycle a b sel =
    Simulator.set_input sim (f "a") (Bits.of_int 8 a);
    Simulator.set_input sim (f "b") (Bits.of_int 8 b);
    Simulator.set_input sim (f "sel") (Bits.of_int 1 sel);
    Simulator.set_input sim (f "clk") (Bits.one 1);
    Simulator.step sim;
    Simulator.set_input sim (f "clk") (Bits.zero 1);
    Simulator.step sim
  in
  cycle 200 100 1;
  check Alcotest.int "carry kept" 300
    (Int64.to_int (Bits.to_int64 (Simulator.peek sim (f "y"))));
  check bool_t "carry bit" true (Bits.is_true (Simulator.peek sim (f "c")));
  cycle 0 0 0;
  check Alcotest.int "decrement" 299
    (Int64.to_int (Bits.to_int64 (Simulator.peek sim (f "y"))))

let test_parse_errors () =
  let reject src =
    match Verilog_parser.parse src with
    | exception Verilog_parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted bad source: %s" src
  in
  reject "module m(; endmodule";
  reject "module m(); input [3:1] a; endmodule";
  reject "module m(); wire w; assign w = unknown_name; endmodule";
  reject
    "module m(); input clk; reg q; always @(posedge clk) q = 1'b1; endmodule";
  reject "module m(); wire w; assign w = 1'b0; assign w = 1'b1; endmodule";
  (* lexical errors and out-of-range literals are parse errors too *)
  reject "module m(); wire w; assign w = 4'q1; endmodule";
  reject "module m(); wire w; assign w = 1'";
  reject "module m(); wire w; assign w = 99999999999999999999999; endmodule";
  reject "module m(); wire w; assign v = 1'b1; endmodule";
  (match Verilog_parser.parse "module m();\n  wire w; # \nendmodule" with
  | exception Verilog_parser.Parse_error msg ->
      check Alcotest.string "lexical error carries its position"
        "line 2, column 11: unexpected character '#'" msg
  | _ -> Alcotest.fail "accepted a stray '#'")

let suite =
  List.map circuit_case Circuits.all
  @ [
      Alcotest.test_case "round-trip random designs" `Quick
        test_random_designs;
      Alcotest.test_case "handwritten module" `Quick test_handwritten_verilog;
      Alcotest.test_case "rejects bad source" `Quick test_parse_errors;
    ]
