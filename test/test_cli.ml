(* Command-line argument validation, driven through the built eraser
   binary: the exit code is the contract (0 success, 6 bad workload, 124
   cmdliner usage error). *)

let eraser = "../bin/eraser_cli.exe"

let exit_code args =
  Sys.command
    (Filename.quote_command eraser ~stdout:Filename.null
       ~stderr:Filename.null args)

let case ?name args expected =
  let name = Option.value name ~default:(String.concat " " args) in
  Alcotest.test_case
    (Printf.sprintf "%s exits %d" name expected)
    `Quick
    (fun () -> Alcotest.(check int) "exit code" expected (exit_code args))

let scale_case value =
  let arg = "--scale=" ^ value in
  case ~name:arg [ "run"; "-c"; "alu"; arg ]

(* A reproducer record (the shape [eraser campaign --repro-dir] writes) as
   (field, raw JSON) pairs: replaying it as given reproduces the injected
   divergence. *)
let repro_fields =
  [
    ("type", {|"repro"|});
    ("version", "1");
    ("engine", {|"Eraser"|});
    ("circuit", {|{"name":"alu","scale":0.05}|});
    ("fault", {|{"id":3}|});
    ("ids", "[3]");
    ("cycles", "1");
    ("inject", "3");
    ("engine_detected", "true");
    ("engine_cycle", "0");
    ("oracle_detected", "false");
    ("oracle_cycle", "-1");
  ]

(* [repro_case name edit expected]: the record with [edit] applied to each
   field ([None] drops it), written to a temp file and replayed. *)
let repro_case name edit expected =
  Alcotest.test_case
    (Printf.sprintf "repro %s exits %d" name expected)
    `Quick
    (fun () ->
      let body =
        List.filter_map
          (fun (k, v) ->
            Option.map (Printf.sprintf "%S:%s" k) (edit k v))
          repro_fields
      in
      let file = Filename.temp_file "eraser_repro" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Out_channel.with_open_bin file (fun oc ->
              output_string oc ("{" ^ String.concat "," body ^ "}"));
          Alcotest.(check int) "exit code" expected
            (exit_code [ "repro"; file ])))

let drop field k v = if k = field then None else Some v
let set field x k v = Some (if k = field then x else v)

(* A path no subcommand can read, write or create: it sits under a regular
   file (the binary itself), so every attempt fails with ENOTDIR and leaves
   nothing behind. *)
let unusable name = Filename.concat eraser name

let sample = "../examples/sample_designs/gray_counter.v"

(* [verilog_case name text args expected]: [text] written to a temp file
   and run through run-verilog with [args]. *)
let verilog_case name text args expected =
  Alcotest.test_case
    (Printf.sprintf "run-verilog %s exits %d" name expected)
    `Quick
    (fun () ->
      let file = Filename.temp_file "eraser_design" ".v" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Out_channel.with_open_bin file (fun oc -> output_string oc text);
          Alcotest.(check int) "exit code" expected
            (exit_code ([ "run-verilog"; "-f"; file ] @ args))))

(* A register clocked by an input that is not called clk. *)
let ck_design =
  "module t(ck, d, q);\n  input ck;\n  input d;\n  output q;\n  reg r;\n\
  \  always @(posedge ck) r <= d;\n  assign q = r;\nendmodule\n"

(* An output path that cannot be written fails with exit 6 before any
   work: stdout carries no coverage line. *)
let early_output_case args =
  Alcotest.test_case
    (Printf.sprintf "%s exits 6 before running" (String.concat " " args))
    `Quick
    (fun () ->
      let out = Filename.temp_file "eraser_stdout" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out)
        (fun () ->
          let code =
            Sys.command
              (Filename.quote_command eraser ~stdout:out
                 ~stderr:Filename.null args)
          in
          Alcotest.(check int) "exit code" 6 code;
          let text = In_channel.with_open_bin out In_channel.input_all in
          let ran =
            List.exists
              (fun l ->
                String.length l >= 10
                && String.trim (String.sub l 0 10) = "coverage")
              (String.split_on_char '\n' text)
          in
          Alcotest.(check bool) "no coverage line" false ran))
let alu = [ "campaign"; "-c"; "alu"; "--scale"; "0.05" ]

let suite =
  [
    (* NaN, infinities and non-positive scales are usage errors *)
    scale_case "nan" 124;
    scale_case "inf" 124;
    scale_case "-inf" 124;
    scale_case "-1" 124;
    scale_case "0" 124;
    (* finite but too large: the scaled counts would overflow an int *)
    scale_case "1e30" 6;
    scale_case "0.05" 0;
    (* worker and warm-start flags belong to campaign only *)
    case [ "run"; "-c"; "alu"; "--scale"; "0.05"; "-j"; "2" ] 124;
    case [ "run"; "-c"; "alu"; "--scale"; "0.05"; "--warmstart" ] 124;
    (* and campaign rejects an out-of-range worker count as a bad workload *)
    case [ "campaign"; "-c"; "alu"; "--scale"; "0.05"; "-j"; "0" ] 6;
    (* malformed reproducer files are bad workloads, read in full before
       anything is replayed *)
    repro_case "well-formed" (fun _ v -> Some v) 0;
    repro_case "without fault" (drop "fault") 6;
    repro_case "with non-integer cycles" (set "cycles" {|"1"|}) 6;
    repro_case "with non-integer fault id" (set "fault" {|{"id":3.5}|}) 6;
    repro_case "without engine_detected" (drop "engine_detected") 6;
    repro_case "with scale 0" (set "circuit" {|{"name":"alu","scale":0}|}) 6;
    repro_case "with scale -1" (set "circuit" {|{"name":"alu","scale":-1}|}) 6;
    (* a NaN sampling rate is a bad workload, not a journal its own resume
       rejects *)
    case
      [ "campaign"; "-c"; "alu"; "--scale"; "0.05"; "--oracle-sample"; "nan" ]
      6;
    (* a path the user named that cannot be read or written, and a negative
       count, are bad workloads under every subcommand *)
    case [ "repro"; unusable "r.json" ] 6;
    case [ "run-verilog"; "-f"; unusable "d.v" ] 6;
    case [ "run-verilog"; "-f"; sample; "--cycles=-5" ] 6;
    case [ "run-verilog"; "-f"; sample; "--max-faults=-3" ] 6;
    case (alu @ [ "--journal"; unusable "j.jsonl" ]) 6;
    case (alu @ [ "--json"; unusable "r.json" ]) 6;
    case
      (alu
      @ [
          "--oracle-sample"; "1"; "--inject-divergence"; "3"; "--supervise";
          "--repro-dir"; unusable "repros";
        ])
      6;
    case [ "vcd"; "-c"; "alu"; "-o"; unusable "x.vcd" ] 6;
    case [ "vcd"; "-c"; "alu"; "--cycles=-4"; "-o"; Filename.null ] 6;
    (* untrusted Verilog text fails as a bad workload, and the clock must
       name an input *)
    verilog_case "with a parse error" "module m(; endmodule\n" [] 6;
    case [ "run-verilog"; "-f"; sample; "--clock"; "nope" ] 6;
    case [ "run-verilog"; "-f"; sample; "--clock"; "gray" ] 6;
    (* every output path is checked before the campaign runs *)
    early_output_case
      [ "run"; "-c"; "alu"; "--scale"; "0.05"; "--trace"; unusable "t.json" ];
    early_output_case
      [ "run"; "-c"; "alu"; "--scale"; "0.05"; "--metrics"; unusable "m.json" ];
    early_output_case
      [ "run"; "-c"; "alu"; "--scale"; "0.05"; "--json"; unusable "r.json" ];
    early_output_case (alu @ [ "--verdicts"; unusable "v.json" ]);
    early_output_case (alu @ [ "--trace"; unusable "t.json" ]);
    early_output_case (alu @ [ "--metrics"; Filename.dirname eraser ]);
    (* --clock may name any input *)
    verilog_case "with --clock ck" ck_design [ "--clock"; "ck"; "--cycles=20" ]
      0;
    (* a chaos rate outside [0, 1] is a bad workload, NaN included *)
    case [ "chaos"; "-c"; "alu"; "--scale"; "0.05"; "--rate"; "2" ] 6;
    case [ "chaos"; "-c"; "alu"; "--scale"; "0.05"; "--rate"; "nan" ] 6;
    case [ "chaos"; "-c"; "alu"; "--scale"; "0.05"; "--rate=-0.5" ] 6;
    case [ "faults"; "-c"; "alu"; "--scale"; "0.05"; "-n-3" ] 6;
  ]
