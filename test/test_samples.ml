(* The shipped sample Verilog designs: parse from source, verify against the
   serial oracle, and exercise the JSON report writer. *)
open Rtlir
open Faultsim
module H = Harness

let check = Alcotest.check
let bool_t = Alcotest.bool

(* dune runtest runs in the test directory, dune exec in the project root:
   try both spellings *)
let candidates name =
  [
    Filename.concat "../examples/sample_designs" name;
    Filename.concat "examples/sample_designs" name;
  ]

let read_source name =
  let path =
    match List.find_opt Sys.file_exists (candidates name) with
    | Some p -> p
    | None -> Alcotest.failf "sample %s not found" name
  in
  let ic = open_in path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  src

let load name = Verilog_parser.parse (read_source name)

let samples = [ "gray_counter.v"; "traffic_fsm.v"; "lfsr_checksum.v" ]

let campaign_case file =
  Alcotest.test_case (file ^ " campaign") `Quick (fun () ->
      let design = load file in
      let g = Elaborate.build design in
      let w =
        Circuits.Bench_circuit.random_workload ~seed:9L design ~cycles:400
      in
      let faults = Fault.generate ~max_faults:80 ~seed:2L design in
      let oracle = Baselines.Serial.ifsim g w faults in
      let r = Engine.Concurrent.run g w faults in
      check bool_t "matches oracle" true (Fault.same_verdict oracle r);
      check bool_t "detects something" true (Fault.count_detected r > 0))

let test_json () =
  let design = load "gray_counter.v" in
  let g = Elaborate.build design in
  let w = Circuits.Bench_circuit.random_workload ~seed:9L design ~cycles:200 in
  let faults = Fault.generate ~max_faults:30 ~seed:2L design in
  let verdicts = Classify.classify g faults in
  let r = Engine.Concurrent.run g w faults in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  H.Json_report.campaign ppf ~design ~engine:"Eraser" ~faults ~verdicts r;
  Format.pp_print_flush ppf ();
  let text = Buffer.contents buf in
  (* structural sanity: balanced braces/brackets, expected keys, one record
     per fault *)
  let count c = String.fold_left (fun n x -> if x = c then n + 1 else n) 0 text in
  check Alcotest.int "balanced braces" (count '{') (count '}');
  check Alcotest.int "balanced brackets" (count '[') (count ']');
  let contains needle =
    let nl = String.length needle and hl = String.length text in
    let rec scan i =
      i + nl <= hl && (String.sub text i nl = needle || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun k -> check bool_t k true (contains k))
    [
      "\"design\": \"gray_counter\""; "\"coverage_pct\""; "\"fault_list\"";
      "\"stuck-at-"; "\"class\"";
    ];
  (* and the report must actually parse as JSON, with one fault_list
     record per fault and the per-process skip table present *)
  let doc =
    try H.Jsonl.parse text
    with H.Jsonl.Parse_error m -> Alcotest.failf "unparseable report: %s" m
  in
  check Alcotest.int "one record per fault" (Array.length faults)
    (List.length (H.Jsonl.get_list "fault_list" doc));
  check bool_t "per_proc table present" true
    (H.Jsonl.get_list "per_proc" doc <> [])

(* Untrusted source fails typed: every mutant of a sample design (one
   byte replaced, a range deleted, or the text truncated) either parses
   or raises [Verilog_parser.Parse_error], never any other exception. *)
let mutants_per_sample = 1500

let mutate rng src =
  let n = String.length src in
  match Random.State.int rng 3 with
  | 0 ->
      let i = Random.State.int rng n in
      let c = Char.chr (Random.State.int rng 256) in
      ( Printf.sprintf "byte %d := %C" i c,
        String.mapi (fun j x -> if j = i then c else x) src )
  | 1 ->
      let i = Random.State.int rng n in
      let len = 1 + Random.State.int rng (min 40 (n - i)) in
      ( Printf.sprintf "delete %d..%d" i (i + len - 1),
        String.sub src 0 i ^ String.sub src (i + len) (n - i - len) )
  | _ ->
      let i = Random.State.int rng n in
      (Printf.sprintf "truncate at %d" i, String.sub src 0 i)

let test_mutants_fail_typed () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun name ->
      let src = read_source name in
      for _ = 1 to mutants_per_sample do
        let what, text = mutate rng src in
        match Verilog_parser.parse text with
        | _ | (exception Verilog_parser.Parse_error _) -> ()
        | exception e ->
            Alcotest.failf "%s, %s: parse raised %s" name what
              (Printexc.to_string e)
      done)
    samples

let suite =
  List.map campaign_case samples
  @ [
      Alcotest.test_case "json report" `Quick test_json;
      Alcotest.test_case "mutated sources fail typed" `Quick
        test_mutants_fail_typed;
    ]
