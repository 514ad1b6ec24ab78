(* The committed perf trajectory (BENCH_perfbench.json at the repo root)
   stays readable and names only workloads the benchmark declares
   (BENCHMARK.json). *)
module J = Harness.Jsonl

(* Paths are relative to this test binary's directory (the build tree's
   test/), not to the working directory. *)
let read path =
  In_channel.with_open_bin
    (Filename.concat (Filename.dirname Sys.executable_name) path)
    In_channel.input_all

let test_entries_name_declared_workloads () =
  let declared =
    J.parse (read "../BENCHMARK.json")
    |> J.get_list "workloads"
    |> List.map (J.get_string "name")
  in
  let entries =
    J.parse (read "../BENCH_perfbench.json") |> J.get_list "entries"
  in
  if entries = [] then Alcotest.fail "no trajectory entries";
  List.iter
    (fun e ->
      let workload = J.get_string "workload" e in
      if not (List.mem workload declared) then
        Alcotest.failf "entry names undeclared workload %S" workload;
      ignore (J.get_int "seed" e);
      List.iter
        (fun k ->
          let v = J.get_float k e in
          if not (Float.is_finite v && v > 0.0) then
            Alcotest.failf "%s: %s is %g" workload k v)
        [ "parent_median"; "change_median" ];
      let won = J.get_int "pairs_won" e and pairs = J.get_int "pairs" e in
      if won < 0 || won > pairs then
        Alcotest.failf "%s: %d of %d pairs won" workload won pairs)
    entries

let suite =
  [
    Alcotest.test_case "perf trajectory names declared workloads" `Quick
      test_entries_name_declared_workloads;
  ]
