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
    (* worker, warm-start and capture flags belong to campaign only *)
    case [ "run"; "-c"; "alu"; "--scale"; "0.05"; "-j"; "2" ] 124;
    case [ "run"; "-c"; "alu"; "--scale"; "0.05"; "--warmstart" ] 124;
    (* and campaign rejects their out-of-range values as bad workloads *)
    case [ "campaign"; "-c"; "alu"; "--scale"; "0.05"; "-j"; "0" ] 6;
    case
      [ "campaign"; "-c"; "alu"; "--scale"; "0.05"; "--capture-mem-limit=-1" ]
      6;
  ]
