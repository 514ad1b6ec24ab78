(* Command-line argument validation, driven through the built eraser
   binary: the exit code is the contract (0 success, 6 bad workload, 124
   cmdliner usage error). *)

let eraser = "../bin/eraser_cli.exe"

let exit_code args =
  Sys.command
    (Filename.quote_command eraser ~stdout:Filename.null
       ~stderr:Filename.null args)

let scale_case value expected =
  Alcotest.test_case
    (Printf.sprintf "--scale=%s exits %d" value expected)
    `Quick
    (fun () ->
      Alcotest.(check int)
        "exit code" expected
        (exit_code [ "run"; "-c"; "alu"; "--scale=" ^ value ]))

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
  ]
