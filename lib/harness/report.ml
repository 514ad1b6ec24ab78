let read_first_line path =
  try
    let ic = open_in path in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    Some line
  with Sys_error _ -> None

let cpu_model () =
  let model = ref "unknown CPU" in
  (try
     let ic = open_in "/proc/cpuinfo" in
     (try
        while true do
          let line = input_line ic in
          if String.length line > 10 && String.sub line 0 10 = "model name"
          then begin
            (match String.index_opt line ':' with
            | Some i ->
                model :=
                  String.trim (String.sub line (i + 1) (String.length line - i - 1))
            | None -> ());
            raise Exit
          end
        done
      with End_of_file | Exit -> ());
     close_in ic
   with Sys_error _ -> ());
  !model

let environment ppf () =
  Format.fprintf ppf "TABLE I: Evaluation Environment@.";
  Format.fprintf ppf "  CPU      | %s@." (cpu_model ());
  let os =
    match read_first_line "/etc/os-release" with
    | Some line -> line
    | None -> Sys.os_type
  in
  Format.fprintf ppf "  OS       | %s@." os;
  Format.fprintf ppf "  Compiler | OCaml %s (native)@." Sys.ocaml_version;
  Format.fprintf ppf
    "  Simulator| Eraser (this repo); IFsim / VFsim / Z01X-proxy (built-in \
     baselines)@."

let table2 ppf rows =
  Format.fprintf ppf "TABLE II: Benchmark Information@.";
  Format.fprintf ppf "  %-12s %9s %7s %7s | %16s@." "Benchmark" "#Stimulus"
    "#Cells" "#Faults" "Fault coverage(%)";
  Format.fprintf ppf "  %-12s %9s %7s %7s | %8s %8s@." "" "" "" "" "Eraser"
    "Oracle";
  List.iter
    (fun (r : Experiments.table2_row) ->
      Format.fprintf ppf "  %-12s %9d %7d %7d | %8.2f %8.2f%s@." r.t2_name
        r.t2_stimulus r.t2_cells r.t2_faults r.t2_cov_eraser r.t2_cov_oracle
        (if r.t2_cov_eraser = r.t2_cov_oracle then "" else "  <-- MISMATCH"))
    rows

let table3 ppf rows =
  Format.fprintf ppf
    "TABLE III: Proportion of Redundant Behavioral Node Executions@.";
  Format.fprintf ppf "  %-12s %11s %12s %12s %11s %11s@." "Benchmark"
    "TimeForBN(%)" "#TotalBNExec" "#Elimination" "Explicit(%)" "Implicit(%)";
  let avg_e = ref 0.0 and avg_i = ref 0.0 and n = ref 0 in
  List.iter
    (fun (r : Experiments.redundancy_row) ->
      avg_e := !avg_e +. r.r_explicit_pct;
      avg_i := !avg_i +. r.r_implicit_pct;
      incr n;
      Format.fprintf ppf "  %-12s %11.0f %12d %12d %11.0f %11.0f@." r.r_name
        r.r_bn_time_pct r.r_total_bn r.r_eliminated r.r_explicit_pct
        r.r_implicit_pct)
    rows;
  if !n > 0 then
    Format.fprintf ppf "  %-12s %11s %12s %12s %11.0f %11.0f@." "Average" "-"
      "-" "-"
      (!avg_e /. float_of_int !n)
      (!avg_i /. float_of_int !n)

let fig1b ppf rows =
  Format.fprintf ppf
    "Fig. 1(b): explicit vs implicit redundancy (share of faulty behavioral \
     executions)@.";
  List.iter
    (fun (name, e, i) ->
      Format.fprintf ppf "  %-12s explicit %5.1f%%  implicit %5.1f%%  \
                          (executed %5.1f%%)@."
        name e i
        (100.0 -. e -. i))
    rows

let perf ~title ppf rows =
  Format.fprintf ppf "%s@." title;
  match rows with
  | [] -> ()
  | first :: _ ->
      let engines = List.map fst first.Experiments.p_times in
      let base = List.hd engines in
      Format.fprintf ppf "  %-12s" "Benchmark";
      List.iter
        (fun e -> Format.fprintf ppf " %9s(s) %7s" (Campaign.engine_name e) "x")
        engines;
      Format.fprintf ppf "@.";
      List.iter
        (fun (r : Experiments.perf_row) ->
          Format.fprintf ppf "  %-12s" r.p_name;
          let tb = List.assoc base r.p_times in
          List.iter
            (fun e ->
              let t = List.assoc e r.p_times in
              Format.fprintf ppf " %12.3f %6.1fx" t (tb /. t))
            engines;
          Format.fprintf ppf "@.")
        rows;
      List.iter
        (fun e ->
          if e <> base then
            Format.fprintf ppf "  geomean speedup %s vs %s: %.1fx@."
              (Campaign.engine_name e)
              (Campaign.engine_name base)
              (Experiments.mean_speedup rows ~num:e ~den:base))
        engines
