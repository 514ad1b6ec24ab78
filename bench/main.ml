(* Paper-reproduction harness: regenerates every table and figure of the
   evaluation section.

     dune exec bench/main.exe                  # everything, default scale
     dune exec bench/main.exe -- fig6 --scale 0.5

   Scale multiplies the paper's per-circuit stimulus and fault counts
   (Table II); the committed reference outputs in EXPERIMENTS.md record the
   scale they were produced at. *)

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

let () =
  let scale = ref 0.5 in
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
      | cmd ->
          cmds := cmd :: !cmds;
          parse (i + 1)
  in
  (try parse 1
   with _ ->
     prerr_endline
       "usage: main [table1|table2|table3|fig1b|fig6|fig7] \
        [--scale S]");
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
      | "all" ->
          table1 ();
          table2 ~scale;
          fig1b ~scale;
          fig6 ~scale;
          fig7 ~scale;
          table3 ~scale
      | other -> Format.fprintf ppf "unknown experiment %S@." other)
    cmds
