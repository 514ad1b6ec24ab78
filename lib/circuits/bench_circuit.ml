open Rtlir
open Faultsim

type t = {
  name : string;
  paper_name : string;
  build : unit -> Design.t;
  paper_cycles : int;
  paper_faults : int;
  workload : Design.t -> cycles:int -> Workload.t;
}

(* [int_of_float] is unspecified outside the int range (and on NaN), so a
   scaled count that does not fit is rejected rather than wrapped. *)
let scaled what base ~scale =
  let x = float_of_int base *. scale in
  if x >= float_of_int min_int && x < float_of_int max_int then int_of_float x
  else
    raise
      (Workload.Invalid_workload
         (Printf.sprintf "scale %g gives a %s count that does not fit in an int"
            scale what))

let cycles_of c ~scale = max 50 (scaled "cycle" c.paper_cycles ~scale)
let faults_of c ~scale = max 20 (scaled "fault" c.paper_faults ~scale)

let random_workload ?(directed = [||]) ?(clock = "clk") ~seed design ~cycles =
  let clock = Design.find_signal design clock in
  let inputs =
    List.filter_map
      (fun id ->
        if id = clock then None
        else Some (id, Design.signal_width design id))
      design.Design.inputs
  in
  {
    Workload.cycles;
    clock;
    drive = Workload.random_drive ~seed ~inputs ~directed ();
  }

let instantiate c ~scale =
  let design = c.build () in
  let graph = Elaborate.build design in
  let workload = c.workload design ~cycles:(cycles_of c ~scale) in
  let faults =
    Fault.generate ~max_faults:(faults_of c ~scale) ~seed:0x5EEDL design
  in
  (design, graph, workload, faults)
