(* Serial-oracle verdicts ([Baselines.Serial.vfsim]), computed once per
   (workload, seed), untimed, and cached as a text file keyed by a
   fingerprint of the design, stimulus and fault list, so a stale cache is
   recomputed rather than trusted. *)

open Faultsim

type t = { detected : bool array; cycle : int array }

let version = "perfbench-oracle-1"

let fingerprint (spec : Workloads.t) ~seed (i : Workloads.inputs) =
  let b = Buffer.create 65536 in
  Printf.bprintf b "%s %s %d %d\n" version spec.Workloads.name seed
    i.Workloads.w.Workload.cycles;
  Buffer.add_string b (Rtlir.Verilog.to_string i.Workloads.design);
  for c = 0 to i.Workloads.w.Workload.cycles - 1 do
    List.iter
      (fun (id, v) -> Printf.bprintf b "%d=%Lx," id (Rtlir.Bits.to_int64 v))
      (i.Workloads.w.Workload.drive c);
    Buffer.add_char b '\n'
  done;
  Array.iter
    (fun (f : Fault.t) ->
      Printf.bprintf b "%d.%d.%s\n" f.Fault.signal f.Fault.bit
        (match f.Fault.stuck with
        | Fault.Stuck_at_0 -> "0"
        | Fault.Stuck_at_1 -> "1"
        | Fault.Flip_at c -> "f" ^ string_of_int c))
    i.Workloads.faults;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Two contiguous halves on two domains: the oracle is the slow part of a
   fresh seed, and faults never interact. *)
let compute (i : Workloads.inputs) =
  let n = Array.length i.Workloads.faults in
  let run lo hi =
    let sub =
      Array.init (hi - lo) (fun k -> { i.Workloads.faults.(lo + k) with Fault.fid = k })
    in
    Baselines.Serial.vfsim i.Workloads.g i.Workloads.w sub
  in
  let half = n / 2 in
  let other = Domain.spawn (fun () -> run half n) in
  let a = run 0 half in
  let b = Domain.join other in
  { detected = Array.append a.Fault.detected b.Fault.detected;
    cycle = Array.append a.Fault.detection_cycle b.Fault.detection_cycle }

let path ~dir (spec : Workloads.t) ~seed =
  Filename.concat dir (Printf.sprintf "%s-seed%d.txt" spec.Workloads.name seed)

let save file ~fp o =
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  Printf.fprintf oc "%s %s %d\n" version fp (Array.length o.detected);
  Array.iteri
    (fun k d -> Printf.fprintf oc "%d %d\n" (Bool.to_int d) o.cycle.(k))
    o.detected;
  close_out oc;
  Sys.rename tmp file

(* [None] when absent, or recorded for other inputs. *)
let load file ~fp =
  if not (Sys.file_exists file) then None
  else
    In_channel.with_open_text file (fun ic ->
        match String.split_on_char ' ' (Option.value ~default:"" (In_channel.input_line ic)) with
        | [ v; f; n ] when v = version && f = fp ->
            let n = int_of_string n in
            let detected = Array.make n false and cycle = Array.make n (-1) in
            for k = 0 to n - 1 do
              Scanf.sscanf (Option.get (In_channel.input_line ic)) "%d %d"
                (fun d c ->
                  detected.(k) <- d = 1;
                  cycle.(k) <- c)
            done;
            Some { detected; cycle }
        | _ -> None)

(* Faults whose detected flag, or detection cycle when detected, differs
   from the oracle's. *)
let errors o ~detected ~cycle =
  let e = ref 0 in
  Array.iteri
    (fun k d ->
      if d <> o.detected.(k) || (d && cycle.(k) <> o.cycle.(k)) then incr e)
    detected;
  !e
