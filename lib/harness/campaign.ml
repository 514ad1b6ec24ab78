type engine = Ifsim | Vfsim | Z01x_proxy | Eraser_mm | Eraser_m | Eraser

let engine_name = function
  | Ifsim -> "IFsim"
  | Vfsim -> "VFsim"
  | Z01x_proxy -> "Z01X*"
  | Eraser_mm -> "Eraser--"
  | Eraser_m -> "Eraser-"
  | Eraser -> "Eraser"

let all_engines = [ Ifsim; Vfsim; Z01x_proxy; Eraser_mm; Eraser_m; Eraser ]

let concurrent_mode = function
  | Z01x_proxy | Eraser_m -> Engine.Concurrent.Explicit_only
  | Eraser_mm -> Engine.Concurrent.No_redundancy
  | Eraser -> Engine.Concurrent.Full
  | Ifsim | Vfsim -> invalid_arg "concurrent_mode"

let config_of ~instrument engine =
  {
    Engine.Concurrent.default_config with
    mode = concurrent_mode engine;
    instrument;
  }

let renumber faults ids =
  Array.mapi (fun i id -> { faults.(id) with Faultsim.Fault.fid = i }) ids

(* The one engine-dispatch point: every execution path — whole campaigns,
   resilient batches, retries, quarantine singletons — routes an
   (engine, fault-id subset) through here. Serial baselines renumber the
   subset themselves; concurrent engines renumber through [?ids], which
   keeps verdict indexes aligned with [ids]. *)
let dispatch ?(instrument = false) ?config ?probe ?goodtrace
    ?instance engine (g : Rtlir.Elaborate.t) w faults ~ids =
  match engine with
  | Ifsim -> Baselines.Serial.ifsim g w (renumber faults ids)
  | Vfsim -> Baselines.Serial.vfsim g w (renumber faults ids)
  | e ->
      let config =
        match config with Some c -> c | None -> config_of ~instrument e
      in
      Engine.Concurrent.run ~config ?probe ?goodtrace ?instance ~ids g w
        faults

let run ?instrument engine g w faults =
  let open Faultsim in
  let t0 = Stats.now () in
  let r =
    dispatch ?instrument engine g w faults
      ~ids:(Array.init (Array.length faults) Fun.id)
  in
  let wall = Stats.now () -. t0 in
  r.Fault.stats.Stats.total_seconds <- wall;
  { r with Fault.wall_time = wall }
