type kind = Span | Counter | Instant

(* One preallocated slot of a ring. Recording mutates fields in place; the
   only per-event allocation would be the name, and names are string
   literals at every call site. *)
type event = {
  mutable e_kind : kind;
  mutable e_name : string;
  mutable e_ts : int;  (* µs since enable *)
  mutable e_dur : int;  (* µs, spans only *)
  mutable e_value : float;  (* counters only *)
}

type ring = {
  r_tid : int;
  mutable r_events : event array;
  mutable r_next : int;  (* monotone; live slots are the last [cap] *)
}

let on_flag = Atomic.make false
let on () = Atomic.get on_flag

let default_capacity = 65536
let cap_cfg = Atomic.make default_capacity
let epoch = Atomic.make 0.0

(* Registry of every ring, for the exporter, and the rings whose domain has
   exited, for the next new domain to take over (tid and events included),
   so the ring count is bounded by the peak number of live recording
   domains. The mutex guards only registration, release and enable/reset —
   never the recording fast path. *)
let rings : ring list ref = ref []
let free : ring list ref = ref []
let rings_mu = Mutex.create ()

let fresh_events cap =
  Array.init cap (fun _ ->
      { e_kind = Instant; e_name = ""; e_ts = 0; e_dur = 0; e_value = 0.0 })

let ring_key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock rings_mu;
      let r =
        match !free with
        | r :: rest ->
            free := rest;
            r
        | [] ->
            let r =
              {
                r_tid = List.length !rings;
                r_events = fresh_events (Atomic.get cap_cfg);
                r_next = 0;
              }
            in
            rings := r :: !rings;
            r
      in
      Mutex.unlock rings_mu;
      Domain.at_exit (fun () ->
          Mutex.lock rings_mu;
          free := r :: !free;
          Mutex.unlock rings_mu);
      r)

(* Resize and clear every registered ring. Callers hold [rings_mu]. Safe
   only during quiescence (no domain recording) — enable/reset are called
   before the instrumented run starts. *)
let resize_all cap =
  List.iter
    (fun r ->
      if Array.length r.r_events <> cap then r.r_events <- fresh_events cap;
      r.r_next <- 0)
    !rings

let enable ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.enable: capacity must be >= 1";
  Mutex.lock rings_mu;
  Atomic.set cap_cfg capacity;
  resize_all capacity;
  Atomic.set epoch (Unix.gettimeofday ());
  Mutex.unlock rings_mu;
  Atomic.set on_flag true

let disable () = Atomic.set on_flag false

let reset () =
  Mutex.lock rings_mu;
  resize_all (Atomic.get cap_cfg);
  Atomic.set epoch (Unix.gettimeofday ());
  Mutex.unlock rings_mu

let now_us () =
  int_of_float ((Unix.gettimeofday () -. Atomic.get epoch) *. 1e6)

let push kind name ts dur value =
  let r = Domain.DLS.get ring_key in
  let cap = Array.length r.r_events in
  let e = r.r_events.(r.r_next mod cap) in
  e.e_kind <- kind;
  e.e_name <- name;
  e.e_ts <- ts;
  e.e_dur <- dur;
  e.e_value <- value;
  r.r_next <- r.r_next + 1

let span_begin _name = if Atomic.get on_flag then now_us () else 0

let span_end name t0 =
  if Atomic.get on_flag then begin
    let t1 = now_us () in
    push Span name t0 (t1 - t0) 0.0
  end

let with_span name f =
  if Atomic.get on_flag then begin
    let t0 = now_us () in
    match f () with
    | v ->
        push Span name t0 (now_us () - t0) 0.0;
        v
    | exception e ->
        push Span name t0 (now_us () - t0) 0.0;
        raise e
  end
  else f ()

let counter name v = if Atomic.get on_flag then push Counter name (now_us ()) 0 v

let instant name = if Atomic.get on_flag then push Instant name (now_us ()) 0 0.0

(* ---- export ---- *)

let live_events r =
  let cap = Array.length r.r_events in
  let n = min r.r_next cap in
  let start = r.r_next - n in
  List.init n (fun i ->
      let e = r.r_events.((start + i) mod cap) in
      (r.r_tid, e.e_kind, e.e_name, e.e_ts, e.e_dur, e.e_value))

let snapshot () =
  Mutex.lock rings_mu;
  let rs = !rings in
  Mutex.unlock rings_mu;
  let evs = List.concat_map live_events rs in
  List.stable_sort
    (fun (tid_a, _, _, ts_a, _, _) (tid_b, _, _, ts_b, _, _) ->
      match compare ts_a ts_b with 0 -> compare tid_a tid_b | c -> c)
    evs

let event_count () =
  Mutex.lock rings_mu;
  let rs = !rings in
  Mutex.unlock rings_mu;
  List.fold_left
    (fun acc r -> acc + min r.r_next (Array.length r.r_events))
    0 rs

let to_chrome_string () =
  let pid = Unix.getpid () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i (tid, kind, name, ts, dur, value) ->
      if i > 0 then Buffer.add_char buf ',';
      (match kind with
      | Span ->
          Printf.bprintf buf
            "{\"name\":\"%s\",\"cat\":\"eraser\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":%d}"
            (Json.escape name) ts dur pid tid
      | Counter ->
          Printf.bprintf buf
            "{\"name\":\"%s\",\"cat\":\"eraser\",\"ph\":\"C\",\"ts\":%d,\"pid\":%d,\"tid\":%d,\"args\":{\"value\":%s}}"
            (Json.escape name) ts pid tid
            (if not (Float.is_finite value) then "null"
             else if Float.is_integer value && Float.abs value < 1e15 then
               Printf.sprintf "%.1f" value
             else Printf.sprintf "%.17g" value)
      | Instant ->
          Printf.bprintf buf
            "{\"name\":\"%s\",\"cat\":\"eraser\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%d,\"pid\":%d,\"tid\":%d}"
            (Json.escape name) ts pid tid))
    (snapshot ());
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let export_chrome oc =
  output_string oc (to_chrome_string ());
  output_char oc '\n'
