(* Reading back the tracer's Chrome [trace_event] document: spans and
   counters as flat records, per-name self time, and the wall time a span
   name covers. A small streaming scanner rather than a JSON tree — a
   traced campaign holds around a million events. *)

type ev = {
  name : string;
  ph : char;
  ts : int;  (** µs *)
  dur : int;  (** µs, spans only *)
  tid : int;
  value : float;  (** counters only *)
}

exception Bad of string

let events doc =
  let len = String.length doc in
  let pos = ref 0 in
  let names = Hashtbl.create 64 in
  let intern s =
    match Hashtbl.find_opt names s with
    | Some s -> s
    | None -> Hashtbl.add names s s; s
  in
  let peek () = if !pos < len then doc.[!pos] else raise (Bad "truncated") in
  let rec ws () =
    match peek () with ' ' | '\n' | '\t' | '\r' -> incr pos; ws () | _ -> ()
  in
  let expect c =
    ws ();
    if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          Buffer.add_char b doc.[!pos + 1];
          pos := !pos + 2;
          go ()
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let num () =
    ws ();
    let s = !pos in
    while !pos < len && String.contains "+-.0123456789eE" doc.[!pos] do incr pos done;
    float_of_string (String.sub doc s (!pos - s))
  in
  (* generic value, returned as a float when numeric (else nan) *)
  let rec value () =
    ws ();
    match peek () with
    | '"' -> ignore (str ()); Float.nan
    | '{' -> ignore (obj (fun _ -> ignore (value ()))); Float.nan
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then incr pos
        else begin
          ignore (value ());
          ws ();
          while peek () = ',' do incr pos; ignore (value ()); ws () done;
          expect ']'
        end;
        Float.nan
    | 't' -> pos := !pos + 4; Float.nan
    | 'f' -> pos := !pos + 5; Float.nan
    | 'n' -> pos := !pos + 4; Float.nan
    | _ -> num ()
  and obj field =
    expect '{';
    ws ();
    if peek () = '}' then incr pos
    else begin
      let one () =
        let k = str () in
        expect ':';
        field k
      in
      one ();
      ws ();
      while peek () = ',' do incr pos; one (); ws () done;
      expect '}'
    end
  in
  let out = ref [] in
  let event () =
    let name = ref "" and ph = ref ' ' and ts = ref 0 and dur = ref 0
    and tid = ref 0 and v = ref Float.nan in
    obj (function
      | "name" -> name := intern (str ())
      | "ph" -> ph := (str ()).[0]
      | "ts" -> ts := int_of_float (num ())
      | "dur" -> dur := int_of_float (num ())
      | "tid" -> tid := int_of_float (num ())
      | "args" -> obj (fun k -> let x = value () in if k = "value" then v := x)
      | _ -> ignore (value ()));
    out := { name = !name; ph = !ph; ts = !ts; dur = !dur; tid = !tid; value = !v } :: !out
  in
  obj (function
    | "traceEvents" ->
        expect '[';
        ws ();
        if peek () = ']' then incr pos
        else begin
          event ();
          ws ();
          while peek () = ',' do incr pos; event (); ws () done;
          expect ']'
        end
    | _ -> ignore (value ()));
  Array.of_list (List.rev !out)

let spans evs = List.filter (fun e -> e.ph = 'X') (Array.to_list evs)

(* Self time per span name: a span's duration minus what its direct
   children on the same domain cover. Returns (name, self seconds, count),
   largest self time first. *)
let self_times evs =
  let sp = Array.of_list (spans evs) in
  Array.stable_sort
    (fun a b ->
      match compare a.tid b.tid with
      | 0 -> (match compare a.ts b.ts with 0 -> compare b.dur a.dur | c -> c)
      | c -> c)
    sp;
  let self = Hashtbl.create 32 and count = Hashtbl.create 32 in
  let add tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  (* stack of open spans: (event, end) *)
  let stack = ref [] in
  let tid = ref (-1) in
  Array.iter
    (fun e ->
      if e.tid <> !tid then (stack := []; tid := e.tid);
      let rec pop () =
        match !stack with
        | (_, stop) :: rest when stop <= e.ts ->
            stack := rest; pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | (p, _) :: _ -> add self p.name (-e.dur)
      | [] -> ());
      add self e.name e.dur;
      add count e.name 1;
      stack := (e, e.ts + e.dur) :: !stack)
    sp;
  Hashtbl.fold (fun k v acc -> (k, float_of_int v *. 1e-6, Hashtbl.find count k) :: acc) self []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)

(* Seconds during which at least one span of this name is open, on any
   domain. *)
let covered evs name =
  let iv =
    List.filter_map
      (fun e -> if e.name = name then Some (e.ts, e.ts + e.dur) else None)
      (spans evs)
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        if b <= reach then (acc, reach)
        else (acc + b - max a reach, b))
      (0, min_int) iv
  in
  float_of_int total *. 1e-6

(* Sum over domains of each domain's last sample of a counter. *)
let last_counter evs name =
  let last = Hashtbl.create 4 in
  Array.iter
    (fun e -> if e.ph = 'C' && e.name = name then Hashtbl.replace last e.tid e.value)
    evs;
  Hashtbl.fold (fun _ v acc -> acc +. v) last 0.0
