type counter = { mutable c_value : int }

type hist = {
  h_buckets : int array;  (* upper bound of bucket i is 2^i; last +inf *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_max : float;
}

type metric = Counter of counter | Hist of hist

let on_flag = Atomic.make false
let on () = Atomic.get on_flag
let enable () = Atomic.set on_flag true
let disable () = Atomic.set on_flag false

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let mu = Mutex.create ()

let reset () =
  Mutex.lock mu;
  Hashtbl.reset registry;
  Mutex.unlock mu

let nbuckets = 32

let bucket_of v =
  if Float.is_nan v || v <= 1.0 then 0
  else if v >= 1073741824.0 (* 2^30 *) then nbuckets - 1
  else begin
    (* smallest i with v <= 2^i *)
    let rec find i bound =
      if v <= bound then i else find (i + 1) (bound *. 2.0)
    in
    find 0 1.0
  end

let bucket_bound i = if i >= nbuckets - 1 then infinity else Float.of_int (1 lsl i)

let with_counter name f =
  Mutex.lock mu;
  (match Hashtbl.find_opt registry name with
  | Some (Counter c) -> f c
  | Some (Hist _) -> ()  (* name clash: first registration wins *)
  | None ->
      let c = { c_value = 0 } in
      Hashtbl.add registry name (Counter c);
      f c);
  Mutex.unlock mu

let with_hist name f =
  Mutex.lock mu;
  (match Hashtbl.find_opt registry name with
  | Some (Hist h) -> f h
  | Some (Counter _) -> ()
  | None ->
      let h =
        {
          h_buckets = Array.make nbuckets 0;
          h_count = 0;
          h_sum = 0.0;
          h_max = neg_infinity;
        }
      in
      Hashtbl.add registry name (Hist h);
      f h);
  Mutex.unlock mu

let add name n =
  if Atomic.get on_flag then with_counter name (fun c -> c.c_value <- c.c_value + n)

let observe name v =
  if Atomic.get on_flag then
    with_hist name (fun h ->
        let b = bucket_of v in
        h.h_buckets.(b) <- h.h_buckets.(b) + 1;
        h.h_count <- h.h_count + 1;
        h.h_sum <- h.h_sum +. v;
        if v > h.h_max then h.h_max <- v)

let merge_histogram name buckets ~count ~sum ~max =
  if Atomic.get on_flag && count > 0 then
    with_hist name (fun h ->
        Array.iteri
          (fun i n -> if i < nbuckets then h.h_buckets.(i) <- h.h_buckets.(i) + n)
          buckets;
        h.h_count <- h.h_count + count;
        h.h_sum <- h.h_sum +. sum;
        if max > h.h_max then h.h_max <- max)

let counter_value name =
  Mutex.lock mu;
  let r =
    match Hashtbl.find_opt registry name with
    | Some (Counter c) -> Some c.c_value
    | _ -> None
  in
  Mutex.unlock mu;
  r

let histogram_stats name =
  Mutex.lock mu;
  let r =
    match Hashtbl.find_opt registry name with
    | Some (Hist h) -> Some (h.h_count, h.h_sum, h.h_max)
    | _ -> None
  in
  Mutex.unlock mu;
  r

(* ---- export ---- *)

let float_json v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let to_json_string () =
  Mutex.lock mu;
  let entries =
    Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry []
  in
  Mutex.unlock mu;
  let entries =
    List.sort (fun (a, _) (b, _) -> String.compare a b) entries
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"metrics\":{";
  List.iteri
    (fun i (name, m) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "\"%s\":" (Json.escape name);
      match m with
      | Counter c ->
          Printf.bprintf buf "{\"type\":\"counter\",\"value\":%d}" c.c_value
      | Hist h ->
          Printf.bprintf buf
            "{\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"max\":%s,\"buckets\":["
            h.h_count (float_json h.h_sum)
            (float_json (if h.h_count = 0 then 0.0 else h.h_max));
          let first = ref true in
          Array.iteri
            (fun b n ->
              if n > 0 then begin
                if not !first then Buffer.add_char buf ',';
                first := false;
                Printf.bprintf buf "{\"le\":%s,\"count\":%d}"
                  (if b >= nbuckets - 1 then "\"inf\""
                   else string_of_int (1 lsl b))
                  n
              end)
            h.h_buckets;
          Buffer.add_string buf "]}")
    entries;
  Buffer.add_string buf "}}";
  Buffer.contents buf

let export_json oc =
  output_string oc (to_json_string ());
  output_char oc '\n'

let _ = bucket_bound
