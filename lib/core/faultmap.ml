type i32a = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type i64a = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

module A = Bigarray.Array1

type t = {
  nkeys : int;
  mutable pos : i32a;
      (* by key: its slot in [keys]/[vals], or -1. Empty until the first
         [set]; [count > 0] implies it is allocated. *)
  mutable keys : int array;  (* slots [0, count) hold the live keys *)
  mutable vals : i64a;
  mutable count : int;
}

let no_pos : i32a = A.create Bigarray.int32 Bigarray.c_layout 0
let no_vals : i64a = A.create Bigarray.int64 Bigarray.c_layout 0

let create ~nkeys =
  { nkeys; pos = no_pos; keys = [||]; vals = no_vals; count = 0 }

let is_empty t = t.count = 0

(* Slot of [key], or -1. The position index is read only once an entry
   exists, so an unallocated index is never touched. *)
let[@inline] slot t key =
  if t.count = 0 then -1 else Int32.to_int (A.unsafe_get t.pos key)

let mem t key = slot t key >= 0

let find t key ~default =
  let s = slot t key in
  if s >= 0 then A.unsafe_get t.vals s else default

let out_of_range t key fn =
  invalid_arg
    (Printf.sprintf "Faultmap.%s: key %d outside [0, %d)" fn key t.nkeys)

let grow t =
  let n = t.count in
  let cap = min t.nkeys (max 8 (2 * n)) in
  let keys = Array.make cap 0 in
  Array.blit t.keys 0 keys 0 n;
  let vals = A.create Bigarray.int64 Bigarray.c_layout cap in
  A.blit (A.sub t.vals 0 n) (A.sub vals 0 n);
  t.keys <- keys;
  t.vals <- vals

let set t key v =
  if key < 0 || key >= t.nkeys then out_of_range t key "set";
  if A.dim t.pos = 0 then begin
    let pos = A.create Bigarray.int32 Bigarray.c_layout t.nkeys in
    A.fill pos (-1l);
    t.pos <- pos
  end;
  let s = Int32.to_int (A.unsafe_get t.pos key) in
  if s >= 0 then A.unsafe_set t.vals s v
  else begin
    let n = t.count in
    if n = Array.length t.keys then grow t;
    Array.unsafe_set t.keys n key;
    A.unsafe_set t.vals n v;
    A.unsafe_set t.pos key (Int32.of_int n);
    t.count <- n + 1
  end

(* Swap-with-last: the last entry moves into the freed slot. *)
let remove t key =
  if key < 0 || key >= t.nkeys then out_of_range t key "remove";
  let s = slot t key in
  if s >= 0 then begin
    let last = t.count - 1 in
    if s < last then begin
      let k = Array.unsafe_get t.keys last in
      Array.unsafe_set t.keys s k;
      A.unsafe_set t.vals s (A.unsafe_get t.vals last);
      A.unsafe_set t.pos k (Int32.of_int s)
    end;
    A.unsafe_set t.pos key (-1l);
    t.count <- last
  end

let clear t =
  for i = 0 to t.count - 1 do
    A.unsafe_set t.pos (Array.unsafe_get t.keys i) (-1l)
  done;
  t.count <- 0

let iter t f =
  for i = 0 to t.count - 1 do
    f (Array.unsafe_get t.keys i) (A.unsafe_get t.vals i)
  done

let iter_keys t f =
  for i = 0 to t.count - 1 do
    f (Array.unsafe_get t.keys i)
  done
