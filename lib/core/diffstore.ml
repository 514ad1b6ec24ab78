type i64a = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Slot states in [keys]: -1 empty, -2 tombstone, otherwise the key. *)
let empty_slot = -1
let tombstone = -2

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

(* Fibonacci-style multiplicative mix; stays positive via the final mask. *)
let[@inline] hash key = key * 0x2545F4914F6CDD1D

let capacity_for expect =
  (* load factor 1/2 at the expected population, 8 slots minimum *)
  next_pow2 (max 8 (2 * max 1 expect)) 8

(* Capacity for the rehash forced when live entries plus tombstones pass
   the 1/2 load limit of a [mask + 1]-slot table. Only live entries ask for
   more room: the table doubles once they fill a quarter of it, otherwise
   it rehashes at the same size and the tombstones are dropped. Either way
   at least a quarter of the slots is free again before the next rehash, so
   a table churned through many distinct keys stays sized by its live
   population, not by its insert history. *)
let grown_capacity ~count mask =
  let cap = mask + 1 in
  if 4 * count > cap then 2 * cap else cap

(* A cleared table shrinks back to its expected size once its capacity has
   outgrown it by this factor, so a one-off giant batch does not pin its
   high-water footprint for the rest of a campaign. *)
let shrink_factor = 16

type t = {
  mutable keys : int array;
  mutable vals : i64a;
  mutable mask : int;  (* capacity - 1 *)
  mutable count : int;  (* live entries *)
  mutable used : int;  (* live + tombstones *)
}

let make_vals cap =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout cap in
  Bigarray.Array1.fill a 0L;
  a

let create ~expect () =
  let cap = capacity_for expect in
  {
    keys = Array.make cap empty_slot;
    vals = make_vals cap;
    mask = cap - 1;
    count = 0;
    used = 0;
  }

(* Slot holding [key] in a probe sequence starting at [i], or -1 when
   absent. Top-level, so a lookup allocates no closure. *)
let rec probe_slot keys mask key i =
  let k = Array.unsafe_get keys i in
  if k = key then i
  else if k = empty_slot then -1
  else probe_slot keys mask key ((i + 1) land mask)

let find_slot t key = probe_slot t.keys t.mask key (hash key land t.mask)

let mem t key = find_slot t key >= 0

let find t key ~default =
  let i = find_slot t key in
  if i >= 0 then Bigarray.Array1.unsafe_get t.vals i else default

let rehash t cap =
  let okeys = t.keys and ovals = t.vals in
  let keys = Array.make cap empty_slot in
  let vals = make_vals cap in
  let mask = cap - 1 in
  for i = 0 to Array.length okeys - 1 do
    let k = Array.unsafe_get okeys i in
    if k >= 0 then begin
      let rec probe j =
        if Array.unsafe_get keys j = empty_slot then begin
          Array.unsafe_set keys j k;
          Bigarray.Array1.unsafe_set vals j (Bigarray.Array1.unsafe_get ovals i)
        end
        else probe ((j + 1) land mask)
      in
      probe (hash k land mask)
    end
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask;
  t.used <- t.count

let set t key v =
  if key < 0 then invalid_arg "Diffstore.set: negative key";
  let keys = t.keys and mask = t.mask in
  (* First pass: replace in place, or remember the first reusable slot. *)
  let rec probe i reuse =
    let k = Array.unsafe_get keys i in
    if k = key then Bigarray.Array1.unsafe_set t.vals i v
    else if k = empty_slot then begin
      let target = if reuse >= 0 then reuse else i in
      Array.unsafe_set keys target key;
      Bigarray.Array1.unsafe_set t.vals target v;
      t.count <- t.count + 1;
      if target = i then begin
        t.used <- t.used + 1;
        if 2 * t.used > mask then rehash t (grown_capacity ~count:t.count mask)
      end
    end
    else if k = tombstone then
      probe ((i + 1) land mask) (if reuse >= 0 then reuse else i)
    else probe ((i + 1) land mask) reuse
  in
  probe (hash key land mask) (-1)

let remove t key =
  let i = find_slot t key in
  if i >= 0 then begin
    t.keys.(i) <- tombstone;
    t.count <- t.count - 1
  end

module Counts = struct
  type t = {
    mutable keys : int array;
    mutable cnts : int array;
    mutable mask : int;
    mutable count : int;
    mutable used : int;
    base_cap : int;
  }

  let create ~expect () =
    let cap = capacity_for expect in
    {
      keys = Array.make cap empty_slot;
      cnts = Array.make cap 0;
      mask = cap - 1;
      count = 0;
      used = 0;
      base_cap = cap;
    }

  let length t = t.count
  let capacity t = Array.length t.keys

  let find_slot t key = probe_slot t.keys t.mask key (hash key land t.mask)

  let mem t key = find_slot t key >= 0

  let rehash t cap =
    let okeys = t.keys and ocnts = t.cnts in
    let keys = Array.make cap empty_slot in
    let cnts = Array.make cap 0 in
    let mask = cap - 1 in
    for i = 0 to Array.length okeys - 1 do
      let k = Array.unsafe_get okeys i in
      if k >= 0 then begin
        let rec probe j =
          if Array.unsafe_get keys j = empty_slot then begin
            Array.unsafe_set keys j k;
            Array.unsafe_set cnts j (Array.unsafe_get ocnts i)
          end
          else probe ((j + 1) land mask)
        in
        probe (hash k land mask)
      end
    done;
    t.keys <- keys;
    t.cnts <- cnts;
    t.mask <- mask;
    t.used <- t.count

  let bump t key delta =
    if key < 0 then invalid_arg "Diffstore.Counts.bump: negative key";
    let keys = t.keys and mask = t.mask in
    let rec probe i reuse =
      let k = Array.unsafe_get keys i in
      if k = key then begin
        let c = t.cnts.(i) + delta in
        if c <= 0 then begin
          keys.(i) <- tombstone;
          t.count <- t.count - 1
        end
        else t.cnts.(i) <- c
      end
      else if k = empty_slot then begin
        if delta > 0 then begin
          let target = if reuse >= 0 then reuse else i in
          Array.unsafe_set keys target key;
          Array.unsafe_set t.cnts target delta;
          t.count <- t.count + 1;
          if target = i then begin
            t.used <- t.used + 1;
            if 2 * t.used > mask then
              rehash t (grown_capacity ~count:t.count mask)
          end
        end
      end
      else if k = tombstone then
        probe ((i + 1) land mask) (if reuse >= 0 then reuse else i)
      else probe ((i + 1) land mask) reuse
    in
    probe (hash key land mask) (-1)

  let iter_keys t f =
    if t.count > 0 then begin
      let keys = t.keys in
      for i = 0 to Array.length keys - 1 do
        let k = Array.unsafe_get keys i in
        if k >= 0 then f k
      done
    end

  let clear t =
    if t.used > 0 then begin
      if Array.length t.keys > shrink_factor * t.base_cap then begin
        t.keys <- Array.make t.base_cap empty_slot;
        t.cnts <- Array.make t.base_cap 0;
        t.mask <- t.base_cap - 1
      end
      else Array.fill t.keys 0 (Array.length t.keys) empty_slot;
      t.count <- 0;
      t.used <- 0
    end
end
