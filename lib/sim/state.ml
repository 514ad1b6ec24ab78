open Rtlir

type i64a = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  nsig : int;
  sig_v : i64a;
  widths : int array;
  mem_v : i64a;
  mem_base : int array;
  mem_sizes : int array;
  mem_widths : int array;
}

let ba n : i64a =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0L;
  a

let create (d : Design.t) =
  let nsig = Design.num_signals d in
  let widths = Array.map (fun (s : Design.signal) -> s.width) d.signals in
  let nmem = Array.length d.mems in
  let mem_base = Array.make nmem 0 in
  let total = ref 0 in
  Array.iteri
    (fun m (mem : Design.mem) ->
      mem_base.(m) <- !total;
      total := !total + mem.size)
    d.mems;
  let mem_v = ba !total in
  Array.iteri
    (fun m (mem : Design.mem) ->
      match mem.init with
      | None -> ()
      | Some init ->
          Array.iteri
            (fun a v ->
              Bigarray.Array1.set mem_v (mem_base.(m) + a) (Bits.to_int64 v))
            init)
    d.mems;
  {
    nsig;
    sig_v = ba nsig;
    widths;
    mem_v;
    mem_base;
    mem_sizes = Array.map (fun (m : Design.mem) -> m.size) d.mems;
    mem_widths = Array.map (fun (m : Design.mem) -> m.data_width) d.mems;
  }

let get t id = Bigarray.Array1.unsafe_get t.sig_v id [@@inline]
let set t id v = Bigarray.Array1.unsafe_set t.sig_v id v [@@inline]

let get_mem t m a =
  Bigarray.Array1.unsafe_get t.mem_v (t.mem_base.(m) + a)
[@@inline]

let set_mem t m a v =
  Bigarray.Array1.unsafe_set t.mem_v (t.mem_base.(m) + a) v
[@@inline]

let width t id = t.widths.(id) [@@inline]
let mem_width t m = t.mem_widths.(m) [@@inline]
let mem_size t m = t.mem_sizes.(m) [@@inline]
let mem_words t = Bigarray.Array1.dim t.mem_v

let copy t =
  let sig_v = ba t.nsig in
  Bigarray.Array1.blit t.sig_v sig_v;
  let mem_v = ba (Bigarray.Array1.dim t.mem_v) in
  Bigarray.Array1.blit t.mem_v mem_v;
  { t with sig_v; mem_v }

let blit ~src ~dst =
  Bigarray.Array1.blit src.sig_v dst.sig_v;
  Bigarray.Array1.blit src.mem_v dst.mem_v
