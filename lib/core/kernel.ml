open Rtlir
open Flow
module A = Bigarray.Array1
module State = Sim.State

type i64a = (int64, Bigarray.int64_elt, Bigarray.c_layout) A.t

type t = { code : int array; regs : i64a; out : int; nreads : int }

type view = {
  st : State.t;
  diffs : Faultmap.t array;
  mem_diffs : Diffstore.t array;
  mem_fault_words : Diffstore.Counts.t array;
}

(* ---- operator semantics: Rtlir.Bitops, restated so that every call is
   inlined here and no int64 is boxed between operators ---- *)
let[@inline] get (regs : i64a) i = A.unsafe_get regs i
let[@inline] set (regs : i64a) i (x : int64) = A.unsafe_set regs i x

let[@inline] mask w =
  if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let[@inline] keep w v = Int64.logand v (mask w)

let[@inline] to_signed w v =
  if w = 64 then v
  else if Int64.logand v (Int64.shift_left 1L (w - 1)) <> 0L then
    Int64.logor v (Int64.lognot (mask w))
  else v

let[@inline] of_bool b = if b then 1L else 0L

(* Unsigned order: flipping the sign bit maps it onto the signed one. *)
let[@inline] ult (a : int64) (b : int64) =
  Int64.logxor a 0x8000000000000000L < Int64.logxor b 0x8000000000000000L

(* [Int64.unsigned_div], for a non-zero divisor. *)
let[@inline] udiv n d =
  if d < 0L then if ult n d then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    let r = Int64.sub n (Int64.mul q d) in
    if ult r d then q else Int64.add q 1L

let[@inline] urem n d = Int64.sub n (Int64.mul (udiv n d) d)
let[@inline] wrap v size = Int64.to_int (urem v (Int64.of_int size))

(* Shift amounts of 64 or more saturate. *)
let[@inline] shamt v = if ult v 64L then Int64.to_int v else 64

let[@inline] parity v =
  let v = Int64.logxor v (Int64.shift_right_logical v 32) in
  let v = Int64.logxor v (Int64.shift_right_logical v 16) in
  let v = Int64.logxor v (Int64.shift_right_logical v 8) in
  let v = Int64.logxor v (Int64.shift_right_logical v 4) in
  let v = Int64.logxor v (Int64.shift_right_logical v 2) in
  let v = Int64.logxor v (Int64.shift_right_logical v 1) in
  Int64.logand v 1L

(* Fault [f]'s value of signal [s]: its diff when it has one. *)
let[@inline] fault_sig diffs (sv : i64a) f s =
  let t = Array.unsafe_get diffs s in
  if t.Faultmap.count = 0 then A.unsafe_get sv s
  else
    let slot = Int32.to_int (A.unsafe_get t.Faultmap.pos f) in
    if slot >= 0 then A.unsafe_get t.Faultmap.vals slot else A.unsafe_get sv s

(* ---- instructions ----
   Five ints each: opcode, then operands. [d] is the destination register,
   [a] and [b] source registers and [w] the width the operator needs.

     0 sig    d s          d <- signal s (recorded by a recording good run)
     1 mem    d m a size   d <- memory m at a mod size (recorded as lnot m)
     2 jz     _ a target   jump when a = 0
     3 jmp    _ target     jump
     4 mov    d a
     5-9      d a _ w      not neg red_and red_or red_xor
     10-30    d a b w      add sub mul divu modu and or xor shl shru shra
                           eq neq ltu leu gtu geu lts les gts ges
     31 slice d a lo w     w = hi - lo + 1
     32 concat d a b lw    lw = width of b
     33 sext  d a from w

   Jumps only go forward, so a run executes each instruction at most
   once. *)
let unop_code = function
  | Expr.Not -> 5
  | Expr.Neg -> 6
  | Expr.Red_and -> 7
  | Expr.Red_or -> 8
  | Expr.Red_xor -> 9

let binop_code = function
  | Expr.Add -> 10
  | Expr.Sub -> 11
  | Expr.Mul -> 12
  | Expr.Divu -> 13
  | Expr.Modu -> 14
  | Expr.And -> 15
  | Expr.Or -> 16
  | Expr.Xor -> 17
  | Expr.Shl -> 18
  | Expr.Shru -> 19
  | Expr.Shra -> 20
  | Expr.Eq -> 21
  | Expr.Neq -> 22
  | Expr.Ltu -> 23
  | Expr.Leu -> 24
  | Expr.Gtu -> 25
  | Expr.Geu -> 26
  | Expr.Lts -> 27
  | Expr.Les -> 28
  | Expr.Gts -> 29
  | Expr.Ges -> 30

let compile ~sig_width ~mem_width ~mem_size e =
  let code = ref (Array.make 40 0) and len = ref 0 in
  let nregs = ref 0 and nreads = ref 0 and consts = ref [] in
  let fresh () =
    let r = !nregs in
    incr nregs;
    r
  in
  let emit op d a b c =
    if !len + 5 > Array.length !code then begin
      let bigger = Array.make (2 * Array.length !code) 0 in
      Array.blit !code 0 bigger 0 !len;
      code := bigger
    end;
    let at = !len in
    let c' = !code in
    c'.(at) <- op;
    c'.(at + 1) <- d;
    c'.(at + 2) <- a;
    c'.(at + 3) <- b;
    c'.(at + 4) <- c;
    len := at + 5
  in
  let wd e = Expr.width ~sig_width ~mem_width e in
  (* Compiles [e] and returns the register holding its value: [dst] when
     given, so both arms of a mux land in the mux's register. *)
  let rec go ?dst e =
    let into () = match dst with Some d -> d | None -> fresh () in
    match e with
    | Expr.Const b -> (
        let r = fresh () in
        consts := (r, Bits.to_int64 b) :: !consts;
        match dst with
        | None -> r
        | Some d ->
            emit 4 d r 0 0;
            d)
    | Expr.Sig s ->
        incr nreads;
        let d = into () in
        emit 0 d s 0 0;
        d
    | Expr.Zext (a, _) -> go ?dst a
    | Expr.Unop (op, a) ->
        let w = wd a in
        let ra = go a in
        let d = into () in
        emit (unop_code op) d ra 0 w;
        d
    | Expr.Binop (op, a, b) ->
        let w = wd a in
        let ra = go a in
        let rb = go b in
        let d = into () in
        emit (binop_code op) d ra rb w;
        d
    | Expr.Mux (sel, a, b) ->
        let rs = go sel in
        let d = into () in
        let jz = !len in
        emit 2 0 rs 0 0;
        ignore (go ~dst:d a);
        let jmp = !len in
        emit 3 0 0 0 0;
        !code.(jz + 3) <- !len;
        ignore (go ~dst:d b);
        !code.(jmp + 2) <- !len;
        d
    | Expr.Slice (a, hi, lo) ->
        let ra = go a in
        let d = into () in
        emit 31 d ra lo (hi - lo + 1);
        d
    | Expr.Concat (a, b) ->
        let lw = wd b in
        let ra = go a in
        let rb = go b in
        let d = into () in
        emit 32 d ra rb lw;
        d
    | Expr.Sext (a, w) ->
        let from = wd a in
        let ra = go a in
        let d = into () in
        emit 33 d ra from w;
        d
    | Expr.Mem_read (m, addr) ->
        incr nreads;
        let ra = go addr in
        let d = into () in
        emit 1 d m ra (mem_size m);
        d
  in
  let out = go e in
  let regs = A.create Bigarray.int64 Bigarray.c_layout (max 1 !nregs) in
  A.fill regs 0L;
  List.iter (fun (r, v) -> A.set regs r v) !consts;
  { code = Array.sub !code 0 !len; regs; out; nreads = !nreads }

(* The one interpreter loop: good mode when [f < 0], fault [f] otherwise.
   A good run records its reads into [path] from [off] on, unless [off] is
   negative. Returns the count of recorded reads. *)
let run t v f path off =
  let code = t.code and regs = t.regs in
  let st = v.st in
  let sv = st.State.sig_v and mv = st.State.mem_v in
  let len = Array.length code in
  let pc = ref 0 and n = ref 0 in
  while !pc < len do
    let i = !pc in
    let d = Array.unsafe_get code (i + 1)
    and a = Array.unsafe_get code (i + 2)
    and b = Array.unsafe_get code (i + 3)
    and w = Array.unsafe_get code (i + 4) in
    pc := i + 5;
    match Array.unsafe_get code i with
    | 0 ->
        if f < 0 then begin
          if off >= 0 then begin
            path.(off + !n) <- a;
            incr n
          end;
          set regs d (A.unsafe_get sv a)
        end
        else set regs d (fault_sig v.diffs sv f a)
    | 1 ->
        let addr = wrap (get regs b) w in
        let idx = Array.unsafe_get st.State.mem_base a + addr in
        if f < 0 then begin
          if off >= 0 then begin
            path.(off + !n) <- lnot a;
            incr n
          end;
          set regs d (A.unsafe_get mv idx)
        end
        else if Diffstore.Counts.mem (Array.unsafe_get v.mem_fault_words a) f
        then
          set regs d
            (Diffstore.find
               (Array.unsafe_get v.mem_diffs a)
               ((f * w) + addr)
               ~default:(A.unsafe_get mv idx))
        else set regs d (A.unsafe_get mv idx)
    | 2 -> if get regs a = 0L then pc := b
    | 3 -> pc := a
    | 4 -> set regs d (get regs a)
    | 5 -> set regs d (keep w (Int64.lognot (get regs a)))
    | 6 -> set regs d (keep w (Int64.neg (get regs a)))
    | 7 -> set regs d (of_bool (get regs a = mask w))
    | 8 -> set regs d (of_bool (get regs a <> 0L))
    | 9 -> set regs d (parity (get regs a))
    | 10 -> set regs d (keep w (Int64.add (get regs a) (get regs b)))
    | 11 -> set regs d (keep w (Int64.sub (get regs a) (get regs b)))
    | 12 -> set regs d (keep w (Int64.mul (get regs a) (get regs b)))
    | 13 ->
        let y = get regs b in
        set regs d (if y = 0L then mask w else udiv (get regs a) y)
    | 14 ->
        let x = get regs a and y = get regs b in
        set regs d (if y = 0L then x else urem x y)
    | 15 -> set regs d (Int64.logand (get regs a) (get regs b))
    | 16 -> set regs d (Int64.logor (get regs a) (get regs b))
    | 17 -> set regs d (Int64.logxor (get regs a) (get regs b))
    | 18 ->
        let s = shamt (get regs b) in
        set regs d
          (if s >= w then 0L else keep w (Int64.shift_left (get regs a) s))
    | 19 ->
        let s = shamt (get regs b) in
        set regs d
          (if s >= w then 0L else Int64.shift_right_logical (get regs a) s)
    | 20 ->
        let s = shamt (get regs b) in
        let x = to_signed w (get regs a) in
        set regs d (keep w (Int64.shift_right x (if s >= 64 then 63 else s)))
    | 21 -> set regs d (of_bool (get regs a = get regs b))
    | 22 -> set regs d (of_bool (get regs a <> get regs b))
    | 23 -> set regs d (of_bool (ult (get regs a) (get regs b)))
    | 24 -> set regs d (of_bool (not (ult (get regs b) (get regs a))))
    | 25 -> set regs d (of_bool (ult (get regs b) (get regs a)))
    | 26 -> set regs d (of_bool (not (ult (get regs a) (get regs b))))
    | 27 ->
        set regs d
          (of_bool (to_signed w (get regs a) < to_signed w (get regs b)))
    | 28 ->
        set regs d
          (of_bool (to_signed w (get regs a) <= to_signed w (get regs b)))
    | 29 ->
        set regs d
          (of_bool (to_signed w (get regs a) > to_signed w (get regs b)))
    | 30 ->
        set regs d
          (of_bool (to_signed w (get regs a) >= to_signed w (get regs b)))
    | 31 -> set regs d (keep w (Int64.shift_right_logical (get regs a) b))
    | 32 ->
        set regs d
          (Int64.logor (Int64.shift_left (get regs a) w) (get regs b))
    | _ -> set regs d (keep w (to_signed b (get regs a)))
  done;
  !n

let eval_good t v ~path ~off = run t v (-1) path off

let eval_fault t v f ~target =
  ignore (run t v f [||] 0 : int);
  get t.regs t.out <> fault_sig v.diffs v.st.State.sig_v f target

(* ---- behavioral bodies ----
   A body is its CFG with every expression compiled to a program: each
   statement's right-hand side (a memory write's address and data), each
   selector, and each memory-read site the walk checks. *)

type sink = {
  blocking : int -> int -> t -> unit;
  nonblocking : int -> int -> t -> unit;
  mem_write : int -> int -> int -> t -> unit;
}

type stmt =
  | Blocking of int * t
  | Nonblocking of int * t
  | Mem_write of { mem : int; size : int; addr : t; data : t }

(* A case's distinct label payloads, ascending, with the index of each
   one's first arm: a binary search picks the target. Labels share the
   scrutinee's width (design validation), so payload equality is full
   equality. *)
type chooser = If | Case of { keys : i64a; first : int array }
type decision = { sel : t; chooser : chooser; targets : int array }
type node = Seg of stmt array * int | Dec of decision | Exit

(* What the walk checks at one node. Reads split by whether the body
   blocking-writes them anywhere; "local ids" number the body's blocking
   targets, so the written set is one byte per target. A memory-read site
   is the program of its [Mem_read], with the local ids its address
   reads. *)
type site = { word : t; addr_locals : int array }

type dep = {
  ext_reads : int array;  (* reads the body never blocking-writes *)
  local_reads : int array;  (* reads it may blocking-write ... *)
  local_read_ids : int array;  (* ... and their local ids *)
  sites : site array;
  local_writes : int array;  (* blocking targets, as local ids *)
}

type body = {
  nodes : node array;  (* by CFG node id *)
  entry : int;
  deps : dep array;  (* by CFG node id *)
  next : int array;  (* the VDG's successors, empty segments skipped *)
  interesting : bool array;
  written : Bytes.t;  (* the walk's written set, by local id *)
  decisions : int array;
}

(* Sorted by payload, then by arm, so each payload's first entry names
   its first arm. *)
let rec first_arms = function
  | (k, i) :: (k', _) :: rest when k = k' -> first_arms ((k, i) :: rest)
  | e :: rest -> e :: first_arms rest
  | [] -> []

let chooser_of = function
  | None -> If
  | Some labels ->
      let by_key = List.mapi (fun i l -> (Bits.to_int64 l, i)) in
      let arms =
        first_arms (List.sort compare (by_key (Array.to_list labels)))
      in
      Case
        {
          keys =
            A.of_array Bigarray.int64 Bigarray.c_layout
              (Array.of_list (List.map fst arms));
          first = Array.of_list (List.map snd arms);
        }

let body ~sig_width ~mem_width ~mem_size stmt =
  let cfg = Cfg.build stmt in
  let vdg = Vdg.build cfg in
  let compile = compile ~sig_width ~mem_width ~mem_size in
  let local_id = Hashtbl.create 16 in
  List.iteri
    (fun i id -> Hashtbl.add local_id id i)
    (Stmt.blocking_writes stmt);
  let locals ids =
    Array.of_list (List.filter_map (Hashtbl.find_opt local_id) ids)
  in
  let dep reads sites writes =
    let local, ext = List.partition (Hashtbl.mem local_id) reads in
    {
      ext_reads = Array.of_list ext;
      local_reads = Array.of_list local;
      local_read_ids = locals local;
      sites =
        Array.map
          (fun (m, addr) ->
            {
              word = compile (Expr.Mem_read (m, addr));
              addr_locals = locals (Expr.read_signals addr);
            })
          sites;
      local_writes = locals writes;
    }
  in
  let stmt_of = function
    | Stmt.Assign (s, e) -> Some (Blocking (s, compile e))
    | Stmt.Nonblock (s, e) -> Some (Nonblocking (s, compile e))
    | Stmt.Mem_write (mem, addr, data) ->
        let addr = compile addr and data = compile data in
        Some (Mem_write { mem; size = mem_size mem; addr; data })
    | Stmt.Skip -> None
    | Stmt.Block _ | Stmt.If _ | Stmt.Case _ ->
        invalid_arg "Kernel.body: control statement in a segment"
  in
  let nodes =
    Array.map
      (function
        | Cfg.Segment s ->
            Seg (Array.of_list (List.filter_map stmt_of s.stmts), s.succ)
        | Cfg.Decision d ->
            Dec
              {
                sel = compile d.selector;
                chooser = chooser_of d.labels;
                targets = d.targets;
              }
        | Cfg.Exit -> Exit)
      cfg.nodes
  in
  let deps =
    Array.map
      (function
        | Cfg.Segment s ->
            dep (Array.to_list s.reads) s.mem_sites (Array.to_list s.blocking)
        | Cfg.Decision d -> dep (Array.to_list d.sel_reads) d.sel_mem_sites []
        | Cfg.Exit -> dep [] [||] [])
      cfg.nodes
  in
  let decisions = ref [] in
  Array.iteri
    (fun i n -> match n with Dec _ -> decisions := i :: !decisions | _ -> ())
    nodes;
  {
    nodes;
    entry = cfg.entry;
    deps;
    next = vdg.Vdg.next;
    interesting = vdg.Vdg.interesting;
    written = Bytes.make (Hashtbl.length local_id) '\000';
    decisions = Array.of_list (List.rev !decisions);
  }

let node_count b = Array.length b.nodes
let decisions b = b.decisions

let store v f sink = function
  | Blocking (s, p) ->
      ignore (run p v f [||] (-1) : int);
      sink.blocking f s p
  | Nonblocking (s, p) ->
      ignore (run p v f [||] (-1) : int);
      sink.nonblocking f s p
  | Mem_write { mem; size; addr; data } ->
      ignore (run addr v f [||] (-1) : int);
      let a = wrap (get addr.regs addr.out) size in
      ignore (run data v f [||] (-1) : int);
      sink.mem_write f mem a data

let choice d v f =
  let p = d.sel in
  ignore (run p v f [||] (-1) : int);
  let x = get p.regs p.out in
  match d.chooser with
  | If -> if x <> 0L then 0 else 1
  | Case { keys; first } ->
      let lo = ref 0 and hi = ref (A.dim keys) in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if A.unsafe_get keys mid < x then lo := mid + 1 else hi := mid
      done;
      if !lo < A.dim keys && A.unsafe_get keys !lo = x then first.(!lo)
      else Array.length d.targets - 1

let rec exec b v f record sink cur =
  match b.nodes.(cur) with
  | Exit -> ()
  | Seg (stmts, succ) ->
      for i = 0 to Array.length stmts - 1 do
        store v f sink stmts.(i)
      done;
      exec b v f record sink succ
  | Dec d ->
      let c = choice d v f in
      if Array.length record > 0 then record.(cur) <- c;
      exec b v f record sink d.targets.(c)

let exec_good b v ~record sink = exec b v (-1) record sink b.entry
let exec_fault b v f sink = exec b v f [||] sink b.entry

(* ---- Algorithm 1: the implicit-redundancy walk ----
   Top-level functions over explicit arguments, and a written set
   preallocated in the body, so a walk allocates nothing. A body without
   blocking writes walks with an empty set and finds no local read
   anywhere. *)

(* A stored diff always differs from the good value, so visibility is
   membership. *)
let[@inline] visible v f s =
  let t = Array.unsafe_get v.diffs s in
  t.Faultmap.count > 0 && Int32.to_int (A.unsafe_get t.Faultmap.pos f) >= 0

let rec any_written written ids i =
  i < Array.length ids
  && (Bytes.get written ids.(i) <> '\000' || any_written written ids (i + 1))

let rec ext_clean v f ids i =
  i >= Array.length ids
  || ((not (visible v f ids.(i))) && ext_clean v f ids (i + 1))

(* Local reads count only while no earlier segment on the path has
   written them. *)
let rec locals_clean v f written d i =
  i >= Array.length d.local_reads
  || (Bytes.get written d.local_read_ids.(i) <> '\000'
     || not (visible v f d.local_reads.(i)))
     && locals_clean v f written d (i + 1)

let reads_clean v f written d =
  ext_clean v f d.ext_reads 0 && locals_clean v f written d 0

(* The site's address reads were checked invisible, so the good and the
   faulty run read the same word address; one reading a local write
   cannot be recomputed against pre-execution state. *)
let same_word v f p =
  ignore (run p v (-1) [||] (-1) : int);
  let good = get p.regs p.out in
  ignore (run p v f [||] (-1) : int);
  get p.regs p.out = good

let rec sites_clean v f written sites i =
  i >= Array.length sites
  ||
  let s = sites.(i) in
  (not (any_written written s.addr_locals 0))
  && same_word v f s.word
  && sites_clean v f written sites (i + 1)

let rec walk b v f choices visited cur =
  incr visited;
  match b.nodes.(cur) with
  | Exit -> true
  | Dec d ->
      let gc = choices.(cur) and dep = b.deps.(cur) in
      (if any_written b.written dep.local_read_ids 0 then
         reads_clean v f b.written dep && sites_clean v f b.written dep.sites 0
       else choice d v f = gc)
      && walk b v f choices visited d.targets.(gc)
  | Seg _ when not b.interesting.(cur) ->
      walk b v f choices visited b.next.(cur)
  | Seg _ ->
      let dep = b.deps.(cur) in
      reads_clean v f b.written dep
      && sites_clean v f b.written dep.sites 0
      &&
      let w = dep.local_writes in
      for i = 0 to Array.length w - 1 do
        Bytes.set b.written w.(i) '\001'
      done;
      walk b v f choices visited b.next.(cur)

let redundant b v f ~choices ~visited =
  Bytes.fill b.written 0 (Bytes.length b.written) '\000';
  walk b v f choices visited b.entry
