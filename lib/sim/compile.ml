open Rtlir
open Flow

type compiled_expr = Access.reader -> Bits.t

let rec expr ~mem_size e : compiled_expr =
  let compile = expr ~mem_size in
  match e with
  | Expr.Const b -> fun _ -> b
  | Expr.Sig id -> fun r -> r.Access.get id
  | Expr.Unop (op, a) -> (
      let ca = compile a in
      match op with
      | Expr.Not -> fun r -> Bits.lognot (ca r)
      | Expr.Neg -> fun r -> Bits.neg (ca r)
      | Expr.Red_and -> fun r -> Bits.reduce_and (ca r)
      | Expr.Red_or -> fun r -> Bits.reduce_or (ca r)
      | Expr.Red_xor -> fun r -> Bits.reduce_xor (ca r))
  | Expr.Binop (op, a, b) -> (
      let ca = compile a and cb = compile b in
      match op with
      | Expr.Add -> fun r -> Bits.add (ca r) (cb r)
      | Expr.Sub -> fun r -> Bits.sub (ca r) (cb r)
      | Expr.Mul -> fun r -> Bits.mul (ca r) (cb r)
      | Expr.Divu -> fun r -> Bits.divu (ca r) (cb r)
      | Expr.Modu -> fun r -> Bits.modu (ca r) (cb r)
      | Expr.And -> fun r -> Bits.logand (ca r) (cb r)
      | Expr.Or -> fun r -> Bits.logor (ca r) (cb r)
      | Expr.Xor -> fun r -> Bits.logxor (ca r) (cb r)
      | Expr.Shl -> fun r -> Bits.shift_left (ca r) (cb r)
      | Expr.Shru -> fun r -> Bits.shift_right (ca r) (cb r)
      | Expr.Shra -> fun r -> Bits.shift_right_arith (ca r) (cb r)
      | Expr.Eq -> fun r -> Bits.eq (ca r) (cb r)
      | Expr.Neq -> fun r -> Bits.neq (ca r) (cb r)
      | Expr.Ltu -> fun r -> Bits.ltu (ca r) (cb r)
      | Expr.Leu -> fun r -> Bits.leu (ca r) (cb r)
      | Expr.Gtu -> fun r -> Bits.gtu (ca r) (cb r)
      | Expr.Geu -> fun r -> Bits.geu (ca r) (cb r)
      | Expr.Lts -> fun r -> Bits.lts (ca r) (cb r)
      | Expr.Les -> fun r -> Bits.les (ca r) (cb r)
      | Expr.Gts -> fun r -> Bits.gts (ca r) (cb r)
      | Expr.Ges -> fun r -> Bits.ges (ca r) (cb r))
  | Expr.Mux (sel, a, b) ->
      let cs = compile sel and ca = compile a and cb = compile b in
      fun r -> if Bits.is_true (cs r) then ca r else cb r
  | Expr.Slice (a, hi, lo) ->
      let ca = compile a in
      fun r -> Bits.slice (ca r) ~hi ~lo
  | Expr.Concat (a, b) ->
      let ca = compile a and cb = compile b in
      fun r -> Bits.concat (ca r) (cb r)
  | Expr.Zext (a, w) ->
      let ca = compile a in
      fun r -> Bits.zext (ca r) w
  | Expr.Sext (a, w) ->
      let ca = compile a in
      fun r -> Bits.sext (ca r) w
  | Expr.Mem_read (m, addr) ->
      let ca = compile addr in
      let size = mem_size m in
      fun r -> r.Access.get_mem m (Eval.wrap_address (ca r) size)

type compiled_expr_i = Access.ireader -> int64

(* Payload compilation: widths are resolved once here and baked into the
   closures, so evaluation never consults a per-value width again. *)
let expr_i ~sig_width ~mem_width ~mem_size e : compiled_expr_i =
  let rec compile e =
    let wd e = Expr.width ~sig_width ~mem_width e in
    match e with
    | Expr.Const b ->
        let v = Bits.to_int64 b in
        fun _ -> v
    | Expr.Sig id -> fun r -> r.Access.iget id
    | Expr.Unop (op, a) -> (
        let wa = wd a in
        let ca = compile a in
        match op with
        | Expr.Not -> fun r -> Bitops.lognot wa (ca r)
        | Expr.Neg -> fun r -> Bitops.neg wa (ca r)
        | Expr.Red_and -> fun r -> Bitops.reduce_and wa (ca r)
        | Expr.Red_or -> fun r -> Bitops.reduce_or (ca r)
        | Expr.Red_xor -> fun r -> Bitops.reduce_xor (ca r))
    | Expr.Binop (op, a, b) -> (
        let wa = wd a in
        let ca = compile a and cb = compile b in
        match op with
        | Expr.Add -> fun r -> Bitops.add wa (ca r) (cb r)
        | Expr.Sub -> fun r -> Bitops.sub wa (ca r) (cb r)
        | Expr.Mul -> fun r -> Bitops.mul wa (ca r) (cb r)
        | Expr.Divu -> fun r -> Bitops.divu wa (ca r) (cb r)
        | Expr.Modu -> fun r -> Bitops.modu (ca r) (cb r)
        | Expr.And -> fun r -> Bitops.logand (ca r) (cb r)
        | Expr.Or -> fun r -> Bitops.logor (ca r) (cb r)
        | Expr.Xor -> fun r -> Bitops.logxor (ca r) (cb r)
        | Expr.Shl -> fun r -> Bitops.shift_left wa (ca r) (cb r)
        | Expr.Shru -> fun r -> Bitops.shift_right wa (ca r) (cb r)
        | Expr.Shra -> fun r -> Bitops.shift_right_arith wa (ca r) (cb r)
        | Expr.Eq -> fun r -> Bitops.eq (ca r) (cb r)
        | Expr.Neq -> fun r -> Bitops.neq (ca r) (cb r)
        | Expr.Ltu -> fun r -> Bitops.ltu (ca r) (cb r)
        | Expr.Leu -> fun r -> Bitops.leu (ca r) (cb r)
        | Expr.Gtu -> fun r -> Bitops.gtu (ca r) (cb r)
        | Expr.Geu -> fun r -> Bitops.geu (ca r) (cb r)
        | Expr.Lts -> fun r -> Bitops.lts wa (ca r) (cb r)
        | Expr.Les -> fun r -> Bitops.les wa (ca r) (cb r)
        | Expr.Gts -> fun r -> Bitops.gts wa (ca r) (cb r)
        | Expr.Ges -> fun r -> Bitops.ges wa (ca r) (cb r))
    | Expr.Mux (sel, a, b) ->
        let cs = compile sel and ca = compile a and cb = compile b in
        fun r -> if Bitops.is_true (cs r) then ca r else cb r
    | Expr.Slice (a, hi, lo) ->
        let ca = compile a in
        fun r -> Bitops.slice ~hi ~lo (ca r)
    | Expr.Concat (a, b) ->
        let lo_width = wd b in
        let ca = compile a and cb = compile b in
        fun r -> Bitops.concat ~lo_width (ca r) (cb r)
    | Expr.Zext (a, _) -> compile a
    | Expr.Sext (a, w) ->
        let from = wd a in
        let ca = compile a in
        fun r -> Bitops.sext ~from w (ca r)
    | Expr.Mem_read (m, addr) ->
        let ca = compile addr in
        let size = mem_size m in
        fun r -> r.Access.iget_mem m (Eval.wrap_address_i (ca r) size)
  in
  compile e

let simple_stmt ~mem_size = function
  | Stmt.Assign (id, e) ->
      let ce = expr ~mem_size e in
      fun r (w : Access.writer) -> w.set_blocking id (ce r)
  | Stmt.Nonblock (id, e) ->
      let ce = expr ~mem_size e in
      fun r (w : Access.writer) -> w.set_nonblocking id (ce r)
  | Stmt.Mem_write (m, addr, data) ->
      let ca = expr ~mem_size addr and cd = expr ~mem_size data in
      let size = mem_size m in
      fun r (w : Access.writer) ->
        w.write_mem m (Eval.wrap_address (ca r) size) (cd r)
  | Stmt.Skip -> fun _ _ -> ()
  | Stmt.Block _ | Stmt.If _ | Stmt.Case _ ->
      invalid_arg "Compile.simple_stmt: control statement in a segment"

type t = {
  cfg : Cfg.t;
  segments : (Access.reader -> Access.writer -> unit) array array;
  selectors : compiled_expr array;
  choosers : (Bits.t -> int) array;
}

let chooser (d : Cfg.decision) : Bits.t -> int =
  match d.labels with
  | None -> fun v -> if Bits.is_true v then 0 else 1
  | Some labels when Array.length labels > 8 ->
      let table = Hashtbl.create (Array.length labels * 2) in
      Array.iteri
        (fun i label ->
          let key = Bits.to_int64 label in
          if not (Hashtbl.mem table key) then Hashtbl.add table key i)
        labels;
      let default = Array.length labels in
      fun v ->
        (match Hashtbl.find_opt table (Bits.to_int64 v) with
        | Some i -> i
        | None -> default)
  | Some labels ->
      let n = Array.length labels in
      fun v ->
        let rec scan i =
          if i >= n then n else if Bits.equal labels.(i) v then i
          else scan (i + 1)
        in
        scan 0

let proc ~mem_size body =
  let cfg = Cfg.build body in
  let n = Array.length cfg.nodes in
  let segments = Array.make n [||] in
  let selectors = Array.make n (fun _ -> Bits.of_bool false) in
  let choosers = Array.make n (fun _ -> 0) in
  Array.iteri
    (fun i node ->
      match node with
      | Cfg.Segment s ->
          segments.(i) <-
            Array.of_list (List.map (simple_stmt ~mem_size) s.stmts)
      | Cfg.Decision d ->
          selectors.(i) <- expr ~mem_size d.selector;
          choosers.(i) <- chooser d
      | Cfg.Exit -> ())
    cfg.nodes;
  { cfg; segments; selectors; choosers }

let exec t reader writer =
  let nodes = t.cfg.nodes in
  let rec walk cur =
    match nodes.(cur) with
    | Cfg.Exit -> ()
    | Cfg.Segment s ->
        let closures = t.segments.(cur) in
        for i = 0 to Array.length closures - 1 do
          closures.(i) reader writer
        done;
        walk s.succ
    | Cfg.Decision d ->
        walk d.targets.(t.choosers.(cur) (t.selectors.(cur) reader))
  in
  walk t.cfg.entry

(* --- payload-compiled procs --- *)

let simple_stmt_i ~sig_width ~mem_width ~mem_size =
  let expr_i = expr_i ~sig_width ~mem_width ~mem_size in
  function
  | Stmt.Assign (id, e) ->
      let ce = expr_i e in
      fun r (w : Access.iwriter) -> w.iset_blocking id (ce r)
  | Stmt.Nonblock (id, e) ->
      let ce = expr_i e in
      fun r (w : Access.iwriter) -> w.iset_nonblocking id (ce r)
  | Stmt.Mem_write (m, addr, data) ->
      let ca = expr_i addr and cd = expr_i data in
      let size = mem_size m in
      fun r (w : Access.iwriter) ->
        w.iwrite_mem m (Eval.wrap_address_i (ca r) size) (cd r)
  | Stmt.Skip -> fun _ _ -> ()
  | Stmt.Block _ | Stmt.If _ | Stmt.Case _ ->
      invalid_arg "Compile.simple_stmt_i: control statement in a segment"

type ti = {
  icfg : Cfg.t;
  ivdg : Vdg.t;
  isegments : (Access.ireader -> Access.iwriter -> unit) array array;
  iselectors : compiled_expr_i array;
  ichoosers : (int64 -> int) array;
  iseg_sites : (int * int * compiled_expr_i) array array;
  ihas_blocking : bool;
}

(* Case labels share the scrutinee's width (design-validated), so payload
   equality is full equality and the chooser never needs widths. *)
let chooser_i (d : Cfg.decision) : int64 -> int =
  match d.labels with
  | None -> fun v -> if v <> 0L then 0 else 1
  | Some labels when Array.length labels > 8 ->
      let table = Hashtbl.create (Array.length labels * 2) in
      Array.iteri
        (fun i label ->
          let key = Bits.to_int64 label in
          if not (Hashtbl.mem table key) then Hashtbl.add table key i)
        labels;
      let default = Array.length labels in
      fun v ->
        (match Hashtbl.find_opt table v with
        | Some i -> i
        | None -> default)
  | Some labels ->
      let n = Array.length labels in
      let keys = Array.map Bits.to_int64 labels in
      fun v ->
        let rec scan i =
          if i >= n then n
          else if Int64.equal keys.(i) v then i
          else scan (i + 1)
        in
        scan 0

let proc_i ~sig_width ~mem_width ~mem_size body =
  let cfg = Cfg.build body in
  let vdg = Vdg.build cfg in
  let expr_i = expr_i ~sig_width ~mem_width ~mem_size in
  let n = Array.length cfg.nodes in
  let isegments = Array.make n [||] in
  let iselectors = Array.make n (fun _ -> 0L) in
  let ichoosers = Array.make n (fun _ -> 0) in
  let iseg_sites = Array.make n [||] in
  let has_blocking = ref false in
  Array.iteri
    (fun i node ->
      match node with
      | Cfg.Segment s ->
          if Array.length s.blocking > 0 then has_blocking := true;
          isegments.(i) <-
            Array.of_list
              (List.map (simple_stmt_i ~sig_width ~mem_width ~mem_size)
                 s.stmts);
          iseg_sites.(i) <-
            Array.map
              (fun (m, addr_e) -> (m, mem_size m, expr_i addr_e))
              s.mem_sites
      | Cfg.Decision d ->
          iselectors.(i) <- expr_i d.selector;
          ichoosers.(i) <- chooser_i d
      | Cfg.Exit -> ())
    cfg.nodes;
  {
    icfg = cfg;
    ivdg = vdg;
    isegments;
    iselectors;
    ichoosers;
    iseg_sites;
    ihas_blocking = !has_blocking;
  }

let exec_i t ?record reader writer =
  let nodes = t.icfg.nodes in
  let rec walk cur =
    match nodes.(cur) with
    | Cfg.Exit -> ()
    | Cfg.Segment s ->
        let closures = t.isegments.(cur) in
        for i = 0 to Array.length closures - 1 do
          closures.(i) reader writer
        done;
        walk s.succ
    | Cfg.Decision d ->
        let choice = t.ichoosers.(cur) (t.iselectors.(cur) reader) in
        (match record with Some arr -> arr.(cur) <- choice | None -> ());
        walk d.targets.(choice)
  in
  walk t.icfg.entry

let fault_choice_i t node_id reader =
  t.ichoosers.(node_id) (t.iselectors.(node_id) reader)
