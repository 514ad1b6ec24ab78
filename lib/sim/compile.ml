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
