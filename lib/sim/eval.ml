open Rtlir

let wrap_address addr size =
  Int64.to_int (Int64.unsigned_rem (Bits.to_int64 addr) (Int64.of_int size))

let apply_unop op a =
  match op with
  | Expr.Not -> Bits.lognot a
  | Expr.Neg -> Bits.neg a
  | Expr.Red_and -> Bits.reduce_and a
  | Expr.Red_or -> Bits.reduce_or a
  | Expr.Red_xor -> Bits.reduce_xor a

let apply_binop op a b =
  match op with
  | Expr.Add -> Bits.add a b
  | Expr.Sub -> Bits.sub a b
  | Expr.Mul -> Bits.mul a b
  | Expr.Divu -> Bits.divu a b
  | Expr.Modu -> Bits.modu a b
  | Expr.And -> Bits.logand a b
  | Expr.Or -> Bits.logor a b
  | Expr.Xor -> Bits.logxor a b
  | Expr.Shl -> Bits.shift_left a b
  | Expr.Shru -> Bits.shift_right a b
  | Expr.Shra -> Bits.shift_right_arith a b
  | Expr.Eq -> Bits.eq a b
  | Expr.Neq -> Bits.neq a b
  | Expr.Ltu -> Bits.ltu a b
  | Expr.Leu -> Bits.leu a b
  | Expr.Gtu -> Bits.gtu a b
  | Expr.Geu -> Bits.geu a b
  | Expr.Lts -> Bits.lts a b
  | Expr.Les -> Bits.les a b
  | Expr.Gts -> Bits.gts a b
  | Expr.Ges -> Bits.ges a b

let eval ~mem_size (r : Access.reader) e =
  let rec go = function
    | Expr.Const b -> b
    | Expr.Sig id -> r.get id
    | Expr.Unop (op, a) -> apply_unop op (go a)
    | Expr.Binop (op, a, b) -> apply_binop op (go a) (go b)
    | Expr.Mux (sel, a, b) -> if Bits.is_true (go sel) then go a else go b
    | Expr.Slice (a, hi, lo) -> Bits.slice (go a) ~hi ~lo
    | Expr.Concat (a, b) -> Bits.concat (go a) (go b)
    | Expr.Zext (a, w) -> Bits.zext (go a) w
    | Expr.Sext (a, w) -> Bits.sext (go a) w
    | Expr.Mem_read (m, addr) ->
        r.get_mem m (wrap_address (go addr) (mem_size m))
  in
  go e
