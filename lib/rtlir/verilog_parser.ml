exception Parse_error of string

let parse_error fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

module L = Verilog_lexer

(* ---------- untyped AST ---------- *)

type vexpr =
  | VNum of int
  | VSized of int * int64
  | VId of string
  | VIndex of string * vexpr  (* memory read or dynamic bit select *)
  | VPart of string * int * int
  | VUn of string * vexpr
  | VBin of string * vexpr * vexpr
  | VTern of vexpr * vexpr * vexpr
  | VConcat of vexpr list
  | VRepl of int * vexpr
  | VSigned of vexpr

type vlvalue = LId of string | LIndex of string * vexpr

type vstmt =
  | SBlock of vstmt list
  | SIf of vexpr * vstmt * vstmt option
  | SCase of vexpr * (vexpr * vstmt) list * vstmt option
  | SBlocking of vlvalue * vexpr
  | SNonblock of vlvalue * vexpr
  | SNull

type vdecl_kind = Dinput | Doutput | Dwire | Dreg

(* ---------- parser ---------- *)

type p = { lx : L.t }

let expect p tok =
  let got = L.next p.lx in
  if got <> tok then
    parse_error "expected %s, got %s" (L.token_name tok) (L.token_name got)

let expect_ident p =
  match L.next p.lx with
  | L.IDENT s -> s
  | t -> parse_error "expected identifier, got %s" (L.token_name t)

let expect_number p =
  match L.next p.lx with
  | L.NUMBER n -> n
  | t -> parse_error "expected number, got %s" (L.token_name t)

let accept p tok = if L.peek p.lx = tok then (ignore (L.next p.lx); true) else false

(* Expression grammar, precedence climbing, loosest first:
   ternary; logical or/and; bitwise or/xor/and; equality; relational;
   shifts; additive; multiplicative; unary. *)

let rec parse_expr p = parse_ternary p

and parse_ternary p =
  let c = parse_logor p in
  if accept p L.QUESTION then begin
    let a = parse_expr p in
    expect p L.COLON;
    let b = parse_ternary p in
    VTern (c, a, b)
  end
  else c

and binlevel p ops sub =
  let rec loop acc =
    match L.peek p.lx with
    | L.OP o when List.mem o ops ->
        ignore (L.next p.lx);
        loop (VBin (o, acc, sub p))
    | L.LE_ASSIGN when List.mem "<=" ops ->
        ignore (L.next p.lx);
        loop (VBin ("<=", acc, sub p))
    | _ -> acc
  in
  loop (sub p)

and parse_logor p = binlevel p [ "||" ] parse_logand
and parse_logand p = binlevel p [ "&&" ] parse_bitor
and parse_bitor p = binlevel p [ "|" ] parse_bitxor
and parse_bitxor p = binlevel p [ "^" ] parse_bitand
and parse_bitand p = binlevel p [ "&" ] parse_equality
and parse_equality p = binlevel p [ "=="; "!=" ] parse_relational
and parse_relational p = binlevel p [ "<"; "<="; ">"; ">=" ] parse_shift
and parse_shift p = binlevel p [ "<<"; ">>"; ">>>" ] parse_additive
and parse_additive p = binlevel p [ "+"; "-" ] parse_multiplicative
and parse_multiplicative p = binlevel p [ "*"; "/"; "%" ] parse_unary

and parse_unary p =
  match L.peek p.lx with
  | L.OP (("~" | "-" | "&" | "|" | "^") as o) ->
      ignore (L.next p.lx);
      VUn (o, parse_unary p)
  | _ -> parse_primary p

and parse_primary p =
  match L.next p.lx with
  | L.NUMBER n -> VNum n
  | L.SIZED (w, v) -> VSized (w, v)
  | L.LPAREN ->
      let e = parse_expr p in
      expect p L.RPAREN;
      e
  | L.LBRACE -> parse_concat_or_repl p
  | L.IDENT "$signed" ->
      expect p L.LPAREN;
      let e = parse_expr p in
      expect p L.RPAREN;
      VSigned e
  | L.IDENT id -> parse_postfix p id
  | t -> parse_error "unexpected %s in expression" (L.token_name t)

and parse_postfix p id =
  if accept p L.LBRACKET then begin
    let e = parse_expr p in
    if accept p L.COLON then begin
      let lo =
        match parse_expr p with
        | VNum n -> n
        | _ -> parse_error "part select bounds must be constants"
      in
      let hi =
        match e with
        | VNum n -> n
        | _ -> parse_error "part select bounds must be constants"
      in
      expect p L.RBRACKET;
      VPart (id, hi, lo)
    end
    else begin
      expect p L.RBRACKET;
      VIndex (id, e)
    end
  end
  else VId id

and parse_concat_or_repl p =
  (* '{' already consumed: either {n{expr}} or {e, e, ...} *)
  let first = parse_expr p in
  match (first, L.peek p.lx) with
  | VNum n, L.LBRACE ->
      ignore (L.next p.lx);
      let e = parse_expr p in
      expect p L.RBRACE;
      expect p L.RBRACE;
      VRepl (n, e)
  | _ ->
      let items = ref [ first ] in
      while accept p L.COMMA do
        items := parse_expr p :: !items
      done;
      expect p L.RBRACE;
      VConcat (List.rev !items)

(* ---------- statements ---------- *)

let parse_lvalue p =
  let id = expect_ident p in
  if accept p L.LBRACKET then begin
    let e = parse_expr p in
    expect p L.RBRACKET;
    LIndex (id, e)
  end
  else LId id

let rec parse_stmt p =
  match L.peek p.lx with
  | L.IDENT "begin" ->
      ignore (L.next p.lx);
      let items = ref [] in
      while L.peek p.lx <> L.IDENT "end" do
        items := parse_stmt p :: !items
      done;
      ignore (L.next p.lx);
      SBlock (List.rev !items)
  | L.IDENT "if" ->
      ignore (L.next p.lx);
      expect p L.LPAREN;
      let c = parse_expr p in
      expect p L.RPAREN;
      let t = parse_stmt p in
      if L.peek p.lx = L.IDENT "else" then begin
        ignore (L.next p.lx);
        SIf (c, t, Some (parse_stmt p))
      end
      else SIf (c, t, None)
  | L.IDENT "case" ->
      ignore (L.next p.lx);
      expect p L.LPAREN;
      let scrut = parse_expr p in
      expect p L.RPAREN;
      let arms = ref [] in
      let dflt = ref None in
      let rec arms_loop () =
        match L.peek p.lx with
        | L.IDENT "endcase" -> ignore (L.next p.lx)
        | L.IDENT "default" ->
            ignore (L.next p.lx);
            expect p L.COLON;
            dflt := Some (parse_stmt p);
            arms_loop ()
        | _ ->
            let label = parse_expr p in
            expect p L.COLON;
            arms := (label, parse_stmt p) :: !arms;
            arms_loop ()
      in
      arms_loop ();
      SCase (scrut, List.rev !arms, !dflt)
  | L.SEMI ->
      ignore (L.next p.lx);
      SNull
  | _ ->
      let lv = parse_lvalue p in
      let tok = L.next p.lx in
      let rhs = parse_expr p in
      expect p L.SEMI;
      (match tok with
      | L.EQ -> SBlocking (lv, rhs)
      | L.LE_ASSIGN -> SNonblock (lv, rhs)
      | t -> parse_error "expected assignment, got %s" (L.token_name t))

(* ---------- module items ---------- *)

let parse_range p =
  (* optional [msb:0] *)
  if accept p L.LBRACKET then begin
    let msb = expect_number p in
    expect p L.COLON;
    let lsb = expect_number p in
    expect p L.RBRACKET;
    if lsb <> 0 then parse_error "only [msb:0] ranges are supported";
    msb + 1
  end
  else 1

let parse_sensitivity p =
  expect p L.AT;
  match L.next p.lx with
  | L.OP "*" -> `Comb
  | L.LPAREN ->
      if L.peek p.lx = L.OP "*" then begin
        ignore (L.next p.lx);
        expect p L.RPAREN;
        `Comb
      end
      else begin
        let edges = ref [] in
        let rec loop () =
          let edge =
            match expect_ident p with
            | "posedge" -> Design.Posedge
            | "negedge" -> Design.Negedge
            | s -> parse_error "expected posedge/negedge, got %s" s
          in
          let clk = expect_ident p in
          edges := (edge, clk) :: !edges;
          match L.next p.lx with
          | L.IDENT "or" -> loop ()
          | L.COMMA -> loop ()
          | L.RPAREN -> ()
          | t -> parse_error "bad sensitivity list: %s" (L.token_name t)
        in
        loop ();
        `Edges (List.rev !edges)
      end
  | t -> parse_error "bad sensitivity: %s" (L.token_name t)

type raw_module = {
  rname : string;
  mutable rdecls : (string * int * vdecl_kind) list;
  mutable rmems : (string * int * int) list;
  mutable rinits : (string * int * Bits.t) list;
  mutable rassigns : (string * vexpr) list;
  mutable rprocs :
    ([ `Comb | `Edges of (Design.edge * string) list ] * vstmt) list;
}

let parse_initial p m =
  (* initial begin m[0] = 8'h12; ... end — ROM contents *)
  expect p (L.IDENT "begin");
  let rec loop () =
    if L.peek p.lx = L.IDENT "end" then ignore (L.next p.lx)
    else begin
      let id = expect_ident p in
      expect p L.LBRACKET;
      let addr = expect_number p in
      expect p L.RBRACKET;
      expect p L.EQ;
      let v =
        match L.next p.lx with
        | L.SIZED (w, v) -> Bits.make w v
        | L.NUMBER n -> (
            match List.assoc_opt id (List.map (fun (n, w, _) -> (n, w)) m.rmems) with
            | Some w -> Bits.make w (Int64.of_int n)
            | None -> parse_error "initial write to unknown memory %s" id)
        | t -> parse_error "expected literal, got %s" (L.token_name t)
      in
      expect p L.SEMI;
      m.rinits <- (id, addr, v) :: m.rinits;
      loop ()
    end
  in
  loop ()

let parse_module p =
  expect p (L.IDENT "module");
  let rname = expect_ident p in
  let m =
    { rname; rdecls = []; rmems = []; rinits = []; rassigns = []; rprocs = [] }
  in
  (* non-ANSI port list: names only *)
  if accept p L.LPAREN then begin
    if L.peek p.lx <> L.RPAREN then begin
      let rec ports () =
        ignore (expect_ident p);
        if accept p L.COMMA then ports ()
      in
      ports ()
    end;
    expect p L.RPAREN
  end;
  expect p L.SEMI;
  let decl kind =
    let width = parse_range p in
    let add_net name =
      (* Verilog permits re-declaration pairs such as "output x; wire x;"
         or "output y; reg y;": merge them, keeping the port direction. *)
      match List.assoc_opt name (List.map (fun (n, w, k) -> (n, (w, k))) m.rdecls) with
      | Some (w0, k0) ->
          if w0 <> width then
            parse_error "%s re-declared with width %d (was %d)" name width w0;
          let merged =
            match (k0, kind) with
            | (Dinput | Doutput), (Dwire | Dreg) -> k0
            | (Dwire | Dreg), (Dinput | Doutput) -> kind
            | _ -> parse_error "duplicate declaration of %s" name
          in
          m.rdecls <-
            List.map
              (fun (n, w, k) -> if n = name then (n, w, merged) else (n, w, k))
              m.rdecls
      | None -> m.rdecls <- (name, width, kind) :: m.rdecls
    in
    let rec names () =
      let name = expect_ident p in
      (* memory? *)
      if L.peek p.lx = L.LBRACKET then begin
        ignore (L.next p.lx);
        let lo = expect_number p in
        expect p L.COLON;
        let hi = expect_number p in
        expect p L.RBRACKET;
        if lo <> 0 then parse_error "memory %s must start at 0" name;
        if kind <> Dreg then parse_error "memory %s must be a reg" name;
        m.rmems <- (name, width, hi + 1) :: m.rmems
      end
      else add_net name;
      if accept p L.COMMA then names ()
    in
    names ();
    expect p L.SEMI
  in
  let rec items () =
    match L.next p.lx with
    | L.IDENT "endmodule" -> ()
    | L.IDENT "input" ->
        decl Dinput;
        items ()
    | L.IDENT "output" ->
        decl Doutput;
        items ()
    | L.IDENT "wire" ->
        decl Dwire;
        items ()
    | L.IDENT "reg" ->
        decl Dreg;
        items ()
    | L.IDENT "assign" ->
        let target = expect_ident p in
        expect p L.EQ;
        let e = parse_expr p in
        expect p L.SEMI;
        m.rassigns <- (target, e) :: m.rassigns;
        items ()
    | L.IDENT "always" ->
        let trig = parse_sensitivity p in
        let body = parse_stmt p in
        m.rprocs <- (trig, body) :: m.rprocs;
        items ()
    | L.IDENT "initial" ->
        parse_initial p m;
        items ()
    | t -> parse_error "unexpected module item: %s" (L.token_name t)
  in
  items ();
  (match L.next p.lx with
  | L.EOF -> ()
  | t -> parse_error "trailing input after endmodule: %s" (L.token_name t));
  m.rdecls <- List.rev m.rdecls;
  m.rmems <- List.rev m.rmems;
  m.rinits <- List.rev m.rinits;
  m.rassigns <- List.rev m.rassigns;
  m.rprocs <- List.rev m.rprocs;
  m

(* ---------- elaboration: widths and IR construction ---------- *)

type env = {
  sig_of : (string, int) Hashtbl.t;
  width_of : (string, int) Hashtbl.t;
  mem_of : (string, int * int) Hashtbl.t;  (* name -> (mid, data width) *)
}

let rec self_size env e =
  match e with
  | VNum _ -> 32
  | VSized (w, _) -> w
  | VId id -> (
      match Hashtbl.find_opt env.width_of id with
      | Some w -> w
      | None -> parse_error "unknown identifier %s" id)
  | VIndex (id, _) -> (
      match Hashtbl.find_opt env.mem_of id with
      | Some (_, w) -> w
      | None ->
          if Hashtbl.mem env.width_of id then 1
          else parse_error "unknown identifier %s" id)
  | VPart (_, hi, lo) -> hi - lo + 1
  | VUn (("~" | "-"), a) -> self_size env a
  | VUn _ -> 1
  | VBin (("+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"), a, b) ->
      max (self_size env a) (self_size env b)
  | VBin (("<<" | ">>" | ">>>"), a, _) -> self_size env a
  | VBin _ -> 1 (* comparisons and logical connectives *)
  | VTern (_, a, b) -> max (self_size env a) (self_size env b)
  | VConcat l -> List.fold_left (fun acc e -> acc + self_size env e) 0 l
  | VRepl (n, e) -> n * self_size env e
  | VSigned e -> self_size env e

let pad_to w e we =
  if we = w then e
  else if we < w then Expr.Zext (e, w)
  else Expr.Slice (e, w - 1, 0)

(* [elab env e ctx] returns an IR expression of width [max ctx (self e)] for
   context-determined operators, and of self width padded/truncated to at
   least ctx for self-determined ones (the caller re-pads as needed). *)
let rec elab env e ctx : Expr.t * int =
  let s = self_size env e in
  let size = max ctx s in
  match e with
  | VNum n ->
      if n < 0 then parse_error "negative literal";
      (Expr.Const (Bits.make size (Int64.of_int n)), size)
  | VSized (w, v) -> pad_result size (Expr.Const (Bits.make w v)) w
  | VId id -> pad_result size (Expr.Sig (sig_id env id)) s
  | VIndex (id, addr) -> (
      match Hashtbl.find_opt env.mem_of id with
      | Some (mid, w) ->
          let ea, _ = elab env addr (self_size env addr) in
          pad_result size (Expr.Mem_read (mid, ea)) w
      | None ->
          (* dynamic bit select: (x >> i) truncated to 1 bit *)
          let ea, _ = elab env addr (self_size env addr) in
          pad_result size
            (Expr.Slice (Expr.Binop (Expr.Shru, Expr.Sig (sig_id env id), ea), 0, 0))
            1)
  | VPart (id, hi, lo) ->
      let xw =
        match Hashtbl.find_opt env.width_of id with
        | Some w -> w
        | None -> parse_error "unknown identifier %s" id
      in
      if hi >= xw then parse_error "part select %s[%d:%d] out of range" id hi lo;
      pad_result size (Expr.Slice (Expr.Sig (sig_id env id), hi, lo)) (hi - lo + 1)
  | VUn ("~", a) ->
      let ea, w = elab env a size in
      (Expr.Unop (Expr.Not, ea), w)
  | VUn ("-", a) ->
      let ea, w = elab env a size in
      (Expr.Unop (Expr.Neg, ea), w)
  | VUn ("&", a) -> red env size Expr.Red_and a
  | VUn ("|", a) -> red env size Expr.Red_or a
  | VUn ("^", a) -> red env size Expr.Red_xor a
  | VUn (o, _) -> parse_error "unsupported unary %s" o
  | VBin ("&", VBin (">>", a, VNum lo), VRepl (w, VSized (1, 1L))) ->
      (* the exporter's inline slice lowering: exact width w *)
      let ea, _ = elab env a (self_size env a) in
      pad_result size (Expr.Slice (ea, lo + w - 1, lo)) w
  | VBin (("+" | "-" | "*" | "/" | "%" | "&" | "|" | "^") as o, a, b) ->
      let ea, _ = elab env a size in
      let eb, _ = elab env b size in
      let op =
        match o with
        | "+" -> Expr.Add
        | "-" -> Expr.Sub
        | "*" -> Expr.Mul
        | "/" -> Expr.Divu
        | "%" -> Expr.Modu
        | "&" -> Expr.And
        | "|" -> Expr.Or
        | "^" -> Expr.Xor
        | _ -> assert false
      in
      (Expr.Binop (op, ea, eb), size)
  | VBin (("<<" | ">>") as o, a, b) ->
      let ea, _ = elab env a size in
      let eb, _ = elab env b (self_size env b) in
      ( Expr.Binop ((if o = "<<" then Expr.Shl else Expr.Shru), ea, eb),
        size )
  | VBin (">>>", a, b) -> (
      match a with
      | VSigned a ->
          let ea, w = elab env a (max ctx (self_size env a)) in
          let eb, _ = elab env b (self_size env b) in
          (Expr.Binop (Expr.Shra, ea, eb), w)
      | _ ->
          (* >>> on an unsigned operand behaves as >> *)
          let ea, w = elab env a size in
          let eb, _ = elab env b (self_size env b) in
          (Expr.Binop (Expr.Shru, ea, eb), w))
  | VBin (("==" | "!=" | "<" | "<=" | ">" | ">=") as o, a, b) ->
      let signed, a, b =
        match (a, b) with
        | VSigned a, VSigned b -> (true, a, b)
        | VSigned _, _ | _, VSigned _ ->
            parse_error "mixed signed/unsigned comparison"
        | _ -> (false, a, b)
      in
      let w = max (self_size env a) (self_size env b) in
      let ea, _ = elab env a w in
      let eb, _ = elab env b w in
      let op =
        match (o, signed) with
        | "==", _ -> Expr.Eq
        | "!=", _ -> Expr.Neq
        | "<", false -> Expr.Ltu
        | "<=", false -> Expr.Leu
        | ">", false -> Expr.Gtu
        | ">=", false -> Expr.Geu
        | "<", true -> Expr.Lts
        | "<=", true -> Expr.Les
        | ">", true -> Expr.Gts
        | ">=", true -> Expr.Ges
        | _ -> assert false
      in
      pad_result size (Expr.Binop (op, ea, eb)) 1
  | VBin (("&&" | "||") as o, a, b) ->
      let ta = truthy env a and tb = truthy env b in
      pad_result size
        (Expr.Binop ((if o = "&&" then Expr.And else Expr.Or), ta, tb))
        1
  | VBin (o, _, _) -> parse_error "unsupported operator %s" o
  | VTern (c, a, b) ->
      let ec = truthy env c in
      let ea, _ = elab env a size in
      let eb, _ = elab env b size in
      (Expr.Mux (ec, ea, eb), size)
  | VConcat l ->
      let parts =
        List.map (fun e -> fst (elab env e (self_size env e))) l
      in
      let con =
        match parts with
        | [] -> parse_error "empty concatenation"
        | x :: rest -> List.fold_left (fun acc e -> Expr.Concat (acc, e)) x rest
      in
      pad_result size con s
  | VRepl (n, e) ->
      if n < 1 then parse_error "replication count %d" n;
      let part = fst (elab env e (self_size env e)) in
      let rec build k acc =
        if k = 0 then acc else build (k - 1) (Expr.Concat (acc, part))
      in
      pad_result size (build (n - 1) part) s
  | VSigned e ->
      (* $signed outside a comparison / >>> context: value-preserving *)
      elab env e ctx

and pad_result size e we = (pad_to size e we, size)

and red env size op a =
  let ea, _ = elab env a (self_size env a) in
  pad_result size (Expr.Unop (op, ea)) 1

and truthy env e =
  (* a 1-bit-ish condition: IR If/Mux treat any nonzero as true *)
  fst (elab env e (self_size env e))

and sig_id env id =
  match Hashtbl.find_opt env.sig_of id with
  | Some i -> i
  | None -> parse_error "unknown identifier %s" id

let elab_assign env target e =
  let w =
    match Hashtbl.find_opt env.width_of target with
    | Some w -> w
    | None -> parse_error "assignment to unknown identifier %s" target
  in
  let ee, we = elab env e w in
  pad_to w ee we

let rec elab_stmt env ~in_comb s : Stmt.t =
  match s with
  | SBlock l -> Stmt.Block (List.map (elab_stmt env ~in_comb) l)
  | SNull -> Stmt.Skip
  | SIf (c, t, e) ->
      Stmt.If
        ( truthy env c,
          elab_stmt env ~in_comb t,
          match e with
          | Some e -> elab_stmt env ~in_comb e
          | None -> Stmt.Skip )
  | SCase (scrut, arms, dflt) ->
      let sw = self_size env scrut in
      let es, _ = elab env scrut sw in
      Stmt.Case
        ( es,
          List.map
            (fun (label, arm) ->
              let bits =
                match label with
                | VSized (_, v) -> Bits.make sw v
                | VNum n -> Bits.make sw (Int64.of_int n)
                | _ -> parse_error "case labels must be literals"
              in
              (bits, elab_stmt env ~in_comb arm))
            arms,
          match dflt with
          | Some s -> elab_stmt env ~in_comb s
          | None -> Stmt.Skip )
  | SBlocking (lv, e) -> (
      match lv with
      | LId id ->
          if not in_comb then
            parse_error
              "blocking assignment to %s in an edge-triggered process (not \
               supported by the IR)"
              id;
          Stmt.Assign (sig_id env id, elab_assign env id e)
      | LIndex (id, _) ->
          parse_error "blocking memory write to %s not supported" id)
  | SNonblock (lv, e) -> (
      match lv with
      | LId id ->
          if in_comb then
            parse_error "nonblocking assignment to %s in always @*" id;
          Stmt.Nonblock (sig_id env id, elab_assign env id e)
      | LIndex (id, addr) -> (
          match Hashtbl.find_opt env.mem_of id with
          | Some (mid, w) ->
              let ea, _ = elab env addr (self_size env addr) in
              let ed, we = elab env e w in
              Stmt.Mem_write (mid, ea, pad_to w ed we)
          | None -> parse_error "write to unknown memory %s" id))

(* write sets of the untyped AST, for driver classification *)
let rec vstmt_writes s acc =
  match s with
  | SBlock l -> List.fold_right vstmt_writes l acc
  | SNull -> acc
  | SIf (_, t, e) ->
      vstmt_writes t (match e with Some e -> vstmt_writes e acc | None -> acc)
  | SCase (_, arms, dflt) ->
      let acc =
        List.fold_right (fun (_, arm) acc -> vstmt_writes arm acc) arms acc
      in
      (match dflt with Some s -> vstmt_writes s acc | None -> acc)
  | SBlocking (LId id, _) | SNonblock (LId id, _) -> id :: acc
  | SBlocking (LIndex _, _) | SNonblock (LIndex _, _) -> acc

(* Byte offset [pos] of [src] as "line L, column C", both from 1. *)
let position src pos =
  let pos = min pos (String.length src) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to pos - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  Printf.sprintf "line %d, column %d" !line (pos - !bol + 1)

let elaborate m =
  (* classify: regs written by always @* become IR wires *)
  let comb_written = Hashtbl.create 16 in
  List.iter
    (fun (trig, body) ->
      if trig = `Comb then
        List.iter
          (fun id -> Hashtbl.replace comb_written id ())
          (vstmt_writes body []))
    m.rprocs;
  let env =
    {
      sig_of = Hashtbl.create 64;
      width_of = Hashtbl.create 64;
      mem_of = Hashtbl.create 8;
    }
  in
  let signals =
    Array.of_list
      (List.mapi
         (fun i (name, width, kind) ->
           Hashtbl.replace env.sig_of name i;
           Hashtbl.replace env.width_of name width;
           let kind =
             match kind with
             | Dinput -> Design.Input
             | Doutput -> Design.Output
             | Dwire -> Design.Wire
             | Dreg ->
                 if Hashtbl.mem comb_written name then Design.Wire
                 else Design.Reg
           in
           { Design.id = i; name; width; kind })
         m.rdecls)
  in
  let written_mems = Hashtbl.create 8 in
  let rec scan_mem_writes s =
    match s with
    | SBlock l -> List.iter scan_mem_writes l
    | SIf (_, t, e) ->
        scan_mem_writes t;
        Option.iter scan_mem_writes e
    | SCase (_, arms, dflt) ->
        List.iter (fun (_, arm) -> scan_mem_writes arm) arms;
        Option.iter scan_mem_writes dflt
    | SNonblock (LIndex (id, _), _) | SBlocking (LIndex (id, _), _) ->
        Hashtbl.replace written_mems id ()
    | _ -> ()
  in
  List.iter (fun (_, body) -> scan_mem_writes body) m.rprocs;
  let mems =
    Array.of_list
      (List.mapi
         (fun i (name, data_width, size) ->
           Hashtbl.replace env.mem_of name (i, data_width);
           let init_entries =
             List.filter (fun (n, _, _) -> n = name) m.rinits
           in
           let init =
             if init_entries = [] then None
             else begin
               let a = Array.make size (Bits.make data_width 0L) in
               List.iter
                 (fun (_, addr, v) ->
                   if addr >= size then
                     parse_error "initial %s[%d] out of range" name addr;
                   if Bits.width v <> data_width then
                     parse_error "initial %s[%d]: width %d vs %d" name addr
                       (Bits.width v) data_width;
                   a.(addr) <- v)
                 init_entries;
               Some a
             end
           in
           {
             Design.mid = i;
             mname = name;
             data_width;
             size;
             init;
             rom = init <> None && not (Hashtbl.mem written_mems name);
           })
         m.rmems)
  in
  (* placeholder env is complete: elaborate assigns and processes *)
  let assigns =
    Array.of_list
      (List.mapi
         (fun aid (target, e) ->
           {
             Design.aid;
             target = sig_id env target;
             expr = elab_assign env target e;
           })
         m.rassigns)
  in
  let procs =
    Array.of_list
      (List.mapi
         (fun pid (trig, body) ->
           match trig with
           | `Comb ->
               {
                 Design.pid;
                 pname = Printf.sprintf "proc%d" pid;
                 trigger = Design.Comb;
                 body = elab_stmt env ~in_comb:true body;
               }
           | `Edges edges ->
               {
                 Design.pid;
                 pname = Printf.sprintf "proc%d" pid;
                 trigger =
                   Design.Edges
                     (List.map (fun (e, clk) -> (e, sig_id env clk)) edges);
                 body = elab_stmt env ~in_comb:false body;
               })
         m.rprocs)
  in
  let inputs =
    List.filter_map
      (fun (name, _, kind) ->
        if kind = Dinput then Some (sig_id env name) else None)
      m.rdecls
  in
  let outputs =
    List.filter_map
      (fun (name, _, kind) ->
        if kind = Doutput then Some (sig_id env name) else None)
      m.rdecls
  in
  let d =
    { Design.dname = m.rname; signals; mems; assigns; procs; inputs; outputs }
  in
  (try Design.validate d
   with Design.Invalid msg -> parse_error "invalid design: %s" msg);
  d

let parse src =
  let p = { lx = L.create src } in
  let m =
    try parse_module p
    with Parse_error msg | L.Lex_error msg | Bits.Width_error msg ->
      parse_error "%s: %s" (position src p.lx.L.tok_start) msg
  in
  try elaborate m
  with Bits.Width_error msg -> parse_error "unsupported width: %s" msg
