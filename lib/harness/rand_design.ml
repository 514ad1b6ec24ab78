open Rtlir
open Faultsim
module B = Builder

type t = {
  design : Design.t;
  graph : Elaborate.t;
  workload : Workload.t;
  faults : Fault.t array;
}

let widths = [| 1; 2; 3; 4; 7; 8; 13; 16; 24; 32 |]

let pick rng arr = arr.(Rng.int rng (Array.length arr))

(* Adapt an expression of width [w] to width [target]. *)
let coerce e w target =
  if w = target then e
  else if w > target then Expr.Slice (e, target - 1, 0)
  else Expr.Zext (e, target)

(* Random expression of the requested width over the (expr, width) pool. *)
let rec gen_expr rng pool mems depth target =
  let leaf () =
    if Rng.int rng 4 = 0 || pool = [||] then Expr.Const (Rng.bits rng target)
    else
      let e, w = pick rng pool in
      coerce e w target
  in
  if depth <= 0 || Rng.int rng 5 = 0 then leaf ()
  else
    let sub d w = gen_expr rng pool mems d w in
    match Rng.int rng 10 with
    | 0 ->
        let op =
          pick rng
            [|
              Expr.Add; Expr.Sub; Expr.Mul; Expr.And; Expr.Or; Expr.Xor;
              Expr.Divu; Expr.Modu;
            |]
        in
        Expr.Binop (op, sub (depth - 1) target, sub (depth - 1) target)
    | 1 ->
        let op = pick rng [| Expr.Shl; Expr.Shru; Expr.Shra |] in
        Expr.Binop (op, sub (depth - 1) target, sub (depth - 1) 3)
    | 2 ->
        let w = pick rng widths in
        let op =
          pick rng
            [|
              Expr.Eq; Expr.Neq; Expr.Ltu; Expr.Leu; Expr.Gtu; Expr.Geu;
              Expr.Lts; Expr.Les; Expr.Gts; Expr.Ges;
            |]
        in
        coerce (Expr.Binop (op, sub (depth - 1) w, sub (depth - 1) w)) 1 target
    | 3 ->
        Expr.Mux
          ( sub (depth - 1) (pick rng [| 1; 2; 4 |]),
            sub (depth - 1) target,
            sub (depth - 1) target )
    | 4 ->
        let op = pick rng [| Expr.Not; Expr.Neg |] in
        Expr.Unop (op, sub (depth - 1) target)
    | 5 ->
        let op = pick rng [| Expr.Red_and; Expr.Red_or; Expr.Red_xor |] in
        coerce (Expr.Unop (op, sub (depth - 1) (pick rng widths))) 1 target
    | 6 when target >= 2 ->
        let lo_w = 1 + Rng.int rng (target - 1) in
        Expr.Concat (sub (depth - 1) (target - lo_w), sub (depth - 1) lo_w)
    | 7 when target + 4 <= 64 ->
        let w = target + 1 + Rng.int rng 3 in
        let lo = Rng.int rng (w - target) in
        Expr.Slice (sub (depth - 1) w, lo + target - 1, lo)
    | 8 when mems <> [||] ->
        let m, dw = pick rng mems in
        coerce (Expr.Mem_read (m, sub (depth - 1) 4)) dw target
    | _ -> leaf ()

(* Mux-heavy expression of width [target], the shape continuous assigns
   take in flat Chisel-style RTL: muxes nested in arms, muxes under
   operators, and memory reads inside arms, so a fault's diff often sits
   on an arm the selector does not take. *)
let rec gen_mux_expr rng pool mems depth target =
  let sub () = gen_expr rng pool mems 1 target in
  let arm () =
    if depth <= 1 then sub ()
    else
      match Rng.int rng 4 with
      | 0 -> gen_mux_expr rng pool mems (depth - 1) target
      | 1 ->
          let op = pick rng [| Expr.Add; Expr.And; Expr.Or; Expr.Xor |] in
          let rhs = sub () in
          let inner = gen_mux_expr rng pool mems (depth - 1) target in
          Expr.Binop (op, inner, rhs)
      | 2 when mems <> [||] ->
          let m, dw = pick rng mems in
          coerce (Expr.Mem_read (m, gen_expr rng pool mems 1 4)) dw target
      | _ -> sub ()
  in
  Expr.Mux (gen_expr rng pool mems 1 (pick rng [| 1; 2 |]), arm (), arm ())

(* Random body for an edge-triggered process owning [regs]; statements only
   write the owned registers (single-driver rule) and optionally a RAM. *)
let rec gen_ff_stmt rng pool mems ram regs depth =
  let assign () =
    let q, w = pick rng regs in
    Stmt.Nonblock (q, gen_expr rng pool mems 3 w)
  in
  if depth <= 0 then assign ()
  else
    match Rng.int rng 6 with
    | 0 | 1 -> assign ()
    | 2 ->
        Stmt.If
          ( gen_expr rng pool mems 2 (pick rng [| 1; 2; 4 |]),
            gen_ff_stmt rng pool mems ram regs (depth - 1),
            if Rng.bool rng then gen_ff_stmt rng pool mems ram regs (depth - 1)
            else Stmt.Skip )
    | 3 when Rng.int rng 3 = 0 ->
        (* 9-16 arms over a 4-bit scrutinee, as in the instruction
           decoders of the CPU benchmarks, with one label repeated (its
           first arm wins) and scrutinee values that match no label *)
        let n = 9 + Rng.int rng 8 in
        let labels = Array.init 16 Fun.id in
        Rng.shuffle rng labels;
        let dup = 1 + Rng.int rng (n - 1) in
        labels.(dup) <- labels.(Rng.int rng dup);
        let arms =
          List.init n (fun i -> (Bits.of_int 4 labels.(i), assign ()))
        in
        Stmt.Case (gen_expr rng pool mems 2 4, arms, assign ())
    | 3 ->
        let scrut_w = 2 in
        let arms =
          List.init (1 + Rng.int rng 3) (fun i ->
              ( Bits.of_int scrut_w i,
                gen_ff_stmt rng pool mems ram regs (depth - 1) ))
        in
        Stmt.Case
          ( gen_expr rng pool mems 2 scrut_w,
            arms,
            gen_ff_stmt rng pool mems ram regs (depth - 1) )
    | 4 -> (
        match ram with
        | Some (m, dw) ->
            Stmt.Mem_write
              (m, gen_expr rng pool mems 2 4, gen_expr rng pool mems 2 dw)
        | None -> assign ())
    | _ ->
        Stmt.Block
          [
            gen_ff_stmt rng pool mems ram regs (depth - 1);
            gen_ff_stmt rng pool mems ram regs (depth - 1);
          ]

(* Control statement for a combinational process: blocking writes to the
   owned wires only. Defaults are emitted first by the caller, so partial
   assignment inside the control tree is fine (and later statements may read
   the already-assigned targets). *)
let rec gen_comb_stmt rng pool mems targets depth =
  let assign () =
    let t, w = pick rng targets in
    Stmt.Assign (t, gen_expr rng pool mems 2 w)
  in
  if depth <= 0 then assign ()
  else
    match Rng.int rng 4 with
    | 0 | 1 -> assign ()
    | 2 ->
        Stmt.If
          ( gen_expr rng pool mems 2 (pick rng [| 1; 2 |]),
            gen_comb_stmt rng pool mems targets (depth - 1),
            gen_comb_stmt rng pool mems targets (depth - 1) )
    | _ ->
        Stmt.Block
          [
            gen_comb_stmt rng pool mems targets (depth - 1);
            gen_comb_stmt rng pool mems targets (depth - 1);
          ]

let generate ?(cycles = 150) ?(max_faults = 60) ~seed () =
  (* The structure stream is seeded directly; workload and fault sampling
     get independent streams split from an auxiliary parent, so the
     stimulus and fault list do not depend on how many draws the structure
     generator happened to consume. *)
  let rng = Rng.create seed in
  let streams = Rng.split (Rng.create (Int64.lognot seed)) 2 in
  let workload_seed = Rng.seed streams.(0) in
  let fault_seed = Rng.seed streams.(1) in
  let ctx = B.create (Printf.sprintf "rand_%Ld" seed) in
  let clk = B.input ctx "clk" 1 in
  let n_in = 2 + Rng.int rng 4 in
  let data_inputs =
    List.init n_in (fun i ->
        let w = pick rng widths in
        (B.input ctx (Printf.sprintf "in%d" i) w, w))
  in
  let pool = ref (Array.of_list data_inputs) in
  let add_pool e w = pool := Array.append !pool [| (e, w) |] in
  (* memories *)
  let mems = ref [||] in
  let ram = ref None in
  if Rng.bool rng then begin
    let contents = Array.init 16 (fun _ -> Rng.bits rng 8) in
    let h = B.rom ctx "rom0" contents in
    mems := Array.append !mems [| (h.B.mid, 8) |]
  end;
  if Rng.bool rng then begin
    let h = B.ram ctx "ram0" ~width:8 ~size:16 in
    ram := Some (h.B.mid, 8);
    mems := Array.append !mems [| (h.B.mid, 8) |]
  end;
  (* registers, declared up-front so combinational logic can read them *)
  let n_reg = 2 + Rng.int rng 5 in
  let regs =
    Array.init n_reg (fun i ->
        let w = pick rng widths in
        let q = B.reg ctx (Printf.sprintf "q%d" i) w in
        (q, w))
  in
  Array.iter (fun (q, w) -> add_pool q w) regs;
  (* layered combinational wires *)
  let n_wire = 4 + Rng.int rng 10 in
  for i = 0 to n_wire - 1 do
    let w = pick rng widths in
    let wire = B.wire ctx (Printf.sprintf "w%d" i) w in
    B.assign ctx wire (gen_expr rng !pool !mems 3 w);
    add_pool wire w
  done;
  (* mux-heavy wires *)
  let n_mux = 1 + Rng.int rng 3 in
  for i = 0 to n_mux - 1 do
    let w = pick rng widths in
    let wire = B.wire ctx (Printf.sprintf "m%d" i) w in
    B.assign ctx wire (gen_mux_expr rng !pool !mems 3 w);
    add_pool wire w
  done;
  (* combinational processes *)
  let n_comb = Rng.int rng 3 in
  for i = 0 to n_comb - 1 do
    let n_targets = 1 + Rng.int rng 2 in
    let targets =
      Array.init n_targets (fun j ->
          let w = pick rng widths in
          let t = B.wire ctx (Printf.sprintf "cw%d_%d" i j) w in
          (t, w))
    in
    let target_ids =
      Array.map
        (fun (t, w) ->
          match t with Expr.Sig id -> (id, w) | _ -> assert false)
        targets
    in
    let defaults =
      Array.to_list
        (Array.map
           (fun (id, w) -> Stmt.Assign (id, gen_expr rng !pool !mems 2 w))
           target_ids)
    in
    (* After the defaults every target is assigned, so the control tree may
       also read them (exercises the locally-written tracking of the walk). *)
    let pool_with_targets = Array.append !pool targets in
    let ctrl =
      gen_comb_stmt rng pool_with_targets !mems target_ids (1 + Rng.int rng 2)
    in
    (* Sometimes a target is read before any write: a scratch write of a
       value that depends on the target's previous value, dead because the
       defaults overwrite it, so the settled result stays a function of the
       inputs. The walk must treat such a read as a read of the previous,
       possibly faulty, value. *)
    let scratch =
      if Rng.bool rng then
        let id, w = pick rng target_ids in
        [
          Stmt.Assign
            ( id,
              Expr.Binop
                (Expr.Xor, Expr.Sig id, gen_expr rng !pool !mems 1 w) );
        ]
      else []
    in
    B.always_comb ctx
      ~name:(Printf.sprintf "comb%d" i)
      (scratch @ defaults @ [ ctrl ]);
    Array.iter (fun (t, w) -> add_pool t w) targets
  done;
  (* edge-triggered processes: partition the registers *)
  let reg_ids =
    Array.map
      (fun (q, w) -> match q with Expr.Sig id -> (id, w) | _ -> assert false)
      regs
  in
  let n_ff = 1 + Rng.int rng 2 in
  let groups = Array.make n_ff [] in
  Array.iteri
    (fun i r -> groups.(i mod n_ff) <- r :: groups.(i mod n_ff))
    reg_ids;
  Array.iteri
    (fun i group ->
      match group with
      | [] -> ()
      | _ ->
          let owned = Array.of_list group in
          let body =
            List.init
              (1 + Rng.int rng 3)
              (fun _ -> gen_ff_stmt rng !pool !mems !ram owned (1 + Rng.int rng 2))
          in
          B.always_ff ctx ~name:(Printf.sprintf "ff%d" i) ~clock:clk body)
    groups;
  (* outputs *)
  let n_out = 1 + Rng.int rng 3 in
  for i = 0 to n_out - 1 do
    let w = pick rng widths in
    let o = B.output ctx (Printf.sprintf "out%d" i) w in
    B.assign ctx o (gen_expr rng !pool !mems 2 w)
  done;
  let design = B.finalize ctx in
  let graph = Elaborate.build design in
  let clk_id = match clk with Expr.Sig id -> id | _ -> assert false in
  let inputs =
    List.map
      (fun (e, w) ->
        match e with Expr.Sig id -> (id, w) | _ -> assert false)
      data_inputs
  in
  let workload =
    {
      Workload.cycles;
      clock = clk_id;
      drive = Workload.random_drive ~seed:workload_seed ~inputs ();
    }
  in
  let faults = Fault.generate ~max_faults ~seed:fault_seed design in
  { design; graph; workload; faults }
