open Rtlir

type decision = {
  selector : Expr.t;
  labels : Bits.t array option;
  targets : int array;
  sel_reads : int array;
  sel_read_mems : int array;
  sel_mem_sites : (int * Expr.t) array;
}

type segment = {
  stmts : Stmt.t list;
  reads : int array;
  read_mems : int array;
  mem_sites : (int * Expr.t) array;
  blocking : int array;
  succ : int;
}

type node = Decision of decision | Segment of segment | Exit

type t = {
  nodes : node array;
  entry : int;
  exit_id : int;
  n_decisions : int;
  n_segments : int;
}

let is_simple = function
  | Stmt.Assign _ | Stmt.Nonblock _ | Stmt.Mem_write _ | Stmt.Skip -> true
  | Stmt.Block _ | Stmt.If _ | Stmt.Case _ -> false

(* Flatten nested blocks and drop Skips so that segment grouping sees one
   statement list per nesting level. *)
let rec flatten stmt acc =
  match stmt with
  | Stmt.Block l -> List.fold_right flatten l acc
  | Stmt.Skip -> acc
  | s -> s :: acc

let build body =
  let rev_nodes = ref [] in
  let count = ref 0 in
  let add node =
    let id = !count in
    incr count;
    rev_nodes := node :: !rev_nodes;
    id
  in
  let exit_id = add Exit in
  let mk_segment stmts succ =
    if stmts = [] then succ
    else
      let block = Stmt.Block stmts in
      add
        (Segment
           {
             stmts;
             reads = Array.of_list (Stmt.read_signals block);
             read_mems = Array.of_list (Stmt.read_mems block);
             mem_sites = Array.of_list (Stmt.mem_read_sites block);
             blocking = Array.of_list (Stmt.blocking_writes block);
             succ;
           })
  in
  let mk_decision selector labels targets =
    add
      (Decision
         {
           selector;
           labels;
           targets;
           sel_reads = Array.of_list (Expr.read_signals selector);
           sel_read_mems = Array.of_list (Expr.read_mems selector);
           sel_mem_sites = Array.of_list (Expr.mem_read_sites selector);
         })
  in
  let rec go_list stmts succ =
    match stmts with
    | [] -> succ
    | _ ->
        let rec span_simple acc = function
          | s :: rest when is_simple s -> span_simple (s :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let simples, rest = span_simple [] stmts in
        let tail_entry =
          match rest with
          | [] -> succ
          | ctrl :: rest' -> go_ctrl ctrl (go_list rest' succ)
        in
        mk_segment simples tail_entry
  and go_ctrl ctrl succ =
    match ctrl with
    | Stmt.If (c, t, e) ->
        let t_entry = go_list (flatten t []) succ in
        let e_entry = go_list (flatten e []) succ in
        mk_decision c None [| t_entry; e_entry |]
    | Stmt.Case (scrut, arms, dflt) ->
        let arm_entries =
          List.map (fun (_, arm) -> go_list (flatten arm []) succ) arms
        in
        let dflt_entry = go_list (flatten dflt []) succ in
        let labels = Array.of_list (List.map fst arms) in
        mk_decision scrut (Some labels)
          (Array.of_list (arm_entries @ [ dflt_entry ]))
    | Stmt.Block _ | Stmt.Assign _ | Stmt.Nonblock _ | Stmt.Mem_write _
    | Stmt.Skip ->
        assert false
  in
  let entry = go_list (flatten body []) exit_id in
  let nodes = Array.of_list (List.rev !rev_nodes) in
  let n_decisions =
    Array.fold_left
      (fun acc n -> match n with Decision _ -> acc + 1 | _ -> acc)
      0 nodes
  in
  let n_segments =
    Array.fold_left
      (fun acc n -> match n with Segment _ -> acc + 1 | _ -> acc)
      0 nodes
  in
  { nodes; entry; exit_id; n_decisions; n_segments }

(* Labels share the scrutinee's width (design validation), so payload
   equality is full equality. *)
let choose_i d v =
  match d.labels with
  | None -> if v <> 0L then 0 else 1
  | Some labels ->
      let n = Array.length labels in
      let rec scan i =
        if i >= n then n (* default target *)
        else if Int64.equal (Bits.to_int64 labels.(i)) v then i
        else scan (i + 1)
      in
      scan 0

let statement_count t =
  Array.fold_left
    (fun acc n ->
      match n with Segment s -> acc + List.length s.stmts | _ -> acc)
    0 t.nodes
