open Rtlir

type t = { cfg : Cfg.t; next : int array; interesting : bool array }

let build (cfg : Cfg.t) =
  let n = Array.length cfg.nodes in
  let interesting = Array.make n true in
  Array.iteri
    (fun i node ->
      match node with
      | Cfg.Segment s ->
          interesting.(i) <-
            not
              (Array.length s.reads = 0
              && Array.length s.read_mems = 0
              && Array.length s.blocking = 0)
      | Cfg.Decision _ | Cfg.Exit -> ())
    cfg.nodes;
  (* Compress chains of boring segments with a memoised fixpoint over the
     acyclic graph. *)
  let next = Array.make n (-1) in
  let rec resolve i =
    match cfg.nodes.(i) with
    | Cfg.Segment s when not interesting.(i) ->
        if next.(i) >= 0 then next.(i)
        else begin
          let r = resolve s.succ in
          next.(i) <- r;
          r
        end
    | Cfg.Segment _ | Cfg.Decision _ | Cfg.Exit -> i
  in
  for i = 0 to n - 1 do
    match cfg.nodes.(i) with
    | Cfg.Segment s -> next.(i) <- resolve s.succ
    | Cfg.Decision _ | Cfg.Exit -> ()
  done;
  { cfg; next; interesting }

let dependency_node_count t =
  let count = ref 0 in
  Array.iteri
    (fun i node ->
      match node with
      | Cfg.Segment _ -> if t.interesting.(i) then incr count
      | Cfg.Decision _ | Cfg.Exit -> ())
    t.cfg.nodes;
  !count

module Iset = Set.Make (Int)

(* Algorithm 1 over masked int64 payloads (see {!Rtlir.Bitops}). *)
let redundant_i t ~good_choice ~eval_good ~eval_fault ~visible
    ~mem_word_visible =
  let nodes = t.cfg.nodes in
  (* A memory-read site is fault-invisible when its address — recomputed
     from already-checked-equal values — hits no differing word. An address
     that reads a locally-written signal cannot be re-evaluated against
     pre-execution state, so it is conservatively non-redundant. *)
  let site_clean written (m, addr_e) =
    (Iset.is_empty written
    || not
         (List.exists
            (fun s -> Iset.mem s written)
            (Expr.read_signals addr_e)))
    && not (mem_word_visible m (eval_good addr_e))
  in
  let rec walk cur written =
    match nodes.(cur) with
    | Cfg.Exit -> true
    | Cfg.Decision d ->
        let gc = good_choice cur in
        let reads_local =
          Array.exists (fun s -> Iset.mem s written) d.sel_reads
        in
        let same_path =
          if reads_local then
            (* fall back to visibility of the selector's external data *)
            (not
               (Array.exists
                  (fun s -> (not (Iset.mem s written)) && visible s)
                  d.sel_reads))
            && Array.for_all (site_clean written) d.sel_mem_sites
          else
            (* re-evaluate the selector under the faulty values (memory
               reads included — a changed word that does not flip the
               branch stays redundant) *)
            Cfg.choose_i d (eval_fault d.selector) = gc
        in
        if not same_path then false else walk d.targets.(gc) written
    | Cfg.Segment s ->
        if not t.interesting.(cur) then walk t.next.(cur) written
        else if
          Array.exists
            (fun r -> (not (Iset.mem r written)) && visible r)
            s.reads
          || not (Array.for_all (site_clean written) s.mem_sites)
        then false
        else
          let written =
            Array.fold_left (fun acc w -> Iset.add w acc) written s.blocking
          in
          walk t.next.(cur) written
  in
  walk t.cfg.entry Iset.empty
