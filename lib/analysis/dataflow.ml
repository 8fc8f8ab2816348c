(** Generic iterative gen-kill dataflow over [Cfg], instantiated below as
    reaching definitions (forward) and liveness (backward).

    Both are union ("may") problems over finite fact sets, so the solver
    works with integer-indexed facts ([IntSet]) and a per-node gen/kill
    pair; transfer is the usual [out = gen ∪ (in \ kill)].  The solver
    sweeps round-robin until nothing changes, visiting nodes in the
    problem's direction: forward problems in index order, backward ones
    in reverse.  [Cfg.build] numbers nodes in statement order, so a fact
    crosses a straight-line run in one sweep and the number of sweeps
    grows with loop nesting, not with program length — which matters
    because a CFG can be a whole receiving-loop body of hundreds of
    statements (the lint's liveness). *)

open Lf_lang

module IntSet = Set.Make (Int)

type direction =
  | Forward
  | Backward

(** A gen-kill problem instance: per-node [gen]/[kill] sets over facts
    numbered [0 .. nfacts-1]. *)
type problem = {
  dir : direction;
  nfacts : int;
  gen : int -> IntSet.t;
  kill : int -> IntSet.t;
}

(** Per-node fixpoint solution. *)
type solution = {
  in_ : IntSet.t array;  (** facts on entry to the node *)
  out : IntSet.t array;  (** facts on exit from the node *)
}

let solve (cfg : Cfg.t) (p : problem) : solution =
  let n = Cfg.size cfg in
  let in_ = Array.make n IntSet.empty in
  let out = Array.make n IntSet.empty in
  let preds i = (Cfg.node cfg i).Cfg.pred in
  let succs i = (Cfg.node cfg i).Cfg.succ in
  (* [sources] feeds a node's input set; [into]/[from] select which of
     in_/out each equation updates, so one loop serves both directions. *)
  let sources, into, from =
    match p.dir with
    | Forward -> (preds, in_, out)
    | Backward -> (succs, out, in_)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 0 to n - 1 do
      let i = match p.dir with Forward -> k | Backward -> n - 1 - k in
      let meet =
        List.fold_left
          (fun acc j -> IntSet.union acc from.(j))
          IntSet.empty (sources i)
      in
      into.(i) <- meet;
      let next = IntSet.union (p.gen i) (IntSet.diff meet (p.kill i)) in
      if not (IntSet.equal next from.(i)) then begin
        from.(i) <- next;
        changed := true
      end
    done
  done;
  { in_; out }

(* ------------------------------------------------------------------ *)
(* Reaching definitions                                                *)
(* ------------------------------------------------------------------ *)

(** A definition site: node [ds_node] defines [ds_var].  [ds_must] is
    false for array-element stores, masked (WHERE) stores, and potential
    writes through subroutine arguments — those never kill other
    definitions of the same variable. *)
type def_site = {
  ds_id : int;
  ds_node : int;
  ds_var : string;
  ds_must : bool;
  ds_loc : Errors.pos option;
}

type reaching = {
  rd_cfg : Cfg.t;
  rd_defs : def_site array;  (** indexed by [ds_id] *)
  rd_sol : solution;  (** fact [i] = definition [rd_defs.(i)] reaches *)
}

let reaching_definitions (cfg : Cfg.t) : reaching =
  let defs = ref [] in
  let count = ref 0 in
  for i = 0 to Cfg.size cfg - 1 do
    let nd = Cfg.node cfg i in
    List.iter
      (fun (d : Cfg.def) ->
        defs :=
          {
            ds_id = !count;
            ds_node = i;
            ds_var = d.Cfg.def_var;
            ds_must = d.Cfg.def_must;
            ds_loc = nd.Cfg.loc;
          }
          :: !defs;
        incr count)
      (Cfg.defs nd)
  done;
  let defs = Array.of_list (List.rev !defs) in
  let by_var = Hashtbl.create 16 in
  Array.iter
    (fun d ->
      let prev =
        Option.value (Hashtbl.find_opt by_var d.ds_var) ~default:IntSet.empty
      in
      Hashtbl.replace by_var d.ds_var (IntSet.add d.ds_id prev))
    defs;
  let gens = Array.make (Cfg.size cfg) IntSet.empty in
  let kills = Array.make (Cfg.size cfg) IntSet.empty in
  Array.iter
    (fun d ->
      gens.(d.ds_node) <- IntSet.add d.ds_id gens.(d.ds_node);
      if d.ds_must then
        (* a must-definition kills every other def of the same variable *)
        kills.(d.ds_node) <-
          IntSet.union kills.(d.ds_node)
            (IntSet.remove d.ds_id (Hashtbl.find by_var d.ds_var)))
    defs;
  let sol =
    solve cfg
      {
        dir = Forward;
        nfacts = Array.length defs;
        gen = (fun i -> gens.(i));
        kill = (fun i -> kills.(i));
      }
  in
  { rd_cfg = cfg; rd_defs = defs; rd_sol = sol }

(** Definitions of [var] that reach the entry of node [node]. *)
let reaching_defs_of (r : reaching) ~node ~var : def_site list =
  IntSet.fold
    (fun i acc ->
      let d = r.rd_defs.(i) in
      if d.ds_var = var then d :: acc else acc)
    r.rd_sol.in_.(node) []
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

type liveness = {
  lv_cfg : Cfg.t;
  lv_vars : string array;  (** fact [i] = variable [lv_vars.(i)] is live *)
  lv_sol : solution;
}

let liveness (cfg : Cfg.t) : liveness =
  let tbl = Hashtbl.create 16 in
  let rev = ref [] in
  let id v =
    match Hashtbl.find_opt tbl v with
    | Some i -> i
    | None ->
        let i = Hashtbl.length tbl in
        Hashtbl.add tbl v i;
        rev := v :: !rev;
        i
  in
  let n = Cfg.size cfg in
  let gens = Array.make n IntSet.empty in
  let kills = Array.make n IntSet.empty in
  for i = 0 to n - 1 do
    let nd = Cfg.node cfg i in
    gens.(i) <- IntSet.of_list (List.map id (Cfg.uses nd));
    kills.(i) <-
      List.filter_map
        (fun (d : Cfg.def) ->
          if d.Cfg.def_must then Some (id d.Cfg.def_var) else None)
        (Cfg.defs nd)
      |> IntSet.of_list
  done;
  let vars = Array.of_list (List.rev !rev) in
  let sol =
    solve cfg
      {
        dir = Backward;
        nfacts = Array.length vars;
        gen = (fun i -> gens.(i));
        kill = (fun i -> kills.(i));
      }
  in
  { lv_cfg = cfg; lv_vars = vars; lv_sol = sol }

let to_vars (l : liveness) (s : IntSet.t) : string list =
  IntSet.fold (fun i acc -> l.lv_vars.(i) :: acc) s []
  |> List.sort String.compare

(** Variables live on entry to node [node]. *)
let live_in (l : liveness) node : string list = to_vars l l.lv_sol.in_.(node)

(** Variables live on exit from node [node]. *)
let live_out (l : liveness) node : string list = to_vars l l.lv_sol.out.(node)

(** Variables live on entry to the whole block (at the CFG entry node). *)
let live_at_entry (l : liveness) : string list =
  live_out l l.lv_cfg.Cfg.entry
