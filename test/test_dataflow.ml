(** Dataflow-framework tests: reaching definitions (must-kill vs may-def),
    liveness, and use-def/def-use chains on small blocks. *)

open Helpers
open Lf_lang.Ast
module Cfg = Lf_analysis.Cfg
module D = Lf_analysis.Dataflow
module Ch = Lf_analysis.Chains

let build src = Cfg.build (parse_block src)

let node_of cfg pred =
  let hit = ref None in
  Array.iter
    (fun n -> if !hit = None && pred n.Cfg.kind then hit := Some n.Cfg.id)
    cfg.Cfg.nodes;
  match !hit with
  | Some id -> id
  | None -> Alcotest.fail "expected node not found"

let assign_to cfg name =
  node_of cfg (function
    | Cfg.Stmt (SAssign (l, _)) -> l.lv_name = name
    | _ -> false)

let t_reaching_kill () =
  let cfg = build "a = 1\na = 2\nb = a" in
  let r = D.reaching_definitions cfg in
  let at_b = D.reaching_defs_of r ~node:(assign_to cfg "b") ~var:"a" in
  checki "the second assignment kills the first" 1 (List.length at_b);
  let d = List.hd at_b in
  checkb "the reaching def is the must-def of a" (d.D.ds_must && d.D.ds_var = "a");
  (* and it is the *later* definition *)
  checkb "it is the downstream definition"
    (match (Cfg.node cfg d.D.ds_node).Cfg.kind with
    | Cfg.Stmt (SAssign (_, EInt 2)) -> true
    | _ -> false)

let t_reaching_element_stores () =
  let cfg = build "x(i) = 1\nx(j) = 2\ns = x(k)" in
  let r = D.reaching_definitions cfg in
  let at_s = D.reaching_defs_of r ~node:(assign_to cfg "s") ~var:"x" in
  checki "element stores never kill: both reach" 2 (List.length at_s);
  checkb "both are may-defs" (List.for_all (fun d -> not d.D.ds_must) at_s)

let t_reaching_around_loop () =
  let cfg = build "s = 0\nDO i = 1, k\n  s = s + 1\nENDDO\nt = s" in
  let r = D.reaching_definitions cfg in
  let at_t = D.reaching_defs_of r ~node:(assign_to cfg "t") ~var:"s" in
  (* the zero-trip path keeps the initialisation alive alongside the
     in-loop update *)
  checki "init and loop update both reach past the loop" 2
    (List.length at_t)

let t_liveness () =
  let cfg = build "a = 1\nb = a + k\nc = 2" in
  let l = D.liveness cfg in
  checkb "only the never-defined input is live at entry"
    (D.live_at_entry l = [ "k" ]);
  checkb "a is live into its use"
    (List.mem "a" (D.live_in l (assign_to cfg "b")))

let t_liveness_loop () =
  let cfg = build "DO i = 1, k\n  s = s + 1\nENDDO" in
  let l = D.liveness cfg in
  let live = D.live_at_entry l in
  checkb "loop-carried scalar is live at entry" (List.mem "s" live);
  checkb "the bound is live at entry" (List.mem "k" live);
  checkb "the induction variable is not (the header kills it)"
    (not (List.mem "i" live))

let t_chains () =
  let cfg = build "a = 1\nIF (p) THEN\n  a = 2\nENDIF\nb = a" in
  let ch = Ch.build cfg in
  let use_b = assign_to cfg "b" in
  checki "both branches' definitions reach the merged use" 2
    (List.length (Ch.defs_reaching ch ~node:use_b ~var:"a"));
  (* def-use: the initial a = 1 feeds the use after the IF *)
  let d1 =
    List.find
      (fun d ->
        match (Cfg.node cfg d.D.ds_node).Cfg.kind with
        | Cfg.Stmt (SAssign (_, EInt 1)) -> true
        | _ -> false)
      (Ch.defs_of_var ch "a")
  in
  checkb "def-use chain links a = 1 to the use"
    (List.exists (fun u -> u.Ch.us_node = use_b) (Ch.uses_of_def ch d1.D.ds_id));
  checkb "p has an upward-exposed use (never defined)"
    (Ch.upward_exposed ch "p" <> []);
  checkb "a has no upward-exposed use (defined on every path)"
    (Ch.upward_exposed ch "a" = [])

(* ------------------------------------------------------------------ *)
(* Differential oracle: a naive fixpoint                               *)
(* ------------------------------------------------------------------ *)

module SS = Set.Make (String)

module PS = Set.Make (struct
  type t = int * string

  let compare = compare
end)

(* Iterate [step] over every node, in index order, until no node's
   facts change. *)
let naive_fixpoint n step =
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if step i then changed := true
    done
  done

let must_kills nd =
  List.filter_map
    (fun (d : Cfg.def) -> if d.Cfg.def_must then Some d.Cfg.def_var else None)
    (Cfg.defs nd)

(* Liveness straight from its equations, over string sets. *)
let naive_liveness (cfg : Cfg.t) =
  let n = Cfg.size cfg in
  let live_in = Array.make n SS.empty and live_out = Array.make n SS.empty in
  naive_fixpoint n (fun i ->
      let nd = Cfg.node cfg i in
      let out =
        List.fold_left (fun acc s -> SS.union acc live_in.(s)) SS.empty
          nd.Cfg.succ
      in
      let in_ =
        SS.union (SS.of_list (Cfg.uses nd))
          (SS.diff out (SS.of_list (must_kills nd)))
      in
      let changed =
        not (SS.equal out live_out.(i) && SS.equal in_ live_in.(i))
      in
      live_out.(i) <- out;
      live_in.(i) <- in_;
      changed);
  (live_in, live_out)

(* Reaching definitions from their equations, a definition being its
   (node, variable) pair. *)
let naive_reaching (cfg : Cfg.t) =
  let n = Cfg.size cfg in
  let rin = Array.make n PS.empty and rout = Array.make n PS.empty in
  naive_fixpoint n (fun i ->
      let nd = Cfg.node cfg i in
      let in_ =
        List.fold_left (fun acc p -> PS.union acc rout.(p)) PS.empty
          nd.Cfg.pred
      in
      let kills = must_kills nd in
      let out =
        PS.union
          (PS.of_list (List.map (fun (d : Cfg.def) -> (i, d.Cfg.def_var))
                         (Cfg.defs nd)))
          (PS.filter (fun (m, v) -> m = i || not (List.mem v kills)) in_)
      in
      let changed = not (PS.equal in_ rin.(i) && PS.equal out rout.(i)) in
      rin.(i) <- in_;
      rout.(i) <- out;
      changed);
  rin

(* Random graphs: arbitrary edges (back edges, irreducible loops,
   unreachable nodes) over assignment, header and join nodes, beside
   the CFGs of random structured blocks. *)
let random_cfg_gen =
  let open QCheck.Gen in
  let var = oneofl [ "a"; "b"; "c"; "d" ] in
  let kind =
    frequency
      [
        ( 4,
          map3
            (fun v idx rhs ->
              Cfg.Stmt
                (SAssign
                   ( { lv_name = v; lv_index = (if idx then [ EVar "c" ] else []) },
                     rhs )))
            var bool
            (map2 (fun x y -> EBin (Add, EVar x, EVar y)) var var) );
        ( 1,
          map2
            (fun v hi -> Cfg.Head (do_control v (EInt 1) (EVar hi), false))
            var var );
        (1, return Cfg.Join);
      ]
  in
  let graph =
    let* n = 2 -- 14 in
    let* kinds = list_repeat (n - 2) kind in
    let* masked = list_repeat (n - 2) (frequency [ (4, return false); (1, return true) ]) in
    let* succs = list_repeat (n - 1) (list_size (1 -- 3) (1 -- (n - 1))) in
    let nodes =
      Array.init n (fun id ->
          {
            Cfg.id;
            kind =
              (if id = 0 then Cfg.Entry
               else if id = n - 1 then Cfg.Exit
               else List.nth kinds (id - 1));
            loc = None;
            masked = id > 0 && id < n - 1 && List.nth masked (id - 1);
            succ = [];
            pred = [];
          })
    in
    List.iteri
      (fun i ss ->
        List.iter
          (fun j ->
            let a = nodes.(i) and b = nodes.(j) in
            if not (List.mem j a.Cfg.succ) then begin
              a.Cfg.succ <- a.Cfg.succ @ [ j ];
              b.Cfg.pred <- b.Cfg.pred @ [ i ]
            end)
          ss)
      succs;
    return { Cfg.nodes; entry = 0; exit_ = n - 1 }
  in
  frequency [ (2, graph); (1, map Cfg.build Gen.block) ]

let prop_solver_equals_naive =
  qcheck_case ~count:500 "liveness and reaching defs equal a naive fixpoint"
    random_cfg_gen (fun cfg ->
      let n = Cfg.size cfg in
      let live = D.liveness cfg and reach = D.reaching_definitions cfg in
      let live_in, live_out = naive_liveness cfg in
      let rin = naive_reaching cfg in
      let vars =
        Array.to_list cfg.Cfg.nodes
        |> List.concat_map (fun nd ->
               Cfg.uses nd
               @ List.map (fun (d : Cfg.def) -> d.Cfg.def_var) (Cfg.defs nd))
        |> List.sort_uniq String.compare
      in
      List.for_all
        (fun i ->
          D.live_in live i = SS.elements live_in.(i)
          && D.live_out live i = SS.elements live_out.(i)
          && List.for_all
               (fun var ->
                 List.map
                   (fun d -> (d.D.ds_node, d.D.ds_var))
                   (D.reaching_defs_of reach ~node:i ~var)
                 |> List.sort compare
                 = PS.elements (PS.filter (fun (_, v) -> v = var) rin.(i)))
               vars)
        (List.init n Fun.id))

let suite =
  [
    case "reaching defs: must-defs kill" t_reaching_kill;
    case "reaching defs: element stores are may-defs" t_reaching_element_stores;
    case "reaching defs: zero-trip loop path" t_reaching_around_loop;
    case "liveness on straight-line code" t_liveness;
    case "liveness across a loop" t_liveness_loop;
    case "use-def and def-use chains" t_chains;
    prop_solver_equals_naive;
  ]
