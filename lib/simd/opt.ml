(** The optimizer pipeline over the slot-resolved IR ([Ir]).

    [run ~level] is the identity at [-O0].  At [-O1] it applies, in
    order:

    + {b reduction fusion} — a reduction call whose argument is a
      fusible subtree (elementwise arithmetic / comparison / logic,
      unary numeric intrinsics and global-array gathers over
      variable/literal leaves) is annotated [Ir.FReduce], so the fold
      happens inside the chunked merge tree without materializing the
      argument.  Region construction value-numbers its postorder
      program, so a gather or subexpression repeated within the
      argument (CSE) is evaluated once per lane;
    + {b scatter-accumulate} — [a(ix) = a(ix) + e] with a pure
      arithmetic subscript is annotated [s_accum]: the emitter may merge
      the final add into the scatter pass;
    + {b scratch planning} — every buffer-bearing site (binary/unary
      operators, gathers, calls) is assigned a recycled scratch group in
      [Frame] by one walk over the linearized evaluation order: a site
      lives from its definition to its last use (never past its
      statement), and each new site takes the smallest group no live
      site holds, so sites whose result buffers are never simultaneously
      live share a group and steady-state vector-op execution allocates
      nothing.

    [-O2] runs the same pipeline as [-O1].

    Every annotation is advisory: the emitter re-validates fusibility
    against runtime operand shapes and falls back to the unoptimized
    evaluation order whenever the typed plan does not apply, which is
    what keeps [-O1] bit-identical to [-O0].  Under [?verify] every
    phase boundary additionally runs the independent IR verifier
    ([Verify]); [?dump] receives each phase's annotated IR by name. *)

open Lf_lang
open Ir

(* ------------------------------------------------------------------ *)
(* Reduction fusion                                                    *)
(* ------------------------------------------------------------------ *)

(** Number of interior (operator) nodes if the subtree is fusible:
    leaves are slot-resolved variables and literals; interior nodes are
    non-POW binary operators, unary operators, fusible unary intrinsics
    and rank-1/2 gathers.  POW is excluded (its int/real result split is
    per-lane), ranges and general calls break the region. *)
let rec fusible_ops (e : expr) : int option =
  match e.x_node with
  | XConst (Values.VInt _ | Values.VReal _ | Values.VBool _) -> Some 0
  | XConst _ -> None
  | XVar (Some _, _) -> Some 0
  | XVar (None, _) -> None
  | XRange _ -> None
  | XUn (_, a) -> Option.map (fun n -> n + 1) (fusible_ops a)
  | XBin (Ast.Pow, _, _) -> None
  | XBin (_, a, b) -> (
      match (fusible_ops a, fusible_ops b) with
      | Some x, Some y -> Some (x + y + 1)
      | _ -> None)
  | XCall (name, [ a ])
    when List.mem (String.lowercase_ascii name) fusible_intrinsics
         && not (is_reduction name) ->
      Option.map (fun n -> n + 1) (fusible_ops a)
  | XCall _ -> None
  | XIdx (_, _, args) when List.length args >= 1 && List.length args <= 2 ->
      List.fold_left
        (fun acc a ->
          match (acc, fusible_ops a) with
          | Some x, Some y -> Some (x + y)
          | _ -> None)
        (Some 1) args
  | XIdx _ -> None

(** Build the postorder region program for a fusible subtree,
    value-numbering every instruction: a repeated gather, variable read
    or subexpression gets a single slot (CSE within the statement; sound
    because region leaves are pure and nothing can write between two
    occurrences inside one expression). *)
let build_region (e : expr) : region =
  let ops = ref [] in
  let n = ref 0 in
  let tbl = Hashtbl.create 16 in
  let emit (op : rop) : int =
    match Hashtbl.find_opt tbl op with
    | Some id -> id
    | None ->
        let id = !n in
        incr n;
        ops := op :: !ops;
        Hashtbl.add tbl op id;
        id
  in
  let rec go e =
    match e.x_node with
    | XConst v -> emit (OConst v)
    | XVar (Some slot, name) -> emit (OVar (slot, name))
    | XUn (op, a) ->
        let ia = go a in
        emit (OUn (op, ia))
    | XBin (op, a, b) ->
        let ia = go a in
        let ib = go b in
        emit (OBin (op, ia, ib))
    | XCall (name, [ a ]) ->
        let ia = go a in
        emit (OIntr (String.lowercase_ascii name, ia))
    | XIdx (slot, name, args) ->
        let ix = List.map go args in
        emit (OGather (slot, name, Array.of_list ix))
    | _ -> assert false (* excluded by [fusible_ops] *)
  in
  let root = go e in
  assert (root = !n - 1);
  { rg_ops = Array.of_list (List.rev !ops) }

(* Elementwise subtrees stay unfused: the unfused engine runs each
   operator and intrinsic as a typed lane kernel, and a fused loop only
   trades its scratch buffers for an indirect call per operand per lane.
   A reduction is different: folding the region into the merge tree also
   skips materializing and renormalizing the argument vector. *)
let rec annotate_expr (e : expr) : unit =
  match e.x_node with
  | XConst _ | XVar _ -> ()
  | XRange (a, b) | XBin (_, a, b) ->
      annotate_expr a;
      annotate_expr b
  | XUn (_, a) -> annotate_expr a
  | XCall (name, ([ a ] as args)) when is_reduction name -> (
      match fusible_ops a with
      | Some n when n >= 1 ->
          e.x_fused <-
            Some (FReduce (String.lowercase_ascii name, build_region a))
      | _ -> List.iter annotate_expr args)
  | XCall (_, args) | XIdx (_, _, args) -> List.iter annotate_expr args

(* ------------------------------------------------------------------ *)
(* Scatter-accumulate                                                  *)
(* ------------------------------------------------------------------ *)

(** Pure, deterministic and frame-only: safe to evaluate once where the
    unoptimized engine evaluates twice (gather subscript and scatter
    subscript are the same expression).  Function calls are excluded
    (impure callees observe invocation counts), as are gathers (a call
    in between could mutate the global being read). *)
let rec pure_arith (e : expr) : bool =
  match e.x_node with
  | XConst _ | XVar (Some _, _) -> true
  | XUn (_, a) -> pure_arith a
  | XBin (_, a, b) -> pure_arith a && pure_arith b
  | _ -> false

let mark_accum (s : stmt) : unit =
  match s.s_node with
  | LAssign ({ l_slot; l_index = [ ix ]; _ }, rhs) when rhs.x_fused = None -> (
      match rhs.x_node with
      | XBin (Ast.Add, g, _rest) -> (
          match g.x_node with
          | XIdx (gslot, _, [ gix ])
            when gslot = l_slot && gix.x_ast = ix.x_ast && pure_arith ix ->
              s.s_accum <- true
          | _ -> ())
      | _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Statement walks                                                     *)
(* ------------------------------------------------------------------ *)

(* [f] on every node of an expression tree, root first. *)
let rec iter_expr f (e : expr) : unit =
  f e;
  match e.x_node with
  | XConst _ | XVar _ -> ()
  | XRange (a, b) | XBin (_, a, b) ->
      iter_expr f a;
      iter_expr f b
  | XUn (_, a) -> iter_expr f a
  | XCall (_, args) | XIdx (_, _, args) -> List.iter (iter_expr f) args

let rec walk_stmt_exprs f (s : stmt) : unit =
  match s.s_node with
  | LLoc (_, inner) -> walk_stmt_exprs f inner
  | LNop | LGoto -> ()
  | LAssign (l, e) ->
      f e;
      List.iter f l.l_index
  | LScall (_, args) -> List.iter (fun (a, _) -> f a) args
  | LIf (c, t, bf) | LWhere (c, t, bf) ->
      f c;
      Array.iter (walk_stmt_exprs f) t;
      Array.iter (walk_stmt_exprs f) bf
  | LWhile (c, b) ->
      f c;
      Array.iter (walk_stmt_exprs f) b
  | LDoWhile (b, c) ->
      Array.iter (walk_stmt_exprs f) b;
      f c
  | LDo (_, _, lo, hi, step, b) ->
      f lo;
      f hi;
      Option.iter f step;
      Array.iter (walk_stmt_exprs f) b

let rec walk_stmts f (s : stmt) : unit =
  f s;
  match s.s_node with
  | LLoc (_, inner) -> walk_stmts f inner
  | LIf (_, t, bf) | LWhere (_, t, bf) ->
      Array.iter (walk_stmts f) t;
      Array.iter (walk_stmts f) bf
  | LWhile (_, b) | LDoWhile (b, _) | LDo (_, _, _, _, _, b) ->
      Array.iter (walk_stmts f) b
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Scratch planning (live intervals over the evaluation order)         *)
(* ------------------------------------------------------------------ *)

(** A site is an IR node whose evaluation owns result buffers (the
    per-site [ri]/[rr]/[rb] arrays of the emitter).  The linearized
    evaluation order is exact within a statement (operands before
    operators, right siblings after left, subscripts after an
    assignment's right-hand side) and conservative across statements —
    which is enough, because no site's result survives its statement:
    it is consumed by a store, a mask split, a reduction fold or an
    argument conversion before the next statement runs. *)
type step = {
  st_uses : int list;
  st_def : int option;
}

(** The evaluation steps of [b] and its sites, numbered in definition
    order; each site's number is written to its [x_scr] for the
    scatter-accumulate step to read. *)
let scratch_steps (b : block) : step array * expr array =
  let sites : expr list ref = ref [] in
  let nsites = ref 0 in
  let steps : step list ref = ref [] in
  let new_temp (e : expr) =
    let id = !nsites in
    incr nsites;
    sites := e :: !sites;
    id
  in
  let push uses def = steps := { st_uses = uses; st_def = def } :: !steps in
  (* Returns the temp holding the expression's result buffers, if the
     node owns any.  Mirrors the emitter's evaluation order. *)
  let rec ex (e : expr) : int option =
    match e.x_fused with
    | Some (FReduce _) ->
        (* folds straight to a front-end scalar: no result buffers *)
        push [] None;
        None
    | None -> (
        match e.x_node with
        | XConst _ | XVar _ -> None
        | XRange (lo, hi) ->
            let a = ex lo in
            let b = ex hi in
            push (List.filter_map Fun.id [ a; b ]) None;
            None
        | XUn (_, a) ->
            let ta = ex a in
            let t = new_temp e in
            e.x_scr <- t;
            push (Option.to_list ta) (Some t);
            Some t
        | XBin (_, a, b) ->
            let ta = ex a in
            let tb = ex b in
            let t = new_temp e in
            e.x_scr <- t;
            push (List.filter_map Fun.id [ ta; tb ]) (Some t);
            Some t
        | XCall (name, args) when is_reduction name ->
            let ts = List.filter_map ex args in
            push ts None;
            None
        | XCall (_, args) ->
            let ts = List.filter_map ex args in
            let t = new_temp e in
            e.x_scr <- t;
            push ts (Some t);
            Some t
        | XIdx (_, _, args) ->
            let ts = List.filter_map ex args in
            let t = new_temp e in
            e.x_scr <- t;
            push ts (Some t);
            Some t)
  in
  let rec st (s : stmt) : unit =
    match s.s_node with
    | LLoc (_, inner) -> st inner
    | LNop | LGoto -> ()
    | LAssign (l, e) ->
        let te = ex e in
        let tix = List.filter_map ex l.l_index in
        (* the merged scatter-accumulate pass additionally reads the
           subscript evaluated inside the gather; it is covered by [te]
           (the gather is part of the right-hand side's subtree and its
           temp is kept live through the final step) *)
        let extra =
          if s.s_accum then
            match e.x_node with
            | XBin (_, g, rest) ->
                let t e = if e.x_scr >= 0 then [ e.x_scr ] else [] in
                t g @ t rest
                @ (match g.x_node with
                  | XIdx (_, _, [ gix ]) -> t gix
                  | _ -> [])
            | _ -> []
          else []
        in
        push (Option.to_list te @ tix @ extra) None
    | LScall (_, args) ->
        let ts = List.filter_map (fun (a, _) -> ex a) args in
        push ts None
    | LIf (c, t, f) | LWhere (c, t, f) ->
        let tc = ex c in
        push (Option.to_list tc) None;
        Array.iter st t;
        Array.iter st f
    | LWhile (c, b) ->
        let tc = ex c in
        push (Option.to_list tc) None;
        Array.iter st b
    | LDoWhile (b, c) ->
        Array.iter st b;
        let tc = ex c in
        push (Option.to_list tc) None
    | LDo (_, _, lo, hi, step, b) ->
        let ts =
          List.filter_map Fun.id
            [ ex lo; ex hi; Option.bind step ex ]
        in
        push ts None;
        Array.iter st b
  in
  Array.iter st b;
  (Array.of_list (List.rev !steps), Array.of_list (List.rev !sites))

let plan_scratch (b : block) : int * int =
  let steps, sites = scratch_steps b in
  let ntemps = Array.length sites in
  (* Temps are numbered in definition order and every use follows its
     definition, so a temp is live from its def step up to its last use.
     One walk assigns each new temp the smallest group no live temp
     holds; a temp last used at a def step is dead there, so the result
     may alias an operand. *)
  let last = Array.make ntemps (-1) in
  Array.iteri (fun i st -> List.iter (fun t -> last.(t) <- i) st.st_uses) steps;
  let color = Array.make ntemps (-1) in
  let held = Array.make ntemps false in
  Array.iteri
    (fun i st ->
      List.iter (fun t -> if last.(t) = i then held.(color.(t)) <- false)
        st.st_uses;
      Option.iter
        (fun d ->
          let rec first g = if held.(g) then first (g + 1) else g in
          color.(d) <- first 0;
          held.(color.(d)) <- last.(d) > i)
        st.st_def)
    steps;
  Array.iteri (fun t site -> site.x_scr <- color.(t)) sites;
  (ntemps, 1 + Array.fold_left max (-1) color)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Compile-time optimizer telemetry (section [Opt]: deterministic for a
   given program and [-O] level, independent of the engine and jobs).
   Counters accumulate across optimizer invocations — one per compile,
   so one per [Vm.run] with a compiled engine. *)
module Stats = Lf_obs.Stats

let st_fused_reductions =
  Stats.counter ~section:Stats.Opt "opt.fused_reductions"

let st_accum_marks = Stats.counter ~section:Stats.Opt "opt.accum_marks"
let st_scratch_sites = Stats.counter ~section:Stats.Opt "opt.scratch_sites"
let st_scratch_groups = Stats.counter ~section:Stats.Opt "opt.scratch_groups"

let st_scratch_reused =
  Stats.counter ~section:Stats.Opt "opt.scratch_reused"

let record_stats (b : block) ~sites ~groups =
  let reduces = ref 0 and accums = ref 0 in
  Array.iter
    (walk_stmt_exprs
       (iter_expr (fun e -> if Option.is_some e.x_fused then incr reduces)))
    b;
  Array.iter (walk_stmts (fun s -> if s.s_accum then incr accums)) b;
  Stats.add st_fused_reductions !reduces;
  Stats.add st_accum_marks !accums;
  Stats.add st_scratch_sites sites;
  Stats.add st_scratch_groups groups;
  Stats.add st_scratch_reused (sites - groups)

(** The named phase sequence: each entry is checked/dumped separately
    under [?verify]/[?dump].  "lower" is the un-optimized input (the
    only phase at [-O0]). *)
let phases = [ "lower"; "fuse"; "accum"; "scratch" ]

(* Test-only fault injection (the fuzzer's acceptance check drives it):
   when set, the pipeline deliberately mis-plans scratch right after the
   "scratch" phase — every buffer-owning site claims group 0, the
   canonical "buggy register allocator".  Under [?verify] the verifier's
   interference rule catches it at that phase boundary; without it, two
   simultaneously live results share one buffer and the engines
   observably diverge.  Always [false] in production. *)
let chaos_scratch = ref false

let run ~level ~(frame : Frame.t) ?(verify = false) ?dump (b : block) : block
    =
  let phase name f =
    f ();
    if !chaos_scratch && name = "scratch" then
      Array.iter
        (walk_stmt_exprs
           (iter_expr (fun e -> if e.x_scr > 0 then e.x_scr <- 0)))
        b;
    (match dump with Some d -> d name b | None -> ());
    if verify then Verify.check_ir ~frame ~phase:name b
  in
  phase "lower" (fun () -> ());
  if level >= 1 then begin
    phase "fuse" (fun () -> Array.iter (walk_stmt_exprs annotate_expr) b);
    phase "accum" (fun () -> Array.iter (walk_stmts mark_accum) b);
    let sg = ref (0, 0) in
    phase "scratch" (fun () -> sg := plan_scratch b);
    let sites, groups = !sg in
    if Stats.enabled () then record_stats b ~sites ~groups
  end;
  b
