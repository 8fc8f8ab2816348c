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
    when List.mem (Intrinsics.key name) fusible_intrinsics
         && not (Intrinsics.is_reduction name) ->
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
        emit (OIntr (Intrinsics.key name, ia))
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
  | XCall (name, ([ a ] as args)) when Intrinsics.is_reduction name -> (
      match fusible_ops a with
      | Some n when n >= 1 ->
          e.x_fused <-
            Some (FReduce (Intrinsics.key name, build_region a))
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
    argument conversion before the next statement runs.

    The planner walks that order three times over the same state,
    allocating nothing per step: the sites an evaluation step reads sit
    on an int stack from their definitions until the step pops them.
    Walk 1 numbers the sites in definition order (in [x_scr]) and
    records each one's last use; walk 2 gives each site, at its
    definition, the smallest group no live site holds (a site last used
    at a defining step is dead there, so the result may alias an
    operand); walk 3 replaces each site's number by its group. *)
type planner = {
  mutable walk : int;  (** 1, 2 or 3 *)
  mutable step : int;  (** the evaluation step being walked *)
  mutable nsites : int;
  mutable stack : int array;  (** sites awaiting the step that reads them *)
  mutable sp : int;
  mutable last : int array;  (** a site's last use step, [-1] if none *)
  mutable group : int array;
  mutable held : Bytes.t;  (** a group held by a live site *)
  mutable ngroups : int;
}

let grow a n = Array.append a (Array.make (max 16 n) (-1))

let push_site pl t =
  if pl.sp = Array.length pl.stack then pl.stack <- grow pl.stack pl.sp;
  Array.unsafe_set pl.stack pl.sp t;
  pl.sp <- pl.sp + 1

(* A non-negative [x_scr] is a site's number (walks 1 and 2). *)
let push_if_site pl (e : expr) = if e.x_scr >= 0 then push_site pl e.x_scr

(* The current step reads the sites pushed from [mark] on and pops them. *)
let uses pl mark =
  (match pl.walk with
  | 1 ->
      for j = mark to pl.sp - 1 do
        pl.last.(pl.stack.(j)) <- pl.step
      done
  | 2 ->
      for j = mark to pl.sp - 1 do
        let t = pl.stack.(j) in
        if pl.last.(t) = pl.step then Bytes.set pl.held pl.group.(t) '\000'
      done
  | _ -> ());
  pl.sp <- mark

let use_step pl mark =
  uses pl mark;
  pl.step <- pl.step + 1

let rec free_group held g =
  if Bytes.get held g = '\000' then g else free_group held (g + 1)

(* The current step reads the sites pushed from [mark] on, then defines
   the site [e], which it leaves on the stack. *)
let def_step pl mark (e : expr) =
  uses pl mark;
  (match pl.walk with
  | 1 ->
      if pl.nsites = Array.length pl.last then
        pl.last <- grow pl.last pl.nsites;
      e.x_scr <- pl.nsites;
      pl.nsites <- pl.nsites + 1
  | 2 ->
      let t = e.x_scr in
      let g = free_group pl.held 0 in
      pl.group.(t) <- g;
      if pl.last.(t) > pl.step then Bytes.set pl.held g '\001';
      if g >= pl.ngroups then pl.ngroups <- g + 1
  | _ -> ());
  push_site pl e.x_scr;
  if pl.walk = 3 then e.x_scr <- pl.group.(e.x_scr);
  pl.step <- pl.step + 1

(* Mirrors the emitter's evaluation order; leaves the expression's site,
   if it is one, on the stack. *)
let rec plan_expr pl (e : expr) =
  match e.x_fused with
  | Some (FReduce _) ->
      (* folds straight to a front-end scalar: no result buffers *)
      use_step pl pl.sp
  | None -> (
      let mark = pl.sp in
      match e.x_node with
      | XConst _ | XVar _ -> ()
      | XRange (lo, hi) ->
          plan_expr pl lo;
          plan_expr pl hi;
          use_step pl mark
      | XUn (_, a) ->
          plan_expr pl a;
          def_step pl mark e
      | XBin (_, a, b) ->
          plan_expr pl a;
          plan_expr pl b;
          def_step pl mark e
      | XCall (name, args) when Intrinsics.is_reduction name ->
          plan_exprs pl args;
          use_step pl mark
      | XCall (_, args) | XIdx (_, _, args) ->
          plan_exprs pl args;
          def_step pl mark e)

and plan_exprs pl = function
  | [] -> ()
  | e :: rest ->
      plan_expr pl e;
      plan_exprs pl rest

let rec plan_stmt pl (s : stmt) =
  let mark = pl.sp in
  match s.s_node with
  | LLoc (_, inner) -> plan_stmt pl inner
  | LNop | LGoto -> ()
  | LAssign (l, e) ->
      plan_expr pl e;
      plan_exprs pl l.l_index;
      (* the merged scatter-accumulate pass re-reads the gather, the
         addend and the gather's subscript: they stay live through the
         store *)
      (if s.s_accum then
         match e.x_node with
         | XBin (_, g, rest) -> (
             push_if_site pl g;
             push_if_site pl rest;
             match g.x_node with
             | XIdx (_, _, [ gix ]) -> push_if_site pl gix
             | _ -> ())
         | _ -> ());
      use_step pl mark
  | LScall (_, args) ->
      plan_args pl args;
      use_step pl mark
  | LIf (c, t, f) | LWhere (c, t, f) ->
      plan_expr pl c;
      use_step pl mark;
      plan_block pl t;
      plan_block pl f
  | LWhile (c, b) ->
      plan_expr pl c;
      use_step pl mark;
      plan_block pl b
  | LDoWhile (b, c) ->
      plan_block pl b;
      plan_expr pl c;
      use_step pl mark
  | LDo (_, _, lo, hi, step, b) ->
      (* step, hi, lo: the order the planner has always numbered them in *)
      (match step with Some e -> plan_expr pl e | None -> ());
      plan_expr pl hi;
      plan_expr pl lo;
      use_step pl mark;
      plan_block pl b

and plan_args pl = function
  | [] -> ()
  | (a, _) :: rest ->
      plan_expr pl a;
      plan_args pl rest

and plan_block pl (b : block) =
  for i = 0 to Array.length b - 1 do
    plan_stmt pl (Array.unsafe_get b i)
  done

let plan_scratch (b : block) : int * int =
  let pl =
    {
      walk = 1;
      step = 0;
      nsites = 0;
      stack = Array.make 16 (-1);
      sp = 0;
      last = Array.make 64 (-1);
      group = [||];
      held = Bytes.empty;
      ngroups = 0;
    }
  in
  let walk k =
    pl.walk <- k;
    pl.step <- 0;
    plan_block pl b
  in
  walk 1;
  pl.group <- Array.make pl.nsites (-1);
  pl.held <- Bytes.make pl.nsites '\000';
  walk 2;
  walk 3;
  (pl.nsites, pl.ngroups)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Compile-time optimizer telemetry (section [Opt]: deterministic for a
   given program and [-O] level, independent of the engine).
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
