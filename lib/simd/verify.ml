(** Typed verifier for the slot-resolved IR ([Ir]).

    The optimizer's annotations are advisory — the emitter revalidates
    them against runtime shapes — but a wrong annotation can still turn
    into a silently different program (a scratch group shared by two
    live buffers).
    The verifier independently re-derives every claim after lowering and
    after each optimizer phase, so a broken phase is caught at the phase
    boundary with a located, rule-coded diagnostic instead of surfacing
    as a bad answer three layers later.

    Checks are re-derivations, not replays: the scratch rule re-runs its
    own backward liveness over the linearized evaluation order.
    Diagnostics reuse the [Lint] record so
    the CLIs render them with the same file/line/caret style as
    flattenlint, under a distinct IR-prefixed rule family. *)

open Lf_lang
open Ir
module Lint = Lf_analysis.Lint
module Stats = Lf_obs.Stats

(** Rule codes with one-line summaries, for [flattenlint --rules].
    The codes skip 5 and end at 6: code 5 checked the
    mask-simplification phase's claims and code 7 the value-range
    phase's, each went with its phase, and a code is never reused, so
    every other code keeps its meaning. *)
let rules =
  [
    ("IR001", "every slot reference resolves in the frame to the same name");
    ("IR002", "fused regions are postorder: operands precede users, \
               the root is last");
    ("IR003", "FReduce regions hold only fusible ops (no POW, no \
               non-intrinsic calls) under a reduction head");
    ("IR004", "scratch groups are interference-free: two buffers never \
               share a group while simultaneously live");
    ("IR006", "scatter-accumulate claims match the a(ix) = a(ix) + e \
               shape with a pure subscript");
  ]

let rule_doc code = List.assoc_opt code rules

exception Error of Lint.diag list

(* ------------------------------------------------------------------ *)
(* Diagnostic accumulation with nearest enclosing location             *)
(* ------------------------------------------------------------------ *)

type ctx = {
  frame : Frame.t;
  mutable diags : Lint.diag list;  (** reverse order *)
  mutable nchecks : int;
}

let fail ctx ~loc rule fmt =
  Fmt.kstr
    (fun msg ->
      ctx.diags <-
        {
          Lint.d_rule = rule;
          d_severity = Lint.Error;
          d_loc = loc;
          d_msg = msg;
        }
        :: ctx.diags)
    fmt

let check ctx ok ~loc rule fmt =
  ctx.nchecks <- ctx.nchecks + 1;
  if ok then Fmt.kstr (fun _ -> ()) fmt else fail ctx ~loc rule fmt

(* ------------------------------------------------------------------ *)
(* IR001 — slot resolution                                             *)
(* ------------------------------------------------------------------ *)

let check_slot ctx ~loc ~what slot name =
  let n = Frame.n_slots ctx.frame in
  check ctx
    (slot >= 0 && slot < n)
    ~loc "IR001" "%s: slot %d for %s outside frame (0..%d)" what slot name
    (n - 1);
  if slot >= 0 && slot < n then
    check ctx
      (Frame.name_of ctx.frame slot = name)
      ~loc "IR001" "%s: slot %d claims %s but frame holds %s" what slot name
      (Frame.name_of ctx.frame slot)

(* ------------------------------------------------------------------ *)
(* IR002/IR003 — fused-region well-formedness                          *)
(* ------------------------------------------------------------------ *)

let check_region ctx ~loc key rg =
  let n = Array.length rg.rg_ops in
  check ctx (n > 0) ~loc "IR002" "fused region is empty";
  Array.iteri
    (fun i op ->
      let operand what j =
        check ctx
          (j >= 0 && j < i)
          ~loc "IR002" "region op %d: %s operand %d not defined earlier" i
          what j
      in
      match op with
      | OConst _ -> ()
      | OVar (slot, name) -> check_slot ctx ~loc ~what:"region var" slot name
      | OUn (_, a) -> operand "unary" a
      | OBin (bop, a, b) ->
          check ctx (bop <> Ast.Pow) ~loc "IR003"
            "region op %d: POW is not fusible (per-lane int/real split)" i;
          operand "lhs" a;
          operand "rhs" b
      | OIntr (key, a) ->
          check ctx
            (List.mem key fusible_intrinsics)
            ~loc "IR003" "region op %d: %s is not a fusible intrinsic" i key;
          operand "intrinsic" a
      | OGather (slot, name, ix) ->
          check_slot ctx ~loc ~what:"region gather" slot name;
          Array.iter (operand "subscript") ix)
    rg.rg_ops;
  check ctx (Intrinsics.is_reduction key) ~loc "IR003"
    "fused reduction head %s is not a reduction" key

(* ------------------------------------------------------------------ *)
(* IR006 — scatter-accumulate shape                                    *)
(* ------------------------------------------------------------------ *)

(* Independent re-derivation of the pure-subscript predicate: constants,
   resolved variable reads and arithmetic over them (no calls, no
   gathers — evaluating those once where the unoptimized engine
   evaluates twice is observable). *)
let rec pure_subscript (e : expr) : bool =
  match e.x_node with
  | XConst _ | XVar (Some _, _) -> true
  | XUn (_, a) -> pure_subscript a
  | XBin (_, a, b) -> pure_subscript a && pure_subscript b
  | _ -> false

let check_accum ctx ~loc (s : stmt) =
  match s.s_node with
  | LAssign ({ l_slot; l_index = [ ix ]; _ }, rhs) ->
      check ctx (rhs.x_fused = None) ~loc "IR006"
        "accum claim on a fused right-hand side";
      (match rhs.x_node with
      | XBin (Ast.Add, g, _) -> (
          match g.x_node with
          | XIdx (gslot, gname, [ gix ]) ->
              check ctx (gslot = l_slot) ~loc "IR006"
                "accum claim gathers %s but stores slot %d" gname l_slot;
              check ctx
                (gix.x_ast = ix.x_ast)
                ~loc "IR006" "accum claim: gather and store subscripts differ";
              check ctx (pure_subscript ix) ~loc "IR006"
                "accum claim with an impure subscript"
          | _ ->
              fail ctx ~loc "IR006"
                "accum claim: right-hand side does not start with a gather \
                 of the stored array")
      | _ ->
          fail ctx ~loc "IR006" "accum claim on a non-addition right-hand side")
  | _ -> fail ctx ~loc "IR006" "accum claim on a non-scatter statement"

(* ------------------------------------------------------------------ *)
(* Structural walk (IR001/002/003/006)                                *)
(* ------------------------------------------------------------------ *)

(* The statement's own expression trees, excluding nested blocks. *)
let own_exprs (s : stmt) : expr list =
  match s.s_node with
  | LLoc _ | LNop | LGoto -> []
  | LAssign (l, e) -> (e :: l.l_index)
  | LScall (_, args) -> List.map fst args
  | LIf (c, _, _) | LWhere (c, _, _) | LWhile (c, _) | LDoWhile (_, c) ->
      [ c ]
  | LDo (_, _, lo, hi, step, _) -> lo :: hi :: Option.to_list step

let rec check_expr ctx ~loc (e : expr) : unit =
  (match e.x_fused with
  | Some (FReduce (key, rg)) -> check_region ctx ~loc key rg
  | None -> ());
  match e.x_node with
  | XConst _ -> ()
  | XVar (Some slot, name) -> check_slot ctx ~loc ~what:"var" slot name
  | XVar (None, _) -> ()
  | XRange (a, b) | XBin (_, a, b) ->
      check_expr ctx ~loc a;
      check_expr ctx ~loc b
  | XUn (_, a) -> check_expr ctx ~loc a
  | XCall (_, args) -> List.iter (check_expr ctx ~loc) args
  | XIdx (slot, name, args) ->
      check_slot ctx ~loc ~what:"gather" slot name;
      List.iter (check_expr ctx ~loc) args

let rec check_stmt ctx ~loc (s : stmt) : unit =
  (match s.s_node with
  | LLoc _ ->
      check ctx (not s.s_accum) ~loc "IR006"
        "accum claim on a location wrapper"
  | _ -> if s.s_accum then check_accum ctx ~loc s);
  List.iter (check_expr ctx ~loc) (own_exprs s);
  match s.s_node with
  | LLoc (pos, inner) -> check_stmt ctx ~loc:(Some pos) inner
  | LAssign ({ l_slot; l_name; _ }, _) ->
      check_slot ctx ~loc ~what:"store" l_slot l_name
  | LDo (slot, name, _, _, _, b) ->
      check_slot ctx ~loc ~what:"loop var" slot name;
      Array.iter (check_stmt ctx ~loc) b
  | LIf (_, t, f) | LWhere (_, t, f) ->
      Array.iter (check_stmt ctx ~loc) t;
      Array.iter (check_stmt ctx ~loc) f
  | LWhile (_, b) | LDoWhile (b, _) ->
      Array.iter (check_stmt ctx ~loc) b
  | LNop | LGoto | LScall _ -> ()

(* ------------------------------------------------------------------ *)
(* IR004 — scratch interference                                        *)
(* ------------------------------------------------------------------ *)

(* Re-derivation of the linearized evaluation order (operands before
   operators, right siblings after left, subscripts after a store's
   right-hand side), independent of [Opt.plan_scratch]: buffer-owning
   sites are identified from the annotated tree, liveness is an exact
   backward scan over the linear step list, and a definition whose
   group is simultaneously live in another site is an IR004 error. *)
let check_scratch ctx (b : block) : unit =
  let sites : (expr * Errors.pos option) list ref = ref [] in
  let nsites = ref 0 in
  let steps : (int list * int option * Errors.pos option) list ref =
    ref []
  in
  let site_of : (expr * int) list ref = ref [] in
  let new_site ~loc e =
    let id = !nsites in
    incr nsites;
    sites := (e, loc) :: !sites;
    site_of := (e, id) :: !site_of;
    id
  in
  let site e =
    List.filter_map (fun (e', t) -> if e' == e then Some t else None) !site_of
  in
  let push uses def ~loc = steps := (uses, def, loc) :: !steps in
  let rec ex ~loc (e : expr) : int option =
    match e.x_fused with
    | Some (FReduce _) ->
        push [] None ~loc;
        None
    | None -> (
        match e.x_node with
        | XConst _ | XVar _ -> None
        | XRange (lo, hi) ->
            let a = ex ~loc lo in
            let b = ex ~loc hi in
            push (List.filter_map Fun.id [ a; b ]) None ~loc;
            None
        | XUn (_, a) ->
            let ta = ex ~loc a in
            let t = new_site ~loc e in
            push (Option.to_list ta) (Some t) ~loc;
            Some t
        | XBin (_, a, b) ->
            let ta = ex ~loc a in
            let tb = ex ~loc b in
            let t = new_site ~loc e in
            push (List.filter_map Fun.id [ ta; tb ]) (Some t) ~loc;
            Some t
        | XCall (name, args) when Intrinsics.is_reduction name ->
            let ts = List.filter_map (ex ~loc) args in
            push ts None ~loc;
            None
        | XCall (_, args) | XIdx (_, _, args) ->
            let ts = List.filter_map (ex ~loc) args in
            let t = new_site ~loc e in
            push ts (Some t) ~loc;
            Some t)
  in
  let rec st ~loc (s : stmt) : unit =
    match s.s_node with
    | LLoc (pos, inner) -> st ~loc:(Some pos) inner
    | LNop | LGoto -> ()
    | LAssign (l, e) ->
        let te = ex ~loc e in
        let tix = List.filter_map (ex ~loc) l.l_index in
        let extra =
          (* the merged scatter-accumulate pass re-reads the gather, the
             addend and the gather's subscript after the normal
             evaluation steps; their buffers stay live through the
             store *)
          if s.s_accum then
            match e.x_node with
            | XBin (_, g, rest) ->
                site g @ site rest
                @ (match g.x_node with
                  | XIdx (_, _, [ gix ]) -> site gix
                  | _ -> [])
            | _ -> []
          else []
        in
        push (Option.to_list te @ tix @ extra) None ~loc
    | LScall (_, args) ->
        let ts = List.filter_map (fun (a, _) -> ex ~loc a) args in
        push ts None ~loc
    | LIf (c, t, f) | LWhere (c, t, f) ->
        let tc = ex ~loc c in
        push (Option.to_list tc) None ~loc;
        Array.iter (st ~loc) t;
        Array.iter (st ~loc) f
    | LWhile (c, b) ->
        let tc = ex ~loc c in
        push (Option.to_list tc) None ~loc;
        Array.iter (st ~loc) b
    | LDoWhile (b, c) ->
        Array.iter (st ~loc) b;
        let tc = ex ~loc c in
        push (Option.to_list tc) None ~loc
    | LDo (_, _, lo, hi, step, b) ->
        let ts =
          List.filter_map Fun.id
            [ ex ~loc lo; ex ~loc hi; Option.bind step (ex ~loc) ]
        in
        push ts None ~loc;
        Array.iter (st ~loc) b
  in
  Array.iter (st ~loc:None) b;
  let sites = Array.of_list (List.rev !sites) in
  let group t = (fst sites.(t)).x_scr in
  (* exact backward liveness over the linear evaluation order *)
  let live = Hashtbl.create 16 in
  List.iter
    (fun (uses, def, loc) ->
      (match def with
      | Some d when group d >= 0 ->
          Hashtbl.iter
            (fun o () ->
              if o <> d && group o = group d then
                check ctx false ~loc "IR004"
                  "scratch group %d shared by two simultaneously-live \
                   buffers (sites %d and %d)"
                  (group d) d o)
            live
      | _ -> ());
      Option.iter (Hashtbl.remove live) def;
      List.iter (fun u -> Hashtbl.replace live u ()) uses)
    !steps

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let st_checks = Stats.counter ~section:Stats.Opt "verify.checks"
let st_phases = Stats.counter ~section:Stats.Opt "verify.phases"
let st_time = Stats.timer ~section:Stats.Volatile "verify.time_ns"

let run_checks frame (b : block) : ctx =
  let ctx = { frame; diags = []; nchecks = 0 } in
  Array.iter (check_stmt ctx ~loc:None) b;
  check_scratch ctx b;
  ctx

(** Verify one phase's output.  @raise Error with the accumulated
    diagnostics (source order) when any rule fails; [phase] is cited in
    each message so a failure names the pass that broke the IR. *)
let check_ir ~(frame : Frame.t) ~(phase : string) (b : block) : unit =
  let ctx =
    if Stats.enabled () then Stats.span st_time (fun () -> run_checks frame b)
    else run_checks frame b
  in
  if Stats.enabled () then begin
    Stats.add st_checks ctx.nchecks;
    Stats.incr st_phases
  end;
  if ctx.diags <> [] then
    raise
      (Error
         (List.rev_map
            (fun d ->
              { d with Lint.d_msg = d.Lint.d_msg ^ " [after " ^ phase ^ "]" })
            ctx.diags))
