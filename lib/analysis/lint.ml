(** flattenlint: static checking of the paper's loop-flattening
    preconditions, with located diagnostics.

    The check mirrors the pipeline's decision procedure — applicability
    (§6: a perfect two-level nest), safety (§6: the receiving loop can be
    parallelized), and the §4 purity conditions that select between the
    general and optimized variants — but runs it over the dataflow layer
    ([Cfg], [Dataflow], [Chains]) on the {e located} AST, so every refusal
    can cite the offending source line and a stable rule id.

    Rules:
    - LF001 (warning): flattening not applicable — no perfect two-level
      nest to flatten.
    - LF002 (error): irregular control flow in the receiving loop —
      unstructured GOTO, unrecognizable induction variable, or post-test
      loop.
    - LF003 (error): scalar carried across iterations of the receiving
      loop (live on entry to the body and written inside it).
    - LF004 (error): possible loop-carried array dependence in the
      receiving loop (ZIV/SIV analysis, [Depend]).
    - LF005 (error): call to a subroutine with unknown effects in the
      receiving loop.
    - LF006 (warning): impure test/init phase — only the general variant
      (Figs. 9/10) applies, not the optimized ones (Figs. 11/12).
    - LF007 (error/warning): FORALL asserts independent iterations, but a
      cross-lane array dependence exists (error), or a scalar assigned in
      the body must be privatized per lane (warning).
    - LF008 (warning): a masked (WHERE) assignment reads the array it
      writes at different elements.

    A program is {e lint-safe} when it produces no [Error] diagnostics. *)

open Lf_lang
open Lf_lang.Ast

type severity =
  | Error
  | Warning

type diag = {
  d_rule : string;
  d_severity : severity;
  d_loc : Errors.pos option;
  d_msg : string;
}

type report = {
  diags : diag list;
  applicable : bool;  (** a flattenable two-level nest was found *)
  safe : bool;  (** no [Error] diagnostics *)
}

let severity_to_string = function Error -> "error" | Warning -> "warning"

(** Every rule with its one-line description, in rule order — the
    [--rules] listing. *)
let rules =
  [
    ( "LF001",
      "applicability: flattening needs a perfect two-level loop nest (§6)" );
    ( "LF002",
      "irregular control flow in the receiving loop prevents \
       parallelization" );
    ( "LF003",
      "a scalar carried across iterations of the receiving loop prevents \
       parallelization (§6)" );
    ( "LF004",
      "a loop-carried array dependence in the receiving loop prevents \
       parallelization (§6)" );
    ( "LF005",
      "a call with unknown side effects prevents parallelizing the \
       receiving loop" );
    ( "LF006",
      "an impure test/init phase restricts flattening to the general \
       variant (§4, Figs. 9/10)" );
    ("LF007", "FORALL asserts independent iterations; the body violates it");
    ( "LF008",
      "a masked (WHERE) assignment reads the array it writes at different \
       elements" );
  ]

(** One-line description of each rule, for [--explain]-style output. *)
let rule_doc r =
  match List.assoc_opt r rules with
  | Some doc -> doc
  | None -> "unknown rule " ^ r

let diag ~loc d_rule d_severity fmt =
  Fmt.kstr (fun d_msg -> { d_rule; d_severity; d_loc = loc; d_msg }) fmt

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let is_loop s =
  match strip_loc s with
  | SDo _ | SWhile _ | SDoWhile _ | SForall _ -> true
  | _ -> false

let contains_loop b = List.exists is_loop b

(** Split a block around its first top-level loop statement, preserving
    [SLoc] wrappers (unlike [Pipeline.split_first_loop], which strips
    them: the lint needs the locations for diagnostics). *)
let split_located (b : block) : (block * stmt * block) option =
  let rec go pre = function
    | [] -> None
    | s :: rest when is_loop s -> Some (List.rev pre, s, rest)
    | s :: rest -> go (s :: pre) rest
  in
  go [] b

(** Fold [f acc loc s] over every (bare) statement with its innermost
    enclosing source location. *)
let rec fold_located f acc ~loc (b : block) =
  List.fold_left (fun acc s -> fold_located_stmt f acc ~loc s) acc b

and fold_located_stmt f acc ~loc s =
  match s with
  | SLoc (p, s) -> fold_located_stmt f acc ~loc:(Some p) s
  | s -> (
      let acc = f acc loc s in
      match s with
      | SDo (_, b) | SWhile (_, b) | SDoWhile (b, _) | SForall (_, b) ->
          fold_located f acc ~loc b
      | SIf (_, t, e) | SWhere (_, t, e) ->
          fold_located f (fold_located f acc ~loc t) ~loc e
      | _ -> acc)

(** Mirror of [Simdize.sum_reduction_candidates] (lib/core): scalars only
    accumulated with [v = v + e] and read nowhere else.  The pipeline
    tolerates their carried dependence (it lowers them to per-lane
    partials), so the lint must accept exactly the same set. *)
let sum_reductions ~(exclude : string list) (b : block) : string list =
  let upd = Hashtbl.create 4 in
  let bad = Hashtbl.create 4 in
  let reads = Hashtbl.create 8 in
  let note_reads vs = List.iter (fun r -> Hashtbl.replace reads r ()) vs in
  Ast_util.fold_stmts
    (fun () s ->
      match s with
      | SAssign ({ lv_name = v; lv_index = [] }, EBin (Add, EVar v', e))
        when v = v' ->
          if List.mem v (Ast_util.expr_vars e) then Hashtbl.replace bad v ()
          else Hashtbl.replace upd v ();
          note_reads (Ast_util.expr_vars e)
      | SAssign ({ lv_name = v; lv_index = [] }, EBin (Add, e, EVar v'))
        when v = v' ->
          if List.mem v (Ast_util.expr_vars e) then Hashtbl.replace bad v ()
          else Hashtbl.replace upd v ();
          note_reads (Ast_util.expr_vars e)
      | SAssign (l, e) ->
          if l.lv_index = [] then Hashtbl.replace bad l.lv_name ();
          note_reads
            (Ast_util.expr_vars e
            @ List.concat_map Ast_util.expr_vars l.lv_index)
      | SDo (c, _) | SForall (c, _) ->
          note_reads
            (Ast_util.expr_vars c.d_lo @ Ast_util.expr_vars c.d_hi
            @ Option.fold ~none:[] ~some:Ast_util.expr_vars c.d_step)
      | SWhile (e, _) | SDoWhile (_, e) | SIf (e, _, _) | SWhere (e, _, _)
      | SCondGoto (e, _) ->
          note_reads (Ast_util.expr_vars e)
      | SCall (_, args) -> note_reads (List.concat_map Ast_util.expr_vars args)
      | _ -> ())
    () b;
  Hashtbl.fold
    (fun v () acc ->
      if Hashtbl.mem bad v || Hashtbl.mem reads v || List.mem v exclude then
        acc
      else v :: acc)
    upd []
  |> List.sort String.compare

(** Array references appearing in each CFG node, with the node's source
    location — the located counterpart of [Depend.references]. *)
let located_refs (cfg : Cfg.t) : (Depend.ref_info * Errors.pos option) list =
  Array.to_list cfg.Cfg.nodes
  |> List.concat_map (fun n ->
         let reads es = List.concat_map Depend.expr_references es in
         let refs =
           match n.Cfg.kind with
           | Cfg.Stmt (SAssign (l, e)) ->
               (if l.lv_index <> [] then
                  [
                    {
                      Depend.r_array = l.lv_name;
                      r_subs = l.lv_index;
                      r_is_write = true;
                    };
                  ]
                else [])
               @ reads (l.lv_index @ [ e ])
           | Cfg.Stmt (SCall (_, args)) -> reads args
           | Cfg.Stmt (SCondGoto (e, _)) | Cfg.Test e -> reads [ e ]
           | Cfg.Head (c, _) ->
               reads ([ c.d_lo; c.d_hi ] @ Option.to_list c.d_step)
           | _ -> []
         in
         List.map (fun r -> (r, n.Cfg.loc)) refs)

(* ------------------------------------------------------------------ *)
(* Safety of the receiving loop (LF002-LF005)                          *)
(* ------------------------------------------------------------------ *)

(** Loop-carried array dependences, one diagnostic per offending array
    (LF004).  The verdicts come from the same ZIV/SIV machinery the
    pipeline uses, fed with the loop bounds when they are constant. *)
let carried_array_diags ?bounds ~rule ~severity ~what var invariant cfg :
    diag list =
  located_refs cfg |> Depend.group_refs
  |> List.filter_map (Depend.group_conflict ?bounds var invariant)
  |> List.sort (fun (d1, _, _) (d2, _, _) ->
         compare d1.Depend.d_pos d2.Depend.d_pos)
  |> List.map (fun ((d1 : _ Depend.distinct), (d2 : _ Depend.distinct), v) ->
         (* cite the write side of the pair *)
         let loc =
           if d1.d_ref.r_is_write || not d2.d_ref.r_is_write then d1.d_first
           else d2.d_first
         in
         diag ~loc rule severity
           "%s: references to %s may touch the same element in different \
            iterations of the %s loop (%a)"
           what d1.d_ref.r_array var Depend.pp_verdict v)

(** Scalars carried around the back edge of the receiving loop (LF003):
    written in the body yet live on entry to it — the chain-driven
    replacement for the syntactic [Parallel.upward_exposed] walk. *)
let carried_scalar_diags var reductions cfg body : diag list =
  let live = Dataflow.live_at_entry (Dataflow.liveness cfg) in
  let written =
    Ast_util.fold_stmts
      (fun acc -> function
        | SAssign ({ lv_name = v; lv_index = [] }, _) -> v :: acc
        | SDo (c, _) | SForall (c, _) -> c.d_var :: acc
        | _ -> acc)
      [] body
    |> List.sort_uniq String.compare
  in
  let chains = lazy (Chains.build cfg) in
  List.filter_map
    (fun v ->
      if v <> var && List.mem v live && not (List.mem v reductions) then
        let loc =
          match Chains.upward_exposed (Lazy.force chains) v with
          | u :: _ -> u.Chains.us_loc
          | [] -> (
              match Chains.defs_of_var (Lazy.force chains) v with
              | d :: _ -> d.Dataflow.ds_loc
              | [] -> None)
        in
        Some
          (diag ~loc "LF003" Error
             "scalar %s is carried across iterations of the %s loop (read \
              before it is written)"
             v var)
      else None)
    written

(** Calls with unknown effects inside the receiving loop (LF005). *)
let call_diags pure_subroutines cfg : diag list =
  Cfg.calls cfg
  |> List.filter_map (fun (name, loc) ->
         if List.mem name pure_subroutines then None
         else
           Some
             (diag ~loc "LF005" Error
                "call to subroutine %s with unknown effects in the \
                 receiving loop"
                name))

(** All safety rules for the receiving loop [DO var = ... body]. *)
let receiving_loop_diags ~pure_subroutines ?bounds ~inner_var var body :
    diag list =
  let cfg = Cfg.build body in
  let goto_diags =
    if Parallel.has_gotos body then
      [
        diag ~loc:(block_loc body) "LF002" Error
          "unstructured control flow (GOTO) in the receiving loop body";
      ]
    else []
  in
  let exclude = var :: Option.to_list inner_var in
  let reductions = sum_reductions ~exclude body in
  let assigned = Ast_util.assigned_vars body in
  let invariant v = v <> var && not (List.mem v assigned) in
  goto_diags
  @ call_diags pure_subroutines cfg
  @ carried_scalar_diags var reductions cfg body
  @ carried_array_diags ?bounds ~rule:"LF004" ~severity:Error
      ~what:"loop-carried dependence" var invariant cfg

(* ------------------------------------------------------------------ *)
(* Phase purity (LF006)                                                *)
(* ------------------------------------------------------------------ *)

(** §4 purity of the [init_2]/[test] phases: the optimized variants
    (Figs. 11/12) re-evaluate them under different control flow, so calls
    with side effects downgrade flattening to the general variant. *)
let phase_diags ~impure_funcs (outer_body : block) : diag list =
  match split_located outer_body with
  | None -> []
  | Some (pre, inner_stmt, _post) ->
      let penv = Side_effects.env ~impure_funcs () in
      let impure_block b =
        b <> []
        && not
             (Side_effects.block_writes_only penv (Ast_util.assigned_vars b)
                b)
      in
      let guard_exprs =
        match strip_loc inner_stmt with
        | SDo (c, _) | SForall (c, _) ->
            [ c.d_lo; c.d_hi ] @ Option.to_list c.d_step
        | SWhile (e, _) | SDoWhile (_, e) -> [ e ]
        | _ -> []
      in
      (if impure_block pre then
         [
           diag ~loc:(block_loc pre) "LF006" Warning
             "the init phase before the inner loop has side effects; only \
              the general variant (Figs. 9/10) applies";
         ]
       else [])
      @
      if
        List.exists
          (fun e -> not (Side_effects.expr_pure penv e))
          guard_exprs
      then
        [
          diag ~loc:(loc_of inner_stmt) "LF006" Warning
            "the inner loop guard has side effects; only the general \
             variant (Figs. 9/10) applies";
        ]
      else []

(* ------------------------------------------------------------------ *)
(* Plural races: FORALL (LF007) and WHERE (LF008)                      *)
(* ------------------------------------------------------------------ *)

let forall_diags ~loc (c : do_control) (fbody : block) : diag list =
  let cfg = Cfg.build fbody in
  let assigned = Ast_util.assigned_vars fbody in
  let invariant v = v <> c.d_var && not (List.mem v assigned) in
  let array_races =
    carried_array_diags
      ?bounds:(Parallel.const_bounds c)
      ~rule:"LF007" ~severity:Error ~what:"FORALL race" c.d_var invariant cfg
  in
  let scalar_warns =
    Ast_util.fold_stmts
      (fun acc -> function
        | SAssign ({ lv_name = v; lv_index = [] }, _) -> v :: acc
        | SDo (dc, _) | SForall (dc, _) -> dc.d_var :: acc
        | _ -> acc)
      [] fbody
    |> List.sort_uniq String.compare
    |> List.filter (fun v -> v <> c.d_var)
    |> List.map (fun v ->
           diag ~loc:(Option.fold ~none:loc ~some:Option.some
                        (block_loc fbody))
             "LF007" Warning
             "scalar %s assigned inside FORALL (%s) must be private per \
              iteration"
             v c.d_var)
  in
  array_races @ scalar_warns

let where_diags (t : block) (f : block) : diag list =
  let masked_assigns b =
    fold_located
      (fun acc loc s ->
        match s with
        | SAssign (l, e) when l.lv_index <> [] ->
            let bad =
              Depend.expr_references e
              |> List.exists (fun (r : Depend.ref_info) ->
                     r.Depend.r_array = l.lv_name
                     && r.Depend.r_subs <> l.lv_index)
            in
            if bad then
              diag ~loc "LF008" Warning
                "masked assignment to %s reads %s at different elements; \
                 the WHERE mask applies to stores, not to the loads"
                l.lv_name l.lv_name
              :: acc
            else acc
        | _ -> acc)
      [] ~loc:None b
    |> List.rev
  in
  masked_assigns t @ masked_assigns f

(** LF007/LF008 anywhere in the body (FORALL and WHERE may appear at any
    nesting level and independently of the flattenable nest). *)
let plural_diags (b : block) : diag list =
  fold_located
    (fun acc loc s ->
      match s with
      | SForall (c, fbody) -> acc @ forall_diags ~loc c fbody
      | SWhere (_, t, f) -> acc @ where_diags t f
      | _ -> acc)
    [] ~loc:None b

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(** Lint a statement block (a program body).  GOTO loops are restructured
    first when present, exactly as the pipeline does — at the cost of the
    source locations, which restructuring discards. *)
let check_block ?(pure_subroutines = []) ?(impure_funcs = []) (b : block) :
    report =
  let b =
    if Parallel.has_gotos b then Loop_info.restructure_gotos b else b
  in
  let plural = plural_diags b in
  let nest_diags, applicable =
    match split_located b with
    | None ->
        ( [
            diag ~loc:None "LF001" Warning
              "nothing to flatten: the program body contains no loop";
          ],
          false )
    | Some (_pre, outer_stmt, _post) -> (
        let oloc = loc_of outer_stmt in
        let receiving var ?bounds ~inner_var obody =
          let applicable =
            match split_located obody with
            | Some (_, _, post) when not (contains_loop post) -> true
            | _ -> false
          in
          let app_diags =
            if applicable then phase_diags ~impure_funcs obody
            else
              [
                diag ~loc:oloc "LF001" Warning
                  "flattening is not applicable: the %s loop does not \
                   contain exactly one inner loop (§6)"
                  var;
              ]
          in
          ( app_diags
            @ receiving_loop_diags ~pure_subroutines ?bounds ~inner_var var
                obody,
            applicable )
        in
        let inner_var_of obody =
          match split_located obody with
          | Some (_, s, _) -> (
              match strip_loc s with
              | SDo (c, _) | SForall (c, _) -> Some c.d_var
              | SWhile (test, ibody) -> (
                  match Loop_info.induction_candidates test ibody with
                  | [ v ] -> Some v
                  | _ -> None)
              | _ -> None)
          | None -> None
        in
        match strip_loc outer_stmt with
        | SDo (c, obody) ->
            receiving c.d_var
              ?bounds:(Parallel.const_bounds c)
              ~inner_var:(inner_var_of obody) obody
        | SForall (c, obody) ->
            (* user assertion of independence (§6); LF007 above checks it,
               so only applicability remains *)
            let applicable =
              match split_located obody with
              | Some (_, _, post) when not (contains_loop post) -> true
              | _ -> false
            in
            ( (if applicable then phase_diags ~impure_funcs obody
               else
                 [
                   diag ~loc:oloc "LF001" Warning
                     "flattening is not applicable: the %s FORALL does \
                      not contain exactly one inner loop (§6)"
                     c.d_var;
                 ]),
              applicable )
        | SWhile (test, obody) -> (
            match Loop_info.induction_candidates test obody with
            | [ v ] -> receiving v ~inner_var:(inner_var_of obody) obody
            | _ ->
                ( [
                    diag ~loc:oloc "LF002" Error
                      "cannot identify the induction variable of the \
                       receiving WHILE loop";
                  ],
                  false ))
        | SDoWhile _ ->
            ( [
                diag ~loc:oloc "LF002" Error
                  "a post-test receiving loop cannot be parallelized";
              ],
              false )
        | _ -> (* unreachable: split_located only returns loops *) ([], false)
        )
  in
  let diags = nest_diags @ plural in
  let diags =
    List.stable_sort
      (fun a b ->
        let line d =
          match d.d_loc with Some p -> p.Errors.line | None -> max_int
        in
        compare (line a, a.d_rule) (line b, b.d_rule))
      diags
  in
  {
    diags;
    applicable;
    safe = not (List.exists (fun d -> d.d_severity = Error) diags);
  }

let check_program ?pure_subroutines ?impure_funcs (p : program) : report =
  check_block ?pure_subroutines ?impure_funcs p.p_body

let first_error (r : report) : diag option =
  List.find_opt (fun d -> d.d_severity = Error) r.diags

let errors (r : report) = List.filter (fun d -> d.d_severity = Error) r.diags

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(** One-line rendering: [file:line:col: severity[rule]: message]. *)
let pp_diag ?file () ppf d =
  Option.iter (fun f -> Fmt.pf ppf "%s:" f) file;
  (match d.d_loc with
  | Some p -> Fmt.pf ppf "%a: " Errors.pp_pos p
  | None -> if file <> None then Fmt.pf ppf " " else ());
  Fmt.pf ppf "%s[%s]: %s" (severity_to_string d.d_severity) d.d_rule d.d_msg

(** Full rendering with the offending source line and a caret. *)
let pp_diag_with_context ?file ~source () ppf d =
  pp_diag ?file () ppf d;
  Fmt.pf ppf "@.";
  Option.iter (fun p -> Errors.pp_context ~source ppf p) d.d_loc

(** Short citation for pipeline refusal messages: ["LF004 at 7:5"]. *)
let cite (d : diag) : string =
  match d.d_loc with
  | Some p -> Fmt.str "%s at %a" d.d_rule Errors.pp_pos p
  | None -> d.d_rule
