(** Parallelizability check for the loop that receives the flattened body.

    A loop is parallelizable when
    - it carries no array dependence ([Depend]),
    - every scalar it writes is privatizable (defined before use in each
      iteration) or is the loop's own induction variable, and
    - it calls no subroutine with unknown effects.

    A [FORALL] header is a user assertion of independence (paper §6:
    safety "ensured ... by user information (like a FORALL loop header)"),
    so it is accepted without analysis. *)

open Lf_lang
open Lf_lang.Ast

module SS = Set.Make (String)

(** Scalars read in [b] before being (certainly) assigned, per standard
    forward may/must dataflow.  Branches expose the union of their exposed
    reads; a variable is defined after a branch only if both sides define
    it; a loop body may execute zero times, so definitions inside do not
    count as definitions after the loop, while exposed reads do. *)
let upward_exposed (b : block) : SS.t =
  let exposed = ref SS.empty in
  let note defined vars =
    List.iter
      (fun v -> if not (SS.mem v defined) then exposed := SS.add v !exposed)
      vars
  in
  let rec go defined (b : block) : SS.t =
    List.fold_left stmt defined b
  and stmt defined s =
    match s with
    | SLoc (_, s) -> stmt defined s
    | SComment _ | SLabel _ | SGoto _ -> defined
    | SCondGoto (e, _) ->
        note defined (Ast_util.expr_vars e);
        defined
    | SAssign (l, e) ->
        note defined (Ast_util.expr_vars e);
        note defined (List.concat_map Ast_util.expr_vars l.lv_index);
        if l.lv_index = [] then SS.add l.lv_name defined
        else (
          (* writing one element does not define the whole array *)
          note defined [];
          defined)
    | SCall (_, args) ->
        note defined (List.concat_map Ast_util.expr_vars args);
        defined
    | SIf (e, t, f) | SWhere (e, t, f) ->
        note defined (Ast_util.expr_vars e);
        let dt = go defined t and df = go defined f in
        SS.inter dt df
    | SDo (c, body) | SForall (c, body) ->
        note defined (Ast_util.expr_vars c.d_lo);
        note defined (Ast_util.expr_vars c.d_hi);
        Option.iter (fun e -> note defined (Ast_util.expr_vars e)) c.d_step;
        let defined = SS.add c.d_var defined in
        ignore (go defined body);
        (* body may run zero times, but the DO statement always defines
           the induction variable *)
        defined
    | SWhile (e, body) ->
        note defined (Ast_util.expr_vars e);
        ignore (go defined body);
        defined
    | SDoWhile (body, e) ->
        (* post-test loop: the body runs at least once *)
        let d = go defined body in
        note d (Ast_util.expr_vars e);
        d
  in
  ignore (go SS.empty b);
  !exposed

type obstacle =
  | CarriedScalar of string
      (** scalar live across iterations (read before written) *)
  | CarriedArray
  | UnknownCall of string
  | IrregularControl  (** GOTO in or out of the loop body *)

let pp_obstacle ppf = function
  | CarriedScalar v -> Fmt.pf ppf "loop-carried scalar %s" v
  | CarriedArray -> Fmt.string ppf "possible loop-carried array dependence"
  | UnknownCall s -> Fmt.pf ppf "call to subroutine %s with unknown effects" s
  | IrregularControl -> Fmt.string ppf "unstructured control flow in body"

type result = {
  parallel : bool;
  obstacles : obstacle list;
}

let has_gotos (b : block) =
  Ast_util.fold_stmts
    (fun acc s ->
      match s with SGoto _ | SCondGoto _ | SLabel _ -> true | _ -> acc)
    false b

(** [check ?pure_subroutines ?invariants var body] decides whether the loop
    [DO var = ... body] can run in parallel.  [invariants] are extra
    variables known not to change inside the loop (problem-size parameters,
    lookup tables); variables not assigned in the body are inferred
    invariant automatically.  [pure_subroutines] are calls the caller
    certifies as side-effect free on shared state; [reductions] are
    scalars the caller will lower to per-processor partials (their carried
    dependence is therefore acceptable). *)
let check ?bounds ?(pure_subroutines = []) ?(invariants = [])
    ?(reductions = []) (var : string) (body : block) : result =
  let assigned = SS.of_list (Ast_util.assigned_vars body) in
  let invariant v =
    v <> var && (List.mem v invariants || not (SS.mem v assigned))
  in
  let obstacles = ref [] in
  if has_gotos body then obstacles := IrregularControl :: !obstacles;
  List.iter
    (fun s ->
      if not (List.mem s pure_subroutines) then
        obstacles := UnknownCall s :: !obstacles)
    (Ast_util.called_subroutines body);
  (* privatizable scalars: written scalars must not be upward-exposed *)
  let exposed = upward_exposed body in
  let written_scalars =
    Ast_util.fold_stmts
      (fun acc s ->
        match s with
        | SAssign ({ lv_name = v; lv_index = [] }, _) -> v :: acc
        | SDo (c, _) | SForall (c, _) -> c.d_var :: acc
        | _ -> acc)
      [] body
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun v ->
      if v <> var && SS.mem v exposed && not (List.mem v reductions) then
        obstacles := CarriedScalar v :: !obstacles)
    written_scalars;
  if Depend.loop_carried_array_dependence ?bounds var invariant body then
    obstacles := CarriedArray :: !obstacles;
  { parallel = !obstacles = []; obstacles = List.rev !obstacles }

(** Constant iteration range of a DO control, when both bounds are integer
    literals and the step is 1 — feeds the weak SIV tests in [Depend]. *)
let const_bounds (c : do_control) : (int * int) option =
  match (c.d_lo, c.d_hi, c.d_step) with
  | EInt lo, EInt hi, (None | Some (EInt 1)) -> Some (lo, hi)
  | _ -> None

(** Decide parallelizability of a loop statement.  FORALL is accepted by
    assertion; DO loops are analyzed directly; WHILE loops are analyzed
    through their basic induction variable when one is recognizable
    (covering restructured GOTO loops), and rejected otherwise unless
    asserted via [trusted]. *)
let check_loop ?pure_subroutines ?invariants ?reductions ?(trusted = false)
    (s : stmt) : result =
  match strip_loc s with
  | SForall _ -> { parallel = true; obstacles = [] }
  | _ when trusted -> { parallel = true; obstacles = [] }
  | SDo (c, body) ->
      check ?bounds:(const_bounds c) ?pure_subroutines ?invariants ?reductions
        c.d_var body
  | SWhile (test, body) -> (
      match Loop_info.induction_candidates test body with
      | [ var ] -> check ?pure_subroutines ?invariants ?reductions var body
      | _ -> { parallel = false; obstacles = [ IrregularControl ] })
  | SDoWhile _ -> { parallel = false; obstacles = [ IrregularControl ] }
  | _ -> { parallel = false; obstacles = [ IrregularControl ] }
