(** Loop SIMDization (paper §3): deriving F90simd programs from F77/F77D.

    "To make sure that each processor can perform all of its iterations,
    the upper bound L(i') had to be changed into the maximum of L(i') over
    all processors.  This in turn necessitated a guard for the loop body."

    Two entry points mirror the paper:
    - [simdize_nest] produces the naive SIMD version of an unflattened
      two-level nest (Figure 5 / Figure 14);
    - [simdize_flattened] SIMDizes a flattened loop (output of [Flatten]),
      yielding the Figure 7 / Figure 15 form: the outer WHILE becomes
      [WHILE ANY(test)] with a [WHERE (test)] guard, and IFs over plural
      state become WHERE/ELSEWHERE.

    Plural variables (replicated per processor, §2) are inferred by a fixed
    point: the partitioned induction variable is plural; any variable
    assigned from a plural expression or under a plural condition is
    plural.  The predefined plural variable [iproc] holds each processor's
    1-based index (the vector [1:P]). *)

open Lf_lang
open Lf_lang.Ast

(** Data decomposition of the parallel iteration space (paper §5.2:
    cyclic "cut-and-stack" on the DECmpp, blockwise on the CM-2). *)
type decomp =
  | Block
  | Cyclic

let decomp_to_string = function Block -> "block" | Cyclic -> "cyclic"

(** The predefined plural processor-index variable: iproc = [1:P]. *)
let iproc = "iproc"

module SS = Set.Make (String)

(** Is the value of [e] plural (per-processor), given the set of plural
    variables?  A gather [a(i)] through a plural subscript is plural; a
    reduction over a plural operand is not. *)
let rec expr_is_plural set (e : expr) : bool =
  match e with
  | EInt _ | EReal _ | EBool _ -> false
  | EVar v -> SS.mem v set
  | EIdx (v, idxs) -> SS.mem v set || List.exists (expr_is_plural set) idxs
  | ECall (f, _) when Intrinsics.is_reduction f -> false
  | ECall (_, args) -> List.exists (expr_is_plural set) args
  | EUn (_, a) -> expr_is_plural set a
  | EBin (_, a, b) | ERange (a, b) ->
      expr_is_plural set a || expr_is_plural set b

(** Fixed-point inference of plural variables.  [seeds] are known-plural
    variables; a scalar assignment makes its target plural if the RHS reads
    a plural variable or the assignment sits under a plural condition. *)
let infer_plural ~(seeds : string list) (b : block) : SS.t =
  let plural = ref (SS.of_list (iproc :: seeds)) in
  let is_plural_expr e = expr_is_plural !plural e in
  let changed = ref true in
  let add v =
    if not (SS.mem v !plural) then begin
      plural := SS.add v !plural;
      changed := true
    end
  in
  let rec scan under_plural (b : block) =
    List.iter
      (fun s ->
        match strip_loc s with
        | SAssign ({ lv_name = v; lv_index = [] }, e) ->
            if under_plural || is_plural_expr e then add v
        | SAssign ({ lv_index = _ :: _; _ }, _) ->
            (* arrays stay global (distributed) storage: a write through a
               plural subscript is a scatter, not a replication of the
               array — Figure 7 keeps X a distributed array *)
            ()
        | SIf (c, t, f) | SWhere (c, t, f) ->
            let up = under_plural || is_plural_expr c in
            scan up t;
            scan up f
        | SWhile (c, body) ->
            scan (under_plural || is_plural_expr c) body
        | SDoWhile (body, c) ->
            scan (under_plural || is_plural_expr c) body
        | SDo (c, body) | SForall (c, body) ->
            if
              is_plural_expr c.d_lo || is_plural_expr c.d_hi
              || Option.fold ~none:false ~some:is_plural_expr c.d_step
            then add c.d_var;
            scan under_plural body
        | SCall _ | SGoto _ | SCondGoto _ | SLabel _ | SComment _ -> ()
        | SLoc _ -> assert false)
      b
  in
  while !changed do
    changed := false;
    scan false b
  done;
  !plural

(* ------------------------------------------------------------------ *)
(* Control-flow vectorization                                          *)
(* ------------------------------------------------------------------ *)

(** Rewrite control flow over plural state: IF → WHERE, WHILE over a plural
    condition → [WHILE ANY(c) { WHERE (c) ... }].  Control flow over
    front-end scalars is left untouched. *)
let rec vectorize_control plural (b : block) : block =
  let is_plural_expr e = expr_is_plural plural e in
  List.map
    (fun s ->
      match strip_loc s with
      | SIf (c, t, f) when is_plural_expr c ->
          SWhere (c, vectorize_control plural t, vectorize_control plural f)
      | SIf (c, t, f) ->
          SIf (c, vectorize_control plural t, vectorize_control plural f)
      | SWhere (c, t, f) ->
          SWhere (c, vectorize_control plural t, vectorize_control plural f)
      | SWhile (c, body) when is_plural_expr c ->
          SWhile
            ( ECall ("any", [ c ]),
              [ SWhere (c, vectorize_control plural body, []) ] )
      | SWhile (c, body) -> SWhile (c, vectorize_control plural body)
      | SDoWhile (body, c) when is_plural_expr c ->
          SDoWhile
            ( [ SWhere (c, vectorize_control plural body, []) ],
              ECall ("any", [ c ]) )
      | SDoWhile (body, c) -> SDoWhile (vectorize_control plural body, c)
      | SDo (c, body) -> SDo (c, vectorize_control plural body)
      | SForall (c, body) -> SForall (c, vectorize_control plural body)
      | s -> s)
    b

(* ------------------------------------------------------------------ *)
(* Iteration-space partitioning                                        *)
(* ------------------------------------------------------------------ *)

(** [partition_init decomp ~p ~lo ~hi var] — the plural initialization of
    [var] and its per-processor last value:
    - cyclic: [var = lo + iproc - 1], last = [hi], step becomes P;
    - block:  [var = lo + (iproc-1)*chunk], last = [lo + iproc*chunk - 1]
      with [chunk = (hi - lo + 1) / P] (P must divide the extent, as the
      paper assumes for simplicity in §5.1). *)
let partition_init (decomp : decomp) ~(p : expr) ~(lo : expr) ~(hi : expr)
    (var : string) : block * expr * expr =
  match decomp with
  | Cyclic ->
      let init =
        Ast.assign var (EBin (Add, lo, EBin (Sub, EVar iproc, EInt 1)))
      in
      ([ init ], hi, p)
  | Block ->
      let chunk =
        EBin (Div, EBin (Add, EBin (Sub, hi, lo), EInt 1), p)
      in
      let init =
        Ast.assign var
          (EBin (Add, lo, EBin (Mul, EBin (Sub, EVar iproc, EInt 1), chunk)))
      in
      let last =
        EBin (Sub, EBin (Add, lo, EBin (Mul, EVar iproc, chunk)), EInt 1)
      in
      ([ init ], last, EInt 1)

(* ------------------------------------------------------------------ *)
(* Flattened path (Figures 7 and 15)                                   *)
(* ------------------------------------------------------------------ *)

type flattened_simd = {
  fs_block : block;
  fs_plural : string list;  (** variables that must be declared plural *)
  fs_decomp : decomp;
}

(** SIMDize a flattened loop.  [block] must be the output of [Flatten] for
    a nest whose outer loop was counted: [var] its induction variable,
    [lo]/[hi] its original bounds, [p] the processor-count expression.

    The pass (matching the Figure 7 derivation):
    + replaces the scalar init [var = lo] with the plural partitioned init;
    + for block decomposition, latches the per-processor last index into a
      fresh plural variable and substitutes it for [hi] in the loop's
      control expressions (Figure 7's [K = \[4,8\]]);
    + for cyclic decomposition, rewrites [var = var + 1] to
      [var = var + P] (Figure 15's [At1 = At1 + P]);
    + infers plural variables and vectorizes control flow. *)
let simdize_flattened ~(fresh : Fresh.t) ~(decomp : decomp) ~(p : expr)
    ~(var : string) ~(lo : expr) ~(hi : expr) (b : block) : flattened_simd =
  (* the rewrites below match statement shapes deeply: drop source
     locations up front (idempotent) *)
  let b = strip_locs_block b in
  let part_init, last, step = partition_init decomp ~p ~lo ~hi var in
  (* replace the init assignment [var = lo] *)
  let replaced = ref false in
  let b =
    List.map
      (fun s ->
        match s with
        | SAssign ({ lv_name = v; lv_index = [] }, e)
          when v = var && e = lo && not !replaced ->
            replaced := true;
            SComment "partitioned init follows"
        | s -> s)
      b
  in
  if not !replaced then
    Errors.type_error "simdize_flattened: init %s = %s not found" var
      (Pretty.expr_to_string lo);
  let b = part_init @ List.filter (function SComment _ -> false | _ -> true) b in
  (* per-processor upper bound *)
  let b, bound_vars =
    match decomp with
    | Cyclic ->
        (* increment becomes var = var + P *)
        let fix_incr =
          List.map (function
            | SAssign (({ lv_name = v; lv_index = [] } as l), rhs)
              when v = var -> (
                match rhs with
                | EBin (Add, EVar v', EInt 1) when v' = var ->
                    SAssign (l, EBin (Add, EVar var, step))
                | rhs -> SAssign (l, rhs))
            | s -> s)
        in
        let rec deep b =
          fix_incr
            (List.map
               (function
                 | SIf (c, t, f) -> SIf (c, deep t, deep f)
                 | SWhere (c, t, f) -> SWhere (c, deep t, deep f)
                 | SWhile (c, body) -> SWhile (c, deep body)
                 | SDoWhile (body, c) -> SDoWhile (deep body, c)
                 | SDo (c, body) -> SDo (c, deep body)
                 | SForall (c, body) -> SForall (c, deep body)
                 | s -> s)
               b)
        in
        (deep b, [])
    | Block ->
        let lastv = Fresh.fresh fresh (var ^ "_last") in
        let latch = Ast.assign lastv last in
        (* substitute hi by the plural per-processor bound in control
           expressions (comparisons against var) *)
        let subst =
          Ast_util.map_block_exprs
            (Ast_util.map_expr (fun e ->
                 match e with
                 | EBin (((Le | Lt | Ge | Gt | Eq | Ne) as op), l, r)
                   when r = hi && List.mem var (Ast_util.expr_vars l) ->
                     EBin (op, l, EVar lastv)
                 | EBin (((Le | Lt | Ge | Gt | Eq | Ne) as op), l, r)
                   when l = hi && List.mem var (Ast_util.expr_vars r) ->
                     EBin (op, EVar lastv, r)
                 | e -> e))
        in
        (* place the latch right after the partitioned init *)
        let rec insert = function
          | (SAssign ({ lv_name = v; lv_index = [] }, _) as s) :: rest
            when v = var ->
              s :: latch :: rest
          | s :: rest -> s :: insert rest
          | [] -> [ latch ]
        in
        (insert (subst b), [ lastv ])
  in
  let plural = infer_plural ~seeds:(var :: bound_vars) b in
  let b = vectorize_control plural b in
  let b = Simplify.simplify_block b in
  { fs_block = b; fs_plural = SS.elements (SS.remove iproc plural);
    fs_decomp = decomp }

(* ------------------------------------------------------------------ *)
(* Unflattened path (Figures 5 and 14)                                 *)
(* ------------------------------------------------------------------ *)

type nest_simd = {
  ns_block : block;
  ns_plural : string list;
  ns_decomp : decomp;
}

(** SIMDize an unflattened two-level nest whose outer loop is the counted
    parallel loop [DO var = lo, hi] (Figure 5's derivation):

    {v
    DO i = 1, (hi-lo+1)/P                      ! uniform front-end count
      i' = <partitioned index>                 ! plural auxiliary induction
      DO j = lo2, MAXVAL(hi2[i->i'])           ! SIMDized inner loop
        WHERE (j <= hi2[i->i'])  BODY[i->i']
      ENDDO
    ENDDO
    v}

    The outer loop itself needs no guard when P divides the extent (the
    paper's assumption); otherwise a [WHERE (i' <= hi)] guard wraps the
    whole outer body. *)
let simdize_nest ~(fresh : Fresh.t) ~(decomp : decomp) ~(p : expr)
    ?(divisible = true) (s : stmt) : (nest_simd, string) result =
  let outer =
    match strip_locs_stmt s with
    | SDo (c, body) when c.d_step = None || c.d_step = Some (EInt 1) ->
        Some (c, body)
    | SForall (c, body) when c.d_step = None || c.d_step = Some (EInt 1) ->
        Some (c, body)
    | _ -> None
  in
  match outer with
  | None -> Error "outer loop must be DO/FORALL with unit stride"
  | Some (c, body) ->
      let var = c.d_var and lo = c.d_lo and hi = c.d_hi in
      let var' = Fresh.fresh fresh (var ^ "_p") in
      let extent = EBin (Add, EBin (Sub, hi, lo), EInt 1) in
      let trips =
        (* ceiling division when P may not divide the extent *)
        if divisible then EBin (Div, extent, p)
        else
          EBin
            (Div, EBin (Sub, EBin (Add, extent, p), EInt 1), p)
      in
      let index =
        match decomp with
        | Block ->
            (* i' = lo + (i-1) + (iproc-1)*chunk *)
            EBin
              ( Add,
                EBin (Add, lo, EBin (Sub, EVar var, EInt 1)),
                EBin (Mul, EBin (Sub, EVar iproc, EInt 1), trips) )
        | Cyclic ->
            (* i' = lo + (i-1)*P + (iproc-1) *)
            EBin
              ( Add,
                EBin (Add, lo, EBin (Mul, EBin (Sub, EVar var, EInt 1), p)),
                EBin (Sub, EVar iproc, EInt 1) )
      in
      (* substitute i -> i' in the body (non-control occurrences; the body
         no longer uses i for control) *)
      let body' = Ast_util.subst_block var (EVar var') body in
      (* SIMDize every inner loop whose bounds became plural *)
      let plural0 = SS.of_list [ var'; iproc ] in
      let rec simdize_inner (b : block) : block =
        List.map
          (fun s ->
            match s with
            | SDo (ic, ib) ->
                let ib = simdize_inner ib in
                let plural_bound e = expr_is_plural plural0 e in
                if plural_bound ic.d_hi || plural_bound ic.d_lo then
                  let guard =
                    let lo_ok =
                      if plural_bound ic.d_lo then
                        Some (EBin (Le, ic.d_lo, EVar ic.d_var))
                      else None
                    in
                    let hi_ok = EBin (Le, EVar ic.d_var, ic.d_hi) in
                    match lo_ok with
                    | Some l -> EBin (And, l, hi_ok)
                    | None -> hi_ok
                  in
                  let new_lo =
                    if plural_bound ic.d_lo then
                      ECall ("minval", [ ic.d_lo ])
                    else ic.d_lo
                  in
                  let new_hi =
                    if plural_bound ic.d_hi then
                      ECall ("maxval", [ ic.d_hi ])
                    else ic.d_hi
                  in
                  SDo
                    ( { ic with d_lo = new_lo; d_hi = new_hi },
                      [ SWhere (guard, ib, []) ] )
                else SDo (ic, ib)
            | SWhile (cond, ib) ->
                let ib = simdize_inner ib in
                if expr_is_plural plural0 cond then
                  SWhile (ECall ("any", [ cond ]), [ SWhere (cond, ib, []) ])
                else SWhile (cond, ib)
            | SIf (cond, t, f) ->
                SIf (cond, simdize_inner t, simdize_inner f)
            | SWhere (cond, t, f) ->
                SWhere (cond, simdize_inner t, simdize_inner f)
            | s -> s)
          b
      in
      let body' = simdize_inner body' in
      let guarded_body =
        if divisible then body'
        else [ SWhere (EBin (Le, EVar var', hi), body', []) ]
      in
      let outer_body = Ast.assign var' index :: guarded_body in
      let blk = [ SDo (Ast.do_control var (EInt 1) trips, outer_body) ] in
      let plural = infer_plural ~seeds:[ var' ] blk in
      let blk = vectorize_control plural blk in
      let blk = Simplify.simplify_block blk in
      Ok
        {
          ns_block = blk;
          ns_plural = SS.elements (SS.remove iproc plural);
          ns_decomp = decomp;
        }

(* ------------------------------------------------------------------ *)
(* Sum reductions (extension)                                          *)
(* ------------------------------------------------------------------ *)

(** Scalars accumulated with [v = v + e] and used for nothing else inside
    the block.  Such a scalar cannot be replicated naively (each lane
    would accumulate a private copy); the standard treatment is a per-lane
    partial sum combined after the loop.  This extension is not in the
    paper — its §6 safety condition simply rejects reductions — but it is
    what production vectorizers do, and it lets kernels like the
    region-statistics example keep their accumulators. *)
let sum_reduction_candidates ~(exclude : string list) (b : block) :
    string list =
  let b = strip_locs_block b in
  let assigns = Hashtbl.create 4 in
  let disqualified = Hashtbl.create 4 in
  let note_ok v = 
    Hashtbl.replace assigns v (1 + Option.value ~default:0 (Hashtbl.find_opt assigns v))
  in
  let rec scan (b : block) =
    List.iter
      (fun s ->
        match s with
        | SAssign ({ lv_name = v; lv_index = [] }, EBin (Add, EVar v', e))
          when v = v' && not (List.mem v (Ast_util.expr_vars e)) ->
            note_ok v
        | SAssign ({ lv_name = v; lv_index = [] }, EBin (Add, e, EVar v'))
          when v = v' && not (List.mem v (Ast_util.expr_vars e)) ->
            note_ok v
        | SAssign ({ lv_name = v; lv_index = [] }, _) ->
            Hashtbl.replace disqualified v ()
        | SIf (_, t, f) | SWhere (_, t, f) ->
            scan t;
            scan f
        | SDo (_, body) | SForall (_, body) | SWhile (_, body)
        | SDoWhile (body, _) ->
            scan body
        | _ -> ())
      b
  in
  scan b;
  (* a candidate's only *other* appearances may be inside its own update
     right-hand sides, which the pattern already excludes; check reads *)
  let reads = Hashtbl.create 4 in
  let rec scan_reads (b : block) =
    List.iter
      (fun s ->
        match s with
        | SAssign ({ lv_name = v; lv_index = [] }, EBin (Add, EVar v', e))
          when v = v' ->
            List.iter
              (fun r -> Hashtbl.replace reads r ())
              (Ast_util.expr_vars e)
        | SAssign ({ lv_name = v; lv_index = [] }, EBin (Add, e, EVar v'))
          when v = v' ->
            List.iter
              (fun r -> Hashtbl.replace reads r ())
              (Ast_util.expr_vars e)
        | SAssign (l, e) ->
            List.iter
              (fun r -> Hashtbl.replace reads r ())
              (Ast_util.expr_vars e
              @ List.concat_map Ast_util.expr_vars l.lv_index)
        | SIf (c, t, f) | SWhere (c, t, f) ->
            List.iter (fun r -> Hashtbl.replace reads r ()) (Ast_util.expr_vars c);
            scan_reads t;
            scan_reads f
        | SDo (c, body) | SForall (c, body) ->
            List.iter
              (fun r -> Hashtbl.replace reads r ())
              (Ast_util.expr_vars c.d_lo @ Ast_util.expr_vars c.d_hi
              @ Option.fold ~none:[] ~some:Ast_util.expr_vars c.d_step);
            scan_reads body
        | SWhile (c, body) | SDoWhile (body, c) ->
            List.iter (fun r -> Hashtbl.replace reads r ()) (Ast_util.expr_vars c);
            scan_reads body
        | SCall (_, args) ->
            List.iter
              (fun r -> Hashtbl.replace reads r ())
              (List.concat_map Ast_util.expr_vars args)
        | SCondGoto (c, _) ->
            List.iter (fun r -> Hashtbl.replace reads r ()) (Ast_util.expr_vars c)
        | _ -> ())
      b
  in
  scan_reads b;
  Hashtbl.fold
    (fun v _ acc ->
      if
        Hashtbl.mem disqualified v
        || Hashtbl.mem reads v
        || List.mem v exclude
      then acc
      else v :: acc)
    assigns []
  |> List.sort String.compare

(** Rewrite each reduction scalar [v] to a per-lane partial accumulator:
    [vp = 0] before the block, [v -> vp] inside it, [v = v + SUM(vp)]
    after.  Returns the rewritten block and the (v, vp) pairs. *)
let lower_sum_reductions ~(fresh : Fresh.t) (vs : string list) (b : block) :
    block * (string * string) list =
  List.fold_left
    (fun (b, acc) v ->
      let vp = Fresh.fresh fresh (v ^ "_p") in
      let b = Ast_util.rename_block v vp b in
      let b =
        (Ast.assign vp (EInt 0) :: b)
        @ [ Ast.assign v (EBin (Add, EVar v, ECall ("sum", [ EVar vp ]))) ]
      in
      (b, (v, vp) :: acc))
    (b, []) vs
