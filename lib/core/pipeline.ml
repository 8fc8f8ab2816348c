(** The compiler pipeline (paper §6, "Loop Flattening from the Compiler's
    Perspective"): applicability, safety, profitability, and the program-
    level driver that rewrites a whole [Ast.program].

    - {b Applicability}: "ensured whenever there are multiple loops fully
      contained in each other" — checked structurally on the AST
      ([Lf_analysis.Loop_info]); GOTO loops are restructured first.
    - {b Safety}: "a sufficient condition is that the loop into which we
      lift an inner loop body can be parallelized" — via
      [Lf_analysis.Parallel], or by user assertion (FORALL / [trusted]).
    - {b Profitability}: "we can relatively safely assume profitability
      whenever the inner loop bounds may vary across the processors" —
      checked by testing whether the inner guard depends on the outer
      induction variable. *)

open Lf_lang
open Lf_lang.Ast

type target =
  | Sequential  (** flatten only, stay at the F77 level *)
  | Simd of {
      decomp : Simdize.decomp;
      p : expr;  (** processor-count expression *)
    }

type options = {
  variant : Flatten.variant option;  (** [None] = choose automatically *)
  assume_inner_nonempty : bool;
  trusted_parallel : bool;  (** user asserts outer-loop independence *)
  pure_subroutines : string list;
  impure_funcs : string list;
  deep : bool;  (** flatten towers deeper than two levels (§4) *)
  target : target;
}

let default_options =
  {
    variant = None;
    assume_inner_nonempty = false;
    trusted_parallel = false;
    pure_subroutines = [];
    impure_funcs = [];
    deep = false;
    target = Sequential;
  }

type outcome = {
  program : program;
  variant_used : Flatten.variant;
  safety : Lf_analysis.Parallel.result;
  profitable : bool;
  plural_vars : string list;
  notes : string list;
}

(** Split a block around its first top-level loop statement.  Strips
    [SLoc] wrappers first (the split pieces feed shape-matching
    transforms, which operate on bare statements). *)
let split_first_loop (b : block) : (block * stmt * block) option =
  let b = strip_locs_block b in
  let is_loop = function
    | SDo _ | SWhile _ | SDoWhile _ | SForall _ -> true
    | _ -> false
  in
  let rec go pre = function
    | [] -> None
    | s :: rest when is_loop s -> Some (List.rev pre, s, rest)
    | s :: rest -> go (s :: pre) rest
  in
  go [] b

(** Profitability: do the inner loop's trip counts vary with the outer
    iteration (and hence, after partitioning, across processors)? *)
let profitable (n : Normalize.nest) : bool =
  match n.Normalize.outer.Normalize.n_var with
  | None -> true  (* non-counted outer loop: assume variation *)
  | Some v ->
      let inner_control_vars =
        Ast_util.expr_vars n.Normalize.inner.Normalize.n_test
        @ Ast_util.read_vars n.Normalize.inner.Normalize.n_init
      in
      List.mem v inner_control_vars
      (* bounds like L(i): indexed through the outer variable *)
      || List.exists
           (fun e -> List.mem v (Ast_util.expr_vars e))
           (Ast_util.fold_stmts
              (fun acc s ->
                match s with
                | SAssign (_, e) -> e :: acc
                | _ -> acc)
              []
              n.Normalize.inner.Normalize.n_init)

(** Flatten the first loop nest of [p]'s body.  Returns the transformed
    program plus diagnostics.  Fails (with an explanatory message) when the
    nest is not applicable or not safe. *)
let flatten_program ?(opts = default_options) (p : program) :
    (outcome, string) result =
  (* every name the program uses, collected once: fresh names avoid
     them, and the flattened block's other names are declared *)
  let names =
    List.map (fun d -> d.dc_name) p.p_decls @ Fresh.block_names p.p_body
  in
  let fresh = Fresh.of_names names in
  let body = Lf_analysis.Loop_info.restructure_gotos p.p_body in
  match split_first_loop body with
  | None -> Error "no loop found in program body"
  | Some (pre, loop_stmt, post) -> (
      (* dusty-deck recovery: a restructured GOTO loop is a WHILE that is
         really counted; reroll it so the counted-only passes apply *)
      let pre, loop_stmt =
        match Normalize.recognize_counted ~pre loop_stmt with
        | Some (pre', s') -> (pre', s')
        | None -> (pre, loop_stmt)
      in
      (* applicability: perfect tower (two levels, or deeper with
         [opts.deep]) *)
      let deep_collapse () =
        (* pre-flatten levels below the outermost pair, leaving a
           two-level nest for the main path *)
        if not opts.deep then Ok loop_stmt
        else
          let purity =
            Lf_analysis.Side_effects.env ~impure_funcs:opts.impure_funcs ()
          in
          match
            Lf_analysis.Loop_info.split_around_loop
              (match loop_stmt with
              | SDo (_, b) | SWhile (_, b) | SDoWhile (b, _) | SForall (_, b)
                ->
                  b
              | _ -> [])
          with
          | None -> Ok loop_stmt
          | Some (pre, inner, post) -> (
              let inner_stmt =
                match inner.Lf_analysis.Loop_info.kind with
                | Lf_analysis.Loop_info.KDo c ->
                    SDo (c, inner.Lf_analysis.Loop_info.body)
                | Lf_analysis.Loop_info.KWhile e ->
                    SWhile (e, inner.Lf_analysis.Loop_info.body)
                | Lf_analysis.Loop_info.KDoWhile e ->
                    SDoWhile (inner.Lf_analysis.Loop_info.body, e)
                | Lf_analysis.Loop_info.KForall c ->
                    SForall (c, inner.Lf_analysis.Loop_info.body)
              in
              match
                Flatten.flatten_deep ~fresh ~purity
                  ~assume_inner_nonempty:opts.assume_inner_nonempty
                  ?variant:opts.variant inner_stmt
              with
              | Error r -> Error (Fmt.str "%a" Flatten.pp_rejection r)
              | Ok (inner_block, _) -> (
                  match loop_stmt with
                  | SDo (c, _) -> Ok (SDo (c, pre @ inner_block @ post))
                  | SWhile (e, _) -> Ok (SWhile (e, pre @ inner_block @ post))
                  | SDoWhile (_, e) ->
                      Ok (SDoWhile (pre @ inner_block @ post, e))
                  | SForall (c, _) -> Ok (SForall (c, pre @ inner_block @ post))
                  | s -> Ok s))
      in
      match deep_collapse () with
      | Error e -> Error ("deep flattening failed: " ^ e)
      | Ok loop_stmt -> (
      match Normalize.of_nest ~fresh loop_stmt with
      | Error e -> Error ("not applicable: " ^ e)
      | Ok nest -> (
          (* sum reductions: acceptable carried scalars, lowered to
             per-lane partials on the SIMD path *)
          let reduction_candidates =
            let exclude =
              List.filter_map Fun.id
                [ nest.Normalize.outer.Normalize.n_var;
                  nest.Normalize.inner.Normalize.n_var ]
            in
            match loop_stmt with
            | SDo (_, body) | SForall (_, body) | SWhile (_, body)
            | SDoWhile (body, _) ->
                Simdize.sum_reduction_candidates ~exclude body
            | _ -> []
          in
          (* safety *)
          let safety =
            Lf_analysis.Parallel.check_loop
              ~pure_subroutines:opts.pure_subroutines
              ~reductions:reduction_candidates
              ~trusted:opts.trusted_parallel loop_stmt
          in
          if not safety.Lf_analysis.Parallel.parallel then
            (* cite the lint rule and source line for the refusal; the
               lint re-analyzes the original (located) body, so the
               citation points into the user's source *)
            let citation =
              let report =
                Lf_analysis.Lint.check_program
                  ~pure_subroutines:opts.pure_subroutines
                  ~impure_funcs:opts.impure_funcs p
              in
              match Lf_analysis.Lint.first_error report with
              | Some d -> Fmt.str " [%s]" (Lf_analysis.Lint.cite d)
              | None -> ""
            in
            Error
              (Fmt.str "not safe: %a%s"
                 Fmt.(
                   list ~sep:(any "; ") Lf_analysis.Parallel.pp_obstacle)
                 safety.Lf_analysis.Parallel.obstacles citation)
          else
            let purity =
              Lf_analysis.Side_effects.env ~impure_funcs:opts.impure_funcs ()
            in
            let flat, variant_used =
              match opts.variant with
              | Some v -> (
                  match
                    Flatten.flatten ~fresh ~purity
                      ~assume_inner_nonempty:opts.assume_inner_nonempty v nest
                  with
                  | Ok b -> (Some b, v)
                  | Error _ -> (None, v))
              | None ->
                  let b, v =
                    Flatten.flatten_auto ~fresh ~purity
                      ~assume_inner_nonempty:opts.assume_inner_nonempty nest
                  in
                  (Some b, v)
            in
            match flat with
            | None ->
                Error
                  (Fmt.str "variant %s not applicable to this nest"
                     (Flatten.variant_to_string variant_used))
            | Some flat_block -> (
                let known = Hashtbl.create 64 in
                List.iter (fun v -> Hashtbl.replace known v ()) names;
                let new_vars =
                  List.filter
                    (fun v -> not (Hashtbl.mem known v))
                    (Ast_util.assigned_vars flat_block)
                in
                let decl_of v =
                  (* guard flags are logical; everything else integer *)
                  if String.length v >= 1 && v.[0] = 't' then
                    Ast.scalar TLogical v
                  else Ast.scalar TInt v
                in
                match opts.target with
                | Sequential ->
                    let program =
                      {
                        p with
                        p_decls = p.p_decls @ List.map decl_of new_vars;
                        p_body = pre @ flat_block @ post;
                      }
                    in
                    Ok
                      {
                        program;
                        variant_used;
                        safety;
                        profitable = profitable nest;
                        plural_vars = [];
                        notes = [];
                      }
                | Simd { decomp; p = pexpr } -> (
                    match
                      ( nest.Normalize.outer.Normalize.n_var,
                        loop_stmt )
                    with
                    | Some var, (SDo (c, _) | SForall (c, _)) ->
                        let flat_block, _red =
                          Simdize.lower_sum_reductions ~fresh
                            reduction_candidates flat_block
                        in
                        let fs =
                          Simdize.simdize_flattened ~fresh ~decomp ~p:pexpr
                            ~var ~lo:c.d_lo ~hi:c.d_hi flat_block
                        in
                        let plural = fs.Simdize.fs_plural in
                        let decls =
                          p.p_decls
                          @ List.filter_map
                              (fun v ->
                                if List.exists (fun d -> d.dc_name = v) p.p_decls
                                then None
                                else
                                  Some
                                    { (decl_of v) with dc_plural =
                                        List.mem v plural })
                              (Ast_util.assigned_vars fs.Simdize.fs_block)
                        in
                        let decls =
                          List.map
                            (fun d ->
                              if List.mem d.dc_name plural then
                                { d with dc_plural = true }
                              else d)
                            decls
                        in
                        let program =
                          {
                            p with
                            p_decls = decls;
                            p_body = pre @ fs.Simdize.fs_block @ post;
                          }
                        in
                        Ok
                          {
                            program;
                            variant_used;
                            safety;
                            profitable = profitable nest;
                            plural_vars = plural;
                            notes =
                              [
                                Fmt.str "%s decomposition over P = %s"
                                  (Simdize.decomp_to_string decomp)
                                  (Pretty.expr_to_string pexpr);
                              ];
                          }
                    | _ ->
                        Error
                          "SIMD target requires a counted (DO/FORALL) outer \
                           loop")))))

(** SIMDize the first nest of a program {e without} flattening — the naive
    SIMD version the paper's Figures 5 and 14 start from.  Used as the
    baseline in the evaluation. *)
let simdize_program_naive ?(opts = default_options) (p : program) :
    (outcome, string) result =
  match opts.target with
  | Sequential -> Error "naive SIMDization needs a SIMD target"
  | Simd { decomp; p = pexpr } -> (
      let fresh = Fresh.of_program p in
      let body = Lf_analysis.Loop_info.restructure_gotos p.p_body in
      match split_first_loop body with
      | None -> Error "no loop found in program body"
      | Some (pre, loop_stmt, post) -> (
          match Simdize.simdize_nest ~fresh ~decomp ~p:pexpr loop_stmt with
          | Error e -> Error e
          | Ok ns ->
              let plural = ns.Simdize.ns_plural in
              let new_vars =
                List.filter
                  (fun v ->
                    not (List.exists (fun d -> d.dc_name = v) p.p_decls))
                  (Ast_util.assigned_vars ns.Simdize.ns_block)
              in
              let decls =
                List.map
                  (fun d ->
                    if List.mem d.dc_name plural then
                      { d with dc_plural = true }
                    else d)
                  p.p_decls
                @ List.map
                    (fun v ->
                      { (Ast.scalar TInt v) with dc_plural = List.mem v plural })
                    new_vars
              in
              Ok
                {
                  program =
                    { p with p_decls = decls;
                      p_body = pre @ ns.Simdize.ns_block @ post };
                  variant_used = Flatten.General;
                  safety = { Lf_analysis.Parallel.parallel = true; obstacles = [] };
                  profitable = true;
                  plural_vars = plural;
                  notes = [ "naive (unflattened) SIMDization" ];
                }))
