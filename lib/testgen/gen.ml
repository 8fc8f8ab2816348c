(** QCheck generators for random AST terms.

    Two flavours:
    - [expr] / [stmt] / [block]: arbitrary well-formed syntax, for
      parser/printer round-trip properties;
    - [int_expr_closed] and [nest]: {e executable} terms over a known
      environment, for semantic-preservation properties (simplifier,
      normalization, flattening). *)

open Lf_lang
open Lf_lang.Ast
open QCheck.Gen

let ident = oneofl [ "a"; "b"; "c"; "i"; "j"; "k"; "n"; "x"; "l" ]
let label = map string_of_int (1 -- 99)

let rec expr_sized n =
  if n <= 0 then
    oneof
      [
        map (fun i -> EInt i) (0 -- 9);
        map (fun v -> EVar v) ident;
        return (EBool true);
        return (EBool false);
      ]
  else
    let sub = expr_sized (n / 2) in
    frequency
      [
        (3, map2 (fun a b -> EBin (Add, a, b)) sub sub);
        (2, map2 (fun a b -> EBin (Mul, a, b)) sub sub);
        (2, map2 (fun a b -> EBin (Sub, a, b)) sub sub);
        (1, map2 (fun a b -> EBin (Le, a, b)) sub sub);
        (1, map2 (fun a b -> EBin (Lt, a, b)) sub sub);
        (1, map2 (fun a b -> EBin (Eq, a, b)) sub sub);
        (1, map2 (fun a b -> EBin (And, EBin (Le, a, b), EBin (Ge, a, b))) sub sub);
        (1, map (fun a -> EUn (Neg, a)) sub);
        (1, map2 (fun v a -> EIdx (v, [ a ])) ident sub);
        (1, map2 (fun v (a, b) -> EIdx (v, [ a; b ])) ident (pair sub sub));
        (1, map2 (fun a b -> ECall ("max", [ a; b ])) sub sub);
      ]

let expr = expr_sized 4

let lvalue =
  oneof
    [
      map (fun v -> { lv_name = v; lv_index = [] }) ident;
      map2 (fun v e -> { lv_name = v; lv_index = [ e ] }) ident expr;
    ]

let rec stmt_sized n =
  if n <= 0 then map2 (fun l e -> SAssign (l, e)) lvalue expr
  else
    let blk = block_sized (n / 2) in
    frequency
      [
        (4, map2 (fun l e -> SAssign (l, e)) lvalue expr);
        (2, map3 (fun c t f -> SIf (c, t, f)) expr blk blk);
        (1, map3 (fun c t f -> SWhere (c, t, f)) expr blk blk);
        ( 1,
          map3
            (fun v (lo, hi) b -> SDo (do_control v lo hi, b))
            ident (pair expr expr) blk );
        ( 1,
          map3
            (fun v (lo, hi) b -> SForall (do_control v lo hi, b))
            ident (pair expr expr) blk );
        (1, map2 (fun c b -> SWhile (c, b)) expr blk);
        (1, map2 (fun c b -> SDoWhile (b, c)) expr blk);
        (1, map2 (fun f args -> SCall (f, args)) ident (list_size (0 -- 2) expr));
      ]

and block_sized n = list_size (0 -- 3) (stmt_sized n)

let stmt = stmt_sized 3
let block = block_sized 3

(* ------------------------------------------------------------------ *)
(* Executable nests for semantic properties                            *)
(* ------------------------------------------------------------------ *)

(** A random two-level loop nest in the supported class, together with the
    environment setup and the list of observable variables.  The inner
    bound reads the [l] array (indexed by the outer variable), the body
    writes [x(i, j)] and a scalar accumulator [acc]. *)
type exec_nest = {
  src_block : block;
  k : int;
  l : int array;
  inner_nonempty : bool;
}

let exec_nest_gen =
  let* k = 1 -- 6 in
  let* l = array_size (return k) (0 -- 4) in
  let* nonempty = bool in
  let l = if nonempty then Array.map (max 1) l else l in
  let* body_kind = 0 -- 2 in
  let body =
    match body_kind with
    | 0 ->
        [ SAssign ({ lv_name = "x"; lv_index = [ EVar "i"; EVar "j" ] },
             EBin (Mul, EVar "i", EVar "j")) ]
    | 1 ->
        [
          SAssign ({ lv_name = "acc"; lv_index = [] },
            EBin (Add, EVar "acc", EBin (Add, EVar "i", EVar "j")));
          SAssign ({ lv_name = "x"; lv_index = [ EVar "i"; EVar "j" ] },
            EVar "acc");
        ]
    | _ ->
        [
          SIf
            ( EBin (Eq, EBin (Mod, EBin (Add, EVar "i", EVar "j"), EInt 2), EInt 0),
              [ SAssign ({ lv_name = "x"; lv_index = [ EVar "i"; EVar "j" ] },
                  EBin (Add, EVar "i", EVar "j")) ],
              [ SAssign ({ lv_name = "acc"; lv_index = [] },
                  EBin (Add, EVar "acc", EInt 1)) ] );
        ]
  in
  let* outer_while = bool in
  let* inner_while = bool in
  let inner =
    if inner_while then
      [ Ast.assign "j" (EInt 1);
        SWhile
          ( EBin (Le, EVar "j", EIdx ("l", [ EVar "i" ])),
            body @ [ Ast.assign "j" (EBin (Add, EVar "j", EInt 1)) ] ) ]
    else
      [ SDo (do_control "j" (EInt 1) (EIdx ("l", [ EVar "i" ])), body) ]
  in
  let nest =
    if outer_while then
      [ Ast.assign "i" (EInt 1);
        SWhile
          ( EBin (Le, EVar "i", EVar "k"),
            inner @ [ Ast.assign "i" (EBin (Add, EVar "i", EInt 1)) ] ) ]
    else [ SDo (do_control "i" (EInt 1) (EVar "k"), inner) ]
  in
  return { src_block = nest; k; l; inner_nonempty = nonempty }

(* ------------------------------------------------------------------ *)
(* Random SIMD programs for the engine-differential harness            *)
(* ------------------------------------------------------------------ *)

(** Random programs in the SIMD dialect itself: plural arithmetic over
    [iproc], nested WHERE, reductions (including REAL sums, which
    exercise the chunked merge tree), gathers and scatters on globals
    and per-lane arrays, bounded while-any loops, and division for the
    error paths.  Nothing in a generated program depends on the lane
    count, so the differential harness can replay the same program at
    any [p] — the environment is bound by
    [simd_prog_setup ~p].

    Termination is by construction (DO bounds are constants, while-any
    counters strictly increase and are touched nowhere else), so a modest
    fuel is only a backstop — and fuel exhaustion, like any runtime
    error, must itself be identical across engines. *)

let simd_global_n = 8

(** Plural integer variables, seeded from [iproc] by the prologue. *)
let simd_ivar = oneofl [ "u"; "v"; "w" ]

let rec iexpr_sized n =
  if n <= 0 then
    frequency
      [
        (3, map (fun v -> EVar v) simd_ivar);
        (2, return (EVar "iproc"));
        (2, map (fun i -> EInt i) (0 -- 9));
      ]
  else
    let sub = iexpr_sized (n / 2) in
    frequency
      [
        (3, map2 (fun a b -> EBin (Add, a, b)) sub sub);
        (2, map2 (fun a b -> EBin (Sub, a, b)) sub sub);
        (2, map2 (fun a b -> EBin (Mul, a, b)) sub sub);
        (1, map2 (fun a c -> EBin (Mod, a, EInt (1 + c))) sub (0 -- 4));
        (* may divide by zero: an error-path generator *)
        (1, map2 (fun a b -> EBin (Div, a, b)) sub sub);
        (1, map2 (fun a b -> ECall ("max", [ a; b ])) sub sub);
        (1, map (fun a -> ECall ("abs", [ a ])) sub);
      ]

(** Mostly in-bounds subscript into a size-[simd_global_n] global;
    occasionally arbitrary, to exercise the bounds-error path. *)
let simd_idx =
  frequency
    [
      ( 4,
        map
          (fun c ->
            EBin
              ( Add,
                EBin (Mod, EBin (Add, EVar "iproc", EInt c), EInt simd_global_n),
                EInt 1 ))
          (0 -- 9) );
      (1, iexpr_sized 1);
    ]

(** Subscript into the 3-element per-lane array [f]. *)
let simd_idx_f =
  frequency
    [ (4, map (fun c -> EInt (1 + (c mod 3))) (0 -- 9)); (1, iexpr_sized 1) ]

let simd_bexpr =
  let* op = oneofl [ Le; Lt; Eq; Ge ] in
  map2 (fun a b -> EBin (op, a, b)) (iexpr_sized 2) (iexpr_sized 2)

let rec rexpr_sized n =
  if n <= 0 then
    frequency
      [
        (3, return (EVar "r"));
        (2, map (fun c -> EReal (0.25 *. float_of_int c)) (0 -- 9));
        (1, map (fun c -> EBin (Mul, EVar "iproc", EReal (0.5 *. float_of_int (1 + c)))) (0 -- 4));
      ]
  else
    let sub = rexpr_sized (n / 2) in
    frequency
      [
        (3, map2 (fun a b -> EBin (Add, a, b)) sub sub);
        (2, map2 (fun a b -> EBin (Mul, a, b)) sub sub);
        (2, map2 (fun a b -> EBin (Sub, a, b)) sub sub);
        (1, map2 (fun a b -> EBin (Div, a, b)) sub sub);
      ]

let simd_lv name index = { lv_name = name; lv_index = index }

(** A reduction into the front-end scalar [s]: the boolean forms, the
    integer folds, and — crucially for the chunk merge tree — REAL sums. *)
let simd_reduction =
  frequency
    [
      ( 2,
        let* name = oneofl [ "any"; "all"; "count" ] in
        map (fun c -> SAssign (simd_lv "s" [], ECall (name, [ c ]))) simd_bexpr
      );
      ( 2,
        let* name = oneofl [ "sum"; "maxval"; "minval" ] in
        map
          (fun e -> SAssign (simd_lv "s" [], ECall (name, [ e ])))
          (iexpr_sized 2) );
      ( 2,
        let* name = oneofl [ "sum"; "maxval"; "minval" ] in
        map
          (fun e -> SAssign (simd_lv "s" [], ECall (name, [ e ])))
          (rexpr_sized 2) );
    ]

(** One statement; [n] bounds the WHERE/DO nesting depth.  WHILE loops
    are generated separately (top level only) so their counters cannot
    be clobbered by a surrounding loop. *)
let rec simd_stmt_sized n =
  let leaf =
    frequency
      [
        (3, map2 (fun v e -> SAssign (simd_lv v [], e)) simd_ivar (iexpr_sized 2));
        (2, map (fun e -> SAssign (simd_lv "r" [], e)) (rexpr_sized 2));
        (2, simd_reduction);
        (* gathers *)
        (2, map2 (fun v i -> SAssign (simd_lv v [], EIdx ("g", [ i ]))) simd_ivar simd_idx);
        (1, map (fun i -> SAssign (simd_lv "r" [], EIdx ("h", [ i ]))) simd_idx);
        (1, map2 (fun v i -> SAssign (simd_lv v [], EIdx ("f", [ i ]))) simd_ivar simd_idx_f);
        (* scatters *)
        (2, map2 (fun i e -> SAssign (simd_lv "g" [ i ], e)) simd_idx (iexpr_sized 2));
        (1, map2 (fun i e -> SAssign (simd_lv "h" [ i ], e)) simd_idx (rexpr_sized 2));
        (1, map2 (fun i e -> SAssign (simd_lv "f" [ i ], e)) simd_idx_f (iexpr_sized 2));
        (* a lane-indexed divisor: fails on exactly one lane when p is
           large enough, so the first-failing-lane contract is exercised
           at some sweep widths and not others *)
        ( 1,
          map
            (fun c ->
              SAssign
                ( simd_lv "u" [],
                  EBin (Div, EVar "v", EBin (Sub, EVar "iproc", EInt c)) ))
            (1 -- 9) );
      ]
  in
  if n <= 0 then leaf
  else
    let blk = list_size (1 -- 3) (simd_stmt_sized (n - 1)) in
    frequency
      [
        (5, leaf);
        (2, map3 (fun c t f -> SWhere (c, t, f)) simd_bexpr blk blk);
        (1, map3 (fun c t f -> SIf (c, t, f)) simd_bexpr blk blk);
        ( 1,
          map2
            (fun c b -> SDo (do_control "d" (EInt 1) (EInt (1 + c)), b))
            (0 -- 3) blk );
      ]

(** The while-any idiom with a private, strictly increasing counter. *)
let simd_while_any idx =
  let wc = Printf.sprintf "wc%d" idx in
  let* bound = 1 -- 5 in
  let* step = 1 -- 2 in
  let* body = list_size (1 -- 2) (simd_stmt_sized 1) in
  let cond = EBin (Le, EVar wc, EInt bound) in
  return
    [
      SAssign (simd_lv wc [], EVar "iproc");
      SWhile
        ( ECall ("any", [ cond ]),
          [
            SWhere
              ( cond,
                body @ [ SAssign (simd_lv wc [], EBin (Add, EVar wc, EInt step)) ],
                [] );
          ] );
    ]

let simd_prog_gen =
  let* c1 = 0 -- 9 in
  let* c2 = 1 -- 4 in
  let* c3 = 0 -- 9 in
  let prologue =
    [
      SAssign (simd_lv "u" [], EVar "iproc");
      SAssign (simd_lv "v" [], EBin (Mul, EVar "iproc", EInt c2));
      SAssign (simd_lv "w" [], EBin (Sub, EVar "iproc", EInt c1));
      SAssign (simd_lv "r" [], EBin (Mul, EVar "iproc", EReal (0.5 +. (0.125 *. float_of_int c3))));
      SAssign (simd_lv "s" [], EInt 0);
    ]
  in
  let* body = list_size (2 -- 5) (simd_stmt_sized 2) in
  let* nloops = 0 -- 2 in
  let rec loops i acc =
    if i >= nloops then return (List.concat (List.rev acc))
    else
      let* l = simd_while_any i in
      loops (i + 1) (l :: acc)
  in
  let* loop_stmts = loops 0 [] in
  return (Ast.program "diff" (prologue @ body @ loop_stmts))

(** Bind the environment every generated program runs in, at width [p]:
    the size-[simd_global_n] globals [g] (INTEGER) and [h] (REAL), the
    3-slot per-lane array [f], and the scalar [n]. *)
let simd_prog_setup ~p:_ vm =
  Lf_simd.Vm.bind_scalar vm "n" (Values.VInt simd_global_n);
  Lf_simd.Vm.bind_global vm "g"
    (Values.AInt (Nd.of_array (Array.init simd_global_n (fun i -> 10 * (i + 1)))));
  Lf_simd.Vm.bind_global vm "h"
    (Values.AReal
       (Nd.of_array (Array.init simd_global_n (fun i -> 0.5 *. float_of_int (i + 1)))));
  Lf_simd.Vm.bind_plural_arr vm "f" Ast.TInt [| 3 |];
  (* the extended generators' external subroutine and function:
     [tally] exercises the LScall path, [sq] the per-lane call path *)
  Lf_simd.Vm.register_proc vm "tally" (fun _vm ~mask:_ _args -> ());
  Lf_simd.Vm.register_func vm "sq" (fun vs ->
      match vs with
      | [ Values.VInt n ] -> Values.VInt (n * n)
      | [ v ] -> v
      | _ -> Values.VInt 0)

let exec_setup (en : exec_nest) ctx =
  let maxl = Array.fold_left max 1 en.l in
  Env.set ctx.Interp.env "k" (Values.VInt en.k);
  Env.set ctx.Interp.env "acc" (Values.VInt 0);
  Env.set ctx.Interp.env "l" (Values.VArr (Values.AInt (Nd.of_array en.l)));
  Env.set ctx.Interp.env "x"
    (Values.VArr (Values.AInt (Nd.create [| en.k; maxl |] 0)));
  (* external subroutine used by CALL-bearing nests; its invocations are
     recorded in the interpreter's observation trace *)
  Interp.register_proc ctx "tick" (fun _ctx _args -> ())

let exec_observables = [ "x"; "acc" ]

(* ------------------------------------------------------------------ *)
(* Extended front-end nests: GOTO loops and CALLs                      *)
(* ------------------------------------------------------------------ *)

(** The dusty-deck GOTO-loop rendering of the outer counted loop, in the
    exact shape [Lf_analysis.Loop_info.restructure_gotos] recognizes:

    {v
      i = 1
      10 IF (i > k) GOTO 20
        <inner>
        i = i + 1
        GOTO 10
      20 CONTINUE
    v}

    The current [exec_nest_gen] never emits labels, so GOTO programs
    exercise the restructuring front of the pipeline (and the lint's
    irregular-control rules) only through this generator. *)
let goto_outer inner =
  [
    Ast.assign "i" (EInt 1);
    SLabel "10";
    SCondGoto (EBin (Gt, EVar "i", EVar "k"), "20");
  ]
  @ inner
  @ [
      Ast.assign "i" (EBin (Add, EVar "i", EInt 1));
      SGoto "10";
      SLabel "20";
    ]

(** A statement the plain generator never produces: an external CALL.
    [exec_setup] registers the subroutine, and the interpreter records
    every invocation in the observation trace, so translation validation
    compares call sequences too. *)
let call_stmt =
  let* nargs = 0 -- 2 in
  let args =
    match nargs with
    | 0 -> []
    | 1 -> [ EVar "i" ]
    | _ -> [ EVar "i"; EVar "j" ]
  in
  return (SCall ("tick", args))

(** Leaf statements over the nest vocabulary (used by mutation inserts
    as well as the extended bodies below). *)
let nest_leaf_stmt =
  frequency
    [
      ( 3,
        return
          (SAssign
             ( { lv_name = "x"; lv_index = [ EVar "i"; EVar "j" ] },
               EBin (Add, EVar "i", EVar "j") )) );
      ( 2,
        return
          (SAssign
             ( { lv_name = "acc"; lv_index = [] },
               EBin (Add, EVar "acc", EVar "i") )) );
      (1, call_stmt);
    ]

(** Extended executable nests: the [exec_nest_gen] class plus GOTO-loop
    outer renderings and CALL-bearing bodies. *)
let exec_nest_ext_gen =
  let* en = exec_nest_gen in
  let* style = 0 -- 2 in
  match style with
  | 0 -> return en (* plain, as before *)
  | 1 ->
      (* reroll the outer loop as a dusty-deck GOTO loop *)
      let inner =
        match en.src_block with
        | [ SDo (_, inner) ] -> inner
        | [ _; SWhile (_, body) ] ->
            (* drop the explicit counter bump: the GOTO shape has its own *)
            List.filter
              (fun s ->
                match s with
                | SAssign ({ lv_name = "i"; _ }, _) -> false
                | _ -> true)
              body
        | b -> b
      in
      return { en with src_block = goto_outer inner }
  | _ ->
      (* sprinkle a CALL into the innermost body *)
      let* call = call_stmt in
      let rec add_call = function
        | SDo (c, b) -> SDo (c, inject b)
        | SWhile (c, b) -> SWhile (c, inject b)
        | SForall (c, b) -> SForall (c, inject b)
        | s -> s
      and inject b =
        if List.exists (function SDo _ | SWhile _ | SForall _ -> true | _ -> false) b
        then List.map add_call b
        else call :: b
      in
      return { en with src_block = List.map add_call en.src_block }

(* ------------------------------------------------------------------ *)
(* Extended SIMD programs: CALLs, FORALL, deeper WHERE nesting         *)
(* ------------------------------------------------------------------ *)

(** Integer expressions that may also apply the registered function
    [sq] (see [simd_prog_setup]). *)
let iexpr_ext_sized n =
  if n <= 0 then iexpr_sized 0
  else
    frequency
      [
        (4, iexpr_sized n);
        (1, map (fun a -> ECall ("sq", [ a ])) (iexpr_sized (n - 1)));
      ]

(** One extended statement: everything [simd_stmt_sized] produces, plus
    subroutine CALLs (the [LScall] path) and FORALL loops over a small
    constant range — constructs the plain generator never emits. *)
let rec simd_stmt_ext_sized n =
  let leaf =
    frequency
      [
        (6, simd_stmt_sized 0);
        (1, map (fun e -> SCall ("tally", [ e ])) (iexpr_ext_sized 1));
        (1, map2 (fun v e -> SAssign (simd_lv v [], e)) simd_ivar
             (iexpr_ext_sized 2));
      ]
  in
  if n <= 0 then leaf
  else
    let blk = list_size (1 -- 3) (simd_stmt_ext_sized (n - 1)) in
    frequency
      [
        (4, leaf);
        (2, map3 (fun c t f -> SWhere (c, t, f)) simd_bexpr blk blk);
        (1, map3 (fun c t f -> SIf (c, t, f)) simd_bexpr blk blk);
        ( 1,
          map2
            (fun c b -> SForall (do_control "e" (EInt 1) (EInt (1 + c)), b))
            (0 -- 2) blk );
        ( 1,
          map2
            (fun c b -> SDo (do_control "d" (EInt 1) (EInt (1 + c)), b))
            (0 -- 3) blk );
      ]

(** Extended SIMD programs: the [simd_prog_gen] prologue and while-any
    loops, with deeper ([<= 3] level) FORALL/WHERE nesting, CALLs and
    [sq] applications mixed in. *)
let simd_prog_ext_gen =
  let* base = simd_prog_gen in
  let* extra = list_size (1 -- 3) (simd_stmt_ext_sized 3) in
  (* appended after the while-any epilogue: the extended statements never
     touch the wcN counters, so loop termination is preserved *)
  return { base with Ast.p_body = base.Ast.p_body @ extra }
