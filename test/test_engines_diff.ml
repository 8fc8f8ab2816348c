(** Differential engine-equivalence harness.

    The three execution engines — the tree-walking reference, the
    compiled closure engine, and the lane-sharded parallel engine — are
    drop-in replacements: same final variable state, same [Metrics],
    same error messages.  This suite drives that contract with random
    SIMD-dialect programs ([Gen.simd_prog_gen]) replayed on every engine
    across a sweep of lane counts (including the degenerate [p = 0] and
    the multi-chunk [p = 1024]) and shard counts, plus a fixed corpus
    (the paper's flattened EXAMPLE and the flattened NBFORCE kernel).

    The float-sum contract is checked {e bitwise}: every engine folds
    the same canonical chunked merge tree ([Pool.chunk]-sized chunks,
    merged in ascending order), so REAL sums are identical down to the
    last bit at any jobs count — not merely within tolerance. *)

open Helpers
open Lf_lang
module Vm = Lf_simd.Vm
module Metrics = Lf_simd.Metrics

(* a modest fuel: termination is by construction, fuel exhaustion is
   only a backstop — and must itself be engine-identical *)
let fuel = 20_000
let min_shard = Lf_simd.Pool.min_shard
let ps = [ 0; 1; 5; 64; 1024 ]
let jobs_sweep = [ 1; 2; 3; 7 ]

let run_one ?jobs ?opt ?verify engine ~p prog : (Vm.t, string) result =
  match
    Vm.run ~fuel ~engine ?jobs ?opt ?verify ~p
      ~setup:(Gen.simd_prog_setup ~p)
      prog
  with
  | vm -> Ok vm
  | exception ((Errors.Runtime_error _ | Errors.Runtime_error_at _) as e) ->
      Error (Errors.to_message e)

(* the oracle: both succeed with equal state and metrics, or both fail
   with the identical message — anything else is a counterexample *)
let pair_agrees ~what ~prog a b =
  match (a, b) with
  | Ok vm_a, Ok vm_b ->
      (Vm.state_equal vm_a vm_b
      && Metrics.equal vm_a.Vm.metrics vm_b.Vm.metrics)
      || QCheck.Test.fail_reportf "%s: state/metrics diverged on@.%s" what
           (Pretty.program_to_string prog)
  | Error m_a, Error m_b ->
      m_a = m_b
      || QCheck.Test.fail_reportf "%s: errors differ (%S vs %S) on@.%s" what
           m_a m_b
           (Pretty.program_to_string prog)
  | Ok _, Error m ->
      QCheck.Test.fail_reportf "%s: only the second engine failed (%S) on@.%s"
        what m
        (Pretty.program_to_string prog)
  | Error m, Ok _ ->
      QCheck.Test.fail_reportf "%s: only the first engine failed (%S) on@.%s"
        what m
        (Pretty.program_to_string prog)

(* the optimizer sweep crosses the tree-walker against the compiled
   engine at every optimizer level, the levels against each other, and
   the parallel engine at -O0 (the -O1/-O2 parallel legs run the full
   jobs sweep below) — fusion, fused reductions, scatter-accumulate
   and scratch reuse must all be unobservable.  The -O2 compiled leg runs under the verifier,
   so every random program also checks the optimizer never emits IR the
   verifier rejects. *)
let prop_engines_equivalent prog =
  List.for_all
    (fun p ->
      let tree = run_one `Tree_walk ~p prog in
      let compiled0 = run_one ~opt:0 `Compiled ~p prog in
      let compiled = run_one ~opt:1 `Compiled ~p prog in
      let compiled2 = run_one ~opt:2 ~verify:true `Compiled ~p prog in
      pair_agrees ~what:(Fmt.str "tree vs compiled -O1, p=%d" p) ~prog tree
        compiled
      && pair_agrees
           ~what:(Fmt.str "compiled -O0 vs -O1, p=%d" p)
           ~prog compiled0 compiled
      && pair_agrees
           ~what:(Fmt.str "compiled -O1 vs -O2+verify, p=%d" p)
           ~prog compiled compiled2
      && pair_agrees
           ~what:(Fmt.str "parallel -O0 vs tree, p=%d jobs=3" p)
           ~prog tree
           (run_one ~jobs:3 ~opt:0 `Parallel ~p prog)
      && List.for_all
           (fun jobs ->
             let par = run_one ~jobs ~opt:1 `Parallel ~p prog in
             let par2 = run_one ~jobs ~opt:2 `Parallel ~p prog in
             pair_agrees
               ~what:(Fmt.str "tree vs parallel -O1, p=%d jobs=%d" p jobs)
               ~prog tree par
             && pair_agrees
                  ~what:
                    (Fmt.str "tree vs parallel -O2, p=%d jobs=%d" p jobs)
                  ~prog tree par2)
           jobs_sweep)
    ps

let t_random_programs =
  qcheck_case ~count:500
    "differential: 3 engines, p in {0,1,5,64,1024}, jobs in {1,2,3,7}"
    Gen.simd_prog_gen prop_engines_equivalent

(* At p = 1024 (two shard floors) every jobs count above 1 makes two
   shards; at seven floors the parallel legs make 2, 3 and 7 shards,
   the 3 uneven (18, 19 and 19 chunks). *)
let prop_shard_counts prog =
  let p = 7 * min_shard in
  let tree = run_one `Tree_walk ~p prog in
  List.for_all
    (fun jobs ->
      pair_agrees
        ~what:(Fmt.str "tree vs parallel -O1, p=%d jobs=%d" p jobs)
        ~prog tree
        (run_one ~jobs ~opt:1 `Parallel ~p prog))
    [ 2; 3; 7 ]

let t_random_shard_counts =
  qcheck_case ~count:200
    "differential: tree vs parallel at 7 shard floors, jobs in {2,3,7}"
    Gen.simd_prog_gen prop_shard_counts

(* ------------------------------------------------------------------ *)
(* Bitwise float-sum identity                                          *)
(* ------------------------------------------------------------------ *)

(* 0.1 is not representable, so naive left-to-right vs shard-partial
   summation of iproc * 0.1 WOULD differ in the low bits at large p; the
   canonical chunked merge tree makes every engine produce the same
   bits at every jobs count *)
let t_float_sum_bitwise () =
  let src = "r = iproc * 0.1\nWHERE (iproc - (iproc / 3) * 3 >= 1)\n  s = sum(r)\nENDWHERE\nt = sum(r)" in
  let prog = Ast.program "fsum" (Parser.block_of_string src) in
  let bits_of ?jobs ?opt engine p name =
    let vm = Vm.run ~engine ?jobs ?opt ~p prog in
    match Vm.find vm name with
    | Vm.VScalar { contents = Values.VReal f } -> Int64.bits_of_float f
    | Vm.VScalar { contents = Values.VInt i } -> Int64.of_int i
    | _ -> Alcotest.fail (name ^ " is not scalar")
  in
  (* at -O1 the masked [sum(r)] folds as a fused reduction without
     materializing r's operand chain; the bits must not notice *)
  List.iter
    (fun p ->
      List.iter
        (fun name ->
          let reference = bits_of `Tree_walk p name in
          List.iter
            (fun opt ->
              checkb
                (Fmt.str "compiled -O%d %s bitwise at p=%d" opt name p)
                (Int64.equal reference (bits_of ~opt `Compiled p name));
              List.iter
                (fun jobs ->
                  checkb
                    (Fmt.str "parallel -O%d %s bitwise at p=%d jobs=%d" opt
                       name p jobs)
                    (Int64.equal reference
                       (bits_of ~jobs ~opt `Parallel p name)))
                [ 1; 2; 3; 7; 16 ])
            [ 0; 1; 2 ])
        [ "s"; "t" ])
    [ 1; 5; 64; 65; 128; 1000; 1024; (2 * min_shard) + 76; 16 * min_shard ]

(* ------------------------------------------------------------------ *)
(* Fixed corpus: the paper's kernels                                   *)
(* ------------------------------------------------------------------ *)

let derive_example () =
  let p = Parser.program_of_string Lf_report.Experiments.example_source in
  let opts =
    {
      Lf_core.Pipeline.default_options with
      assume_inner_nonempty = true;
      target =
        Lf_core.Pipeline.Simd
          { decomp = Lf_core.Simdize.Block; p = Ast.EVar "p" };
    }
  in
  match Lf_core.Pipeline.flatten_program ~opts p with
  | Ok o -> o.Lf_core.Pipeline.program
  | Error e -> Alcotest.fail e

let t_example_corpus () =
  let prog = derive_example () in
  let run ?jobs engine p =
    Vm.run ~engine ?jobs ~p
      ~setup:(fun vm ->
        Vm.bind_scalar vm "k" (Values.VInt 8);
        Vm.bind_scalar vm "p" (Values.VInt p);
        Vm.bind_global vm "l" (Values.AInt (Nd.of_array paper_l));
        Vm.bind_global vm "x" (Values.AInt (Nd.create [| 8; 4 |] 0)))
      prog
  in
  List.iter
    (fun p ->
      let tree = run `Tree_walk p in
      List.iter
        (fun (what, vm) ->
          checkb (Fmt.str "EXAMPLE %s state at p=%d" what p)
            (Vm.state_equal tree vm);
          checkb
            (Fmt.str "EXAMPLE %s metrics at p=%d" what p)
            (Metrics.equal tree.Vm.metrics vm.Vm.metrics))
        [
          ("compiled", run `Compiled p);
          ("parallel j1", run ~jobs:1 `Parallel p);
          ("parallel j4", run ~jobs:4 `Parallel p);
        ])
    [ 1; 2; 8 ]

let t_nbforce_corpus () =
  let p = 8 in
  let mol = Lf_md.Workload.sod ~n:32 () in
  let pl = Lf_md.Workload.pairlist mol ~cutoff:8.0 in
  let opts =
    {
      Lf_core.Pipeline.default_options with
      assume_inner_nonempty = true;
      target =
        Lf_core.Pipeline.Simd
          { decomp = Lf_core.Simdize.Cyclic; p = Ast.EInt p };
    }
  in
  let prog =
    match
      Lf_core.Pipeline.flatten_program ~opts
        (Lf_kernels.Nbforce_src.program ())
    with
    | Ok o -> o.Lf_core.Pipeline.program
    | Error e -> Alcotest.fail e
  in
  let f_tree, m_tree =
    Lf_kernels.Nbforce_src.run_simd ~engine:`Tree_walk prog mol pl ~p
  in
  List.iter
    (fun (what, engine, jobs, opt) ->
      let f, m =
        Lf_kernels.Nbforce_src.run_simd ~engine ?jobs ?opt
          ~verify:(opt = Some 2 && engine = `Compiled)
          prog mol pl ~p
      in
      checkb (Fmt.str "NBFORCE %s metrics" what) (Metrics.equal m_tree m);
      checki (Fmt.str "NBFORCE %s force count" what) (Array.length f_tree)
        (Array.length f);
      Array.iteri
        (fun i x ->
          checkb
            (Fmt.str "NBFORCE %s force %d bitwise" what i)
            (Int64.equal (Int64.bits_of_float f_tree.(i))
               (Int64.bits_of_float x)))
        f)
    [
      ("compiled", `Compiled, None, None);
      ("compiled -O2+verify", `Compiled, None, Some 2);
      ("parallel j1", `Parallel, Some 1, None);
      ("parallel j4", `Parallel, Some 4, None);
      ("parallel -O2 j4", `Parallel, Some 4, Some 2);
    ]

(* ------------------------------------------------------------------ *)
(* Shape matrix                                                        *)
(* ------------------------------------------------------------------ *)

(* Random programs do not reliably reach every operand-shape pair of
   every operator, so this matrix enumerates them: every binary
   operator (arith, comparisons, logic, /, MOD, ** ) and both unary ones
   against every pair of operand shapes — unboxed int/real/bool lanes
   (ri/rr/rb), a boxed mixed-type plural (rp) and front-end int/real/bool
   scalars (si/sr/sb) — under an empty, a partial and the full mask, as
   plain assignments and inside fused regions and reductions.  [ri] is
   zero on lane 2, which the partial mask [iproc > 2] switches off: every
   / and MOD row divides by zero on an inactive lane before the full mask
   makes it fault.  [bounds_cases] add out-of-bounds subscripts on
   masked-off lanes and in dimension 2 of rank-2 gathers and scatters.
   Each program runs on the tree-walker (the reference) and on the
   compiled and parallel (jobs 1 and 3) engines at -O0, -O1 and -O2,
   which must match its state, Metrics and error bytes.  At p = 5 and
   200 every leg runs on one shard; at the wide p, three shard floors
   and a ragged chunk, only the 3-job leg runs, on 3 shards. *)

let matrix_legs =
  [
    ("compiled", `Compiled, None);
    ("parallel j1", `Parallel, Some 1);
    ("parallel j3", `Parallel, Some 3);
  ]

let matrix_ps =
  [
    (5, matrix_legs);
    (200, matrix_legs);
    ((3 * min_shard) + 72, [ ("parallel j3", `Parallel, Some 3) ]);
  ]

let matrix_setup ~p vm =
  let n = p - 1 in
  Vm.bind_scalar vm "n" (Values.VInt n);
  Vm.bind_global vm "g"
    (Values.AInt (Nd.of_array (Array.init n (fun i -> 10 * (i + 1)))));
  Vm.bind_global vm "h"
    (Values.AReal
       (Nd.of_array (Array.init n (fun i -> 0.5 *. float_of_int (i + 1)))));
  Vm.bind_global vm "g2"
    (Values.AInt (Nd.init [| 2; n |] (fun ix -> ix.(0) + (10 * ix.(1)))))

let matrix_prologue =
  Parser.block_of_string
    "ri = iproc - 2\n\
     rr = iproc * 0.5 - 1.0\n\
     rb = iproc > 2\n\
     rp = iproc\n\
     WHERE (iproc > 2)\n\
    \  rp = iproc * 0.25\n\
     ENDWHERE\n\
     si = 3\n\
     sr = 1.5\n\
     sb = .TRUE."

let shapes = [ "ri"; "rr"; "rb"; "rp"; "si"; "sr"; "sb" ]

let binops =
  Ast.[ Add; Sub; Mul; Div; Mod; Pow; Eq; Ne; Lt; Le; Gt; Ge; And; Or ]

let op_name = function
  | Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/"
  | Ast.Mod -> "MOD" | Ast.Pow -> "**" | Ast.Eq -> "==" | Ast.Ne -> "/="
  | Ast.Lt -> "<" | Ast.Le -> "<=" | Ast.Gt -> ">" | Ast.Ge -> ">="
  | Ast.And -> ".AND." | Ast.Or -> ".OR."

let assign v e = Ast.SAssign ({ Ast.lv_name = v; lv_index = [] }, e)

(* the body under an empty mask, then a partial one, then the full one;
   every statement carries a line of its own, so an error message names
   the mask it was raised under *)
let under_masks body =
  let located line =
    List.mapi
      (fun k s -> Ast.SLoc ({ Errors.line = line + k; col = 1 }, s))
      body
  in
  let where c line =
    Ast.SWhere
      (Ast.EBin (Ast.Gt, Ast.EVar "iproc", Ast.EInt c), located line, [])
  in
  where 1000 100 :: where 2 200 :: located 300

(* twice: the first assignment binds [z], the second stores into it *)
let plain_form e = under_masks [ assign "z" e; assign "z" e ]

let fused_form ~logical e =
  let call f = Ast.ECall (f, [ e ]) in
  under_masks
    (if logical then
       [ assign "c1" (call "count"); assign "c2" (call "any");
         assign "c3" (call "all") ]
     else
       [ assign "w" (call "abs"); assign "s1" (call "sum");
         assign "s2" (call "maxval"); assign "s3" (call "minval") ])

let matrix_programs () =
  let prog name body = (name, Ast.program name (matrix_prologue @ body)) in
  let bin =
    List.concat_map
      (fun op ->
        let logical =
          match op with
          | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And
          | Ast.Or ->
              true
          | _ -> false
        in
        List.concat_map
          (fun x ->
            List.concat_map
              (fun y ->
                let e = Ast.EBin (op, Ast.EVar x, Ast.EVar y) in
                let name = Fmt.str "%s %s %s" x (op_name op) y in
                [ prog (name ^ " plain") (plain_form e);
                  prog (name ^ " fused") (fused_form ~logical e) ])
              shapes)
          shapes)
      binops
  in
  let un =
    List.concat_map
      (fun x ->
        let neg = Ast.EUn (Ast.Neg, Ast.EVar x)
        and not_ = Ast.EUn (Ast.Not, Ast.EVar x) in
        [ prog ("-" ^ x ^ " plain") (plain_form neg);
          prog ("-" ^ x ^ " fused") (fused_form ~logical:false neg);
          prog (".NOT. " ^ x ^ " plain") (plain_form not_);
          prog (".NOT. " ^ x ^ " fused") (fused_form ~logical:true not_) ])
      shapes
  in
  bin @ un

(* gathers and scatters (plain, fused, accumulating) whose subscripts
   leave the array on a lane the mask switches off, then on an active
   lane; [g2] is 2 x n, so [g2(1, iproc)] faults in dimension 2 *)
let bounds_cases =
  [
    ("gather rank 1", "y = g(iproc)\nx = h(iproc)");
    ("gather rank 2 dim 2", "y = g2(1, iproc)\nx = g2(2, iproc) * 0.5");
    ("gather rank 2 dim 1", "y = g2(iproc, 1)");
    ("fused gather", "y = abs(g(iproc))\nx = abs(h(iproc) - g2(2, iproc))");
    ("fused reduction gather", "y = sum(g(iproc))\nx = maxval(h(iproc))");
    ( "scatter rank 1",
      "g(iproc) = ri\nh(iproc) = rr\nh(iproc) = ri\ng(iproc) = si" );
    ("scatter rank 2 dim 2", "g2(1, iproc) = ri\ng2(2, iproc) = si");
    ("scatter rank 2 dim 1", "g2(iproc, 1) = ri");
    ( "accumulate",
      "g(iproc) = g(iproc) + ri\nh(iproc) = h(iproc) + rr\n\
       h(iproc) = h(iproc) + si" );
    ("zero divisor", "z = 12 / ri\nw = abs(7 / ri)\nc = sum(mod(5, ri))");
  ]
  |> List.map (fun (name, body) ->
         (* one source text, so the guarded and the unguarded copy raise
            at different lines *)
         let src =
           Printf.sprintf
             "WHERE (iproc <= n .AND. iproc /= 2)\n%s\nENDWHERE\n%s" body body
         in
         ( "bounds: " ^ name,
           Ast.program name (matrix_prologue @ Parser.block_of_string src) ))

let matrix_run ?jobs ?(opt = 1) engine ~p prog : (Vm.t, string) result =
  match
    Vm.run ~fuel ~engine ?jobs ~opt ~verify:(opt = 2) ~p
      ~setup:(matrix_setup ~p) prog
  with
  | vm -> Ok vm
  | exception ((Errors.Runtime_error _ | Errors.Runtime_error_at _) as e) ->
      Error (Errors.to_message e)

let same a b =
  match (a, b) with
  | Ok x, Ok y ->
      Vm.state_equal x y && Metrics.equal x.Vm.metrics y.Vm.metrics
  | Error x, Error y -> String.equal x y
  | _ -> false

(* Every program on every engine and level against the tree-walker;
   returns the mismatches and how many reference runs fault. *)
let matrix_check programs =
  let failures = ref [] in
  let faults = ref 0 and clean = ref 0 in
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun (p, legs) ->
          let tree = matrix_run `Tree_walk ~p prog in
          incr (if Result.is_error tree then faults else clean);
          List.iter
            (fun opt ->
              List.iter
                (fun (what, engine, jobs) ->
                  if not (same tree (matrix_run ?jobs ~opt engine ~p prog))
                  then
                    failures :=
                      Fmt.str "%s: %s -O%d differs from tree-walk at p=%d"
                        name what opt p
                      :: !failures)
                legs)
            [ 0; 1; 2 ])
        matrix_ps)
    programs;
  (List.rev !failures, !faults, !clean)

let report_mismatches what = function
  | [] -> ()
  | fs ->
      Alcotest.failf "%d %s mismatches, first: %s" (List.length fs) what
        (List.hd fs)

let t_shape_matrix () =
  let failures, faults, clean =
    matrix_check (matrix_programs () @ bounds_cases)
  in
  (* the matrix must reach both the error paths and clean runs *)
  checkb "some matrix programs fault" (faults > 0);
  checkb "some matrix programs run clean" (clean > 0);
  report_mismatches "shape-matrix" failures

(* The numeric intrinsics with typed lane kernels (SQRT, EXP, REAL, INT,
   NINT, ABS, MAX, MIN) against the tree-walker's boxed intrinsics, over
   every operand shape and pair of shapes, under the empty, partial and
   full masks: the kernels must pick the same result type and compute
   the same lanes, and shapes without a kernel must still fault or
   compute exactly as before. *)
let intrinsic_programs () =
  let prog name e =
    (name, Ast.program name (matrix_prologue @ plain_form e))
  in
  let call f args = Ast.ECall (f, List.map (fun x -> Ast.EVar x) args) in
  List.concat_map
    (fun f -> List.map (fun x -> prog (f ^ " " ^ x) (call f [ x ])) shapes)
    [ "sqrt"; "exp"; "real"; "int"; "nint"; "abs" ]
  @ List.concat_map
      (fun f ->
        List.concat_map
          (fun x ->
            List.map
              (fun y -> prog (Fmt.str "%s %s %s" f x y) (call f [ x; y ]))
              shapes)
          shapes)
      [ "max"; "min" ]

let t_intrinsic_kernels () =
  let failures, faults, clean = matrix_check (intrinsic_programs ()) in
  checkb "some intrinsic programs fault" (faults > 0);
  checkb "some intrinsic programs run clean" (clean > 0);
  report_mismatches "intrinsic" failures

(* ------------------------------------------------------------------ *)
(* Failing runs                                                        *)
(* ------------------------------------------------------------------ *)

(* A failing [Vm.run] returns no VM, so keep the one [setup] is given. *)
let run_kept ?jobs ?opt engine ~fuel ~p prog : Vm.t * string option =
  let kept = ref None in
  let setup vm =
    kept := Some vm;
    Gen.simd_prog_setup ~p vm
  in
  match Vm.run ~fuel ~engine ?jobs ?opt ~p ~setup prog with
  | vm -> (vm, None)
  | exception ((Errors.Runtime_error _ | Errors.Runtime_error_at _) as e) ->
      (Option.get !kept, Some (Errors.to_message e))

(* The failing-run contract (DESIGN.md "Execution engines"): a serial
   compiled run that fails leaves the tree-walker's partial state and
   Metrics, not only its message, at every -O level.  A parallel run may
   have run lanes ahead of the failing one (DESIGN.md "Error ordering"),
   so its legs pin the outcome and message only.  Small fuels stop the
   runs at many different steps; p = 130 spans more than one pool chunk.
   Every leg runs one shard there; at the wide p, three shard floors and
   a ragged chunk, only the 3-job leg runs, on 3 shards. *)
let t_failing_runs () =
  let wide = (3 * min_shard) + 2 in
  let progs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 42 |]) ~n:300
      Gen.simd_prog_gen
  in
  let failures = ref [] and failing = ref 0 and fuel_faults = ref 0 in
  let show = Option.value ~default:"ok" in
  List.iteri
    (fun k prog ->
      List.iter
        (fun (p, fuel) ->
          let where = Fmt.str "program %d, p=%d, fuel=%d" k p fuel in
          let tree, te = run_kept `Tree_walk ~fuel ~p prog in
          Option.iter
            (fun m ->
              incr failing;
              if String.ends_with ~suffix:"fuel exhausted" m then
                incr fuel_faults)
            te;
          let differs what e =
            failures :=
              Fmt.str "%s: %s outcome %s, tree-walk %s" where what (show e)
                (show te)
              :: !failures
          in
          if p <> wide then
            List.iter
              (fun opt ->
                let vm, e = run_kept ~opt `Compiled ~fuel ~p prog in
                let what = Fmt.str "compiled -O%d" opt in
                if e <> te then differs what e
                else if
                  not
                    (Vm.state_equal tree vm
                    && Metrics.equal tree.Vm.metrics vm.Vm.metrics)
                then
                  failures :=
                    Fmt.str "%s: %s state or Metrics differ (outcome %s)" where
                      what (show e)
                    :: !failures)
              [ 0; 1; 2 ];
          let _, e = run_kept ~jobs:3 `Parallel ~fuel ~p prog in
          if e <> te then differs "parallel jobs=3" e)
        (List.concat_map
           (fun p -> List.map (fun fuel -> (p, fuel)) [ 7; 40; 300; 20_000 ])
           [ 1; 5; 64; 130; wide ]))
    progs;
  checkb "some runs fail" (!failing > 0);
  checkb "some runs exhaust their fuel" (!fuel_faults > 0);
  report_mismatches "failing-run" (List.rev !failures)

let suite =
  [
    t_random_programs;
    case "REAL sums are bitwise engine-identical" t_float_sum_bitwise;
    case "fixed corpus: flattened EXAMPLE" t_example_corpus;
    case "fixed corpus: flattened NBFORCE" t_nbforce_corpus;
    case "shape matrix: operators x operand shapes x masks" t_shape_matrix;
    case "typed intrinsic kernels x operand shapes x masks" t_intrinsic_kernels;
    case "failing runs: serial engines keep the same partial state"
      t_failing_runs;
    t_random_shard_counts;
  ]
