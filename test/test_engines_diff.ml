(** Differential harness: the engine against the boxed reference
    machine ([Lf_testgen.Ref_vm]).

    At every [-O] level the engine must reproduce the reference's final
    variable state bit for bit, its [Metrics] exactly and its error
    messages byte for byte, with the partial state a failing run leaves
    behind.  This suite drives that contract with random SIMD-dialect
    programs ([Gen.simd_prog_gen]) across a sweep of lane counts
    (including the degenerate [p = 0] and the multi-chunk [p = 1024]),
    plus a fixed corpus (the paper's flattened EXAMPLE and the flattened
    NBFORCE kernel) and fixed programs at widths of many chunks.

    The float-sum contract is checked {e bitwise}: both machines fold
    the same canonical chunked merge tree ([Scalar_ops.chunk]-sized
    chunks, merged in ascending order), so REAL sums are identical down
    to the last bit — not merely within tolerance. *)

open Helpers
open Lf_lang
module Vm = Lf_simd.Vm
module Metrics = Lf_simd.Metrics
module Ref_vm = Lf_testgen.Ref_vm

(* a modest fuel: termination is by construction, fuel exhaustion is
   only a backstop — and must itself be identical in both machines *)
let fuel = 20_000
let ps = [ 0; 1; 5; 64; 1024 ]

(* Fails unless the engine's run [c] (from [Ref_vm.compiled]) agrees
   with the reference run [r]. *)
let check_against what r c =
  match Ref_vm.disagreement r c with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s differs from the reference" what d

(* the engine at -O0 and at -O1 under the verifier against the
   reference — fusion, fused reductions, scatter-accumulate and scratch
   reuse must all be unobservable, and the -O1 leg checks that the
   optimizer never emits IR the verifier rejects *)
let prop_engines_equivalent prog =
  List.for_all
    (fun p ->
      let setup = Gen.simd_prog_setup ~p in
      let reference = Ref_vm.run ~fuel ~p ~setup prog in
      List.for_all
        (fun opt ->
          match
            Ref_vm.disagreement reference
              (Ref_vm.compiled ~fuel ~opt ~verify:(opt = 1) ~p ~setup prog)
          with
          | None -> true
          | Some d ->
              QCheck.Test.fail_reportf "-O%d, p=%d: %s differs on@.%s" opt p d
                (Pretty.program_to_string prog))
        [ 0; 1 ])
    ps

let t_random_programs =
  qcheck_case ~count:500 "differential: 2 engines, p in {0,1,5,64,1024}"
    Gen.simd_prog_gen prop_engines_equivalent

(* ------------------------------------------------------------------ *)
(* Bitwise float-sum identity                                          *)
(* ------------------------------------------------------------------ *)

(* 0.1 is not representable, so naive left-to-right vs chunk-partial
   summation of iproc * 0.1 WOULD differ in the low bits at large p; the
   canonical chunked merge tree makes both machines produce the same
   bits *)
let bits name = function
  | Values.VReal f -> Int64.bits_of_float f
  | Values.VInt i -> Int64.of_int i
  | _ -> Alcotest.fail (name ^ " is not a number")

let ref_scalar (r, _) name =
  match Hashtbl.find_opt r.Ref_vm.vars name with
  | Some (Ref_vm.VScalar v) -> !v
  | _ -> Alcotest.fail (name ^ " is not scalar in the reference")

let t_float_sum_bitwise () =
  let src = "r = iproc * 0.1\nWHERE (iproc - (iproc / 3) * 3 >= 1)\n  s = sum(r)\nENDWHERE\nt = sum(r)" in
  let prog = Ast.program "fsum" (Parser.block_of_string src) in
  let bits_of ~opt p name =
    match Vm.find (Vm.run ~opt ~p prog) name with
    | Vm.VScalar v -> bits name !v
    | _ -> Alcotest.fail (name ^ " is not scalar")
  in
  (* at -O1 the masked [sum(r)] folds as a fused reduction without
     materializing r's operand chain; the bits must not notice *)
  List.iter
    (fun p ->
      List.iter
        (fun name ->
          let reference = bits name (ref_scalar (Ref_vm.run ~p prog) name) in
          List.iter
            (fun opt ->
              checkb
                (Fmt.str "compiled -O%d %s bitwise at p=%d" opt name p)
                (Int64.equal reference (bits_of ~opt p name)))
            [ 0; 1; 2 ])
        [ "s"; "t" ])
    [ 1; 5; 64; 65; 128; 1000; 1024; 1100; 8192 ]

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
  List.iter
    (fun p ->
      let setup vm =
        Vm.bind_scalar vm "k" (Values.VInt 8);
        Vm.bind_scalar vm "p" (Values.VInt p);
        Vm.bind_global vm "l" (Values.AInt (Nd.of_array paper_l));
        Vm.bind_global vm "x" (Values.AInt (Nd.create [| 8; 4 |] 0))
      in
      check_against
        (Fmt.str "EXAMPLE at p=%d" p)
        (Ref_vm.run ~p ~setup prog)
        (Ref_vm.compiled ~p ~setup prog))
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
  (* [Nbforce_src.run_simd]'s inputs *)
  let setup vm =
    let module Src = Lf_kernels.Nbforce_src in
    let n, maxp = Src.params pl in
    Vm.register_func vm "force" (Src.force_fn mol);
    Vm.bind_scalar vm "n" (Values.VInt n);
    Vm.bind_scalar vm "maxp" (Values.VInt maxp);
    Vm.bind_scalar vm "p" (Values.VInt p);
    Src.bind_arrays pl ~n ~maxp ~set_global:(Vm.bind_global vm)
  in
  let r, _ = Ref_vm.run ~p ~setup prog in
  let f_ref =
    match Hashtbl.find r.Ref_vm.vars "f" with
    | Ref_vm.VGlobal (Values.AReal f) -> Nd.to_array f
    | _ -> Alcotest.fail "f is not a REAL array in the reference"
  in
  List.iter
    (fun (what, opt, verify) ->
      let f, m =
        Lf_kernels.Nbforce_src.run_simd ~opt ~verify prog mol pl ~p
      in
      checkb (Fmt.str "NBFORCE %s metrics" what)
        (Metrics.equal r.Ref_vm.metrics m);
      checki (Fmt.str "NBFORCE %s force count" what) (Array.length f_ref)
        (Array.length f);
      Array.iteri
        (fun i x ->
          checkb
            (Fmt.str "NBFORCE %s force %d bitwise" what i)
            (Int64.equal (Int64.bits_of_float f_ref.(i))
               (Int64.bits_of_float x)))
        f)
    [ ("compiled -O0", 0, false); ("compiled -O1+verify", 1, true) ]

(* ------------------------------------------------------------------ *)
(* Fixed programs at widths of many chunks                             *)
(* ------------------------------------------------------------------ *)

(* dividing by (iproc - 2) fails on lane 2 only; the engine must
   report that lane's error, as the reference does, across 128 chunks at
   every -O level *)
let t_first_failing_lane () =
  let src = "u = 1 / (iproc - 2)\n" in
  let prog = Ast.program "t" (parse_block src) in
  let reference = Ref_vm.run ~p:8192 prog in
  checkb "the reference fails" (Option.is_some (snd reference));
  List.iter
    (fun opt ->
      check_against
        (Fmt.str "compiled -O%d" opt)
        reference
        (Ref_vm.compiled ~opt ~p:8192 prog))
    [ 0; 1; 2 ]

(* Two instructions fail: line 5's gather on the last two lanes, and
   line 6's division on the first lane.  The first failing instruction
   wins, not the lowest failing lane.  The fuel sweep moves a fuel fault
   (raised by the control unit, not a lane) before, on and after each
   failing instruction: the first fault in program order must win. *)
let region_error_src p =
  Printf.sprintf
    {|PROGRAM t
  PLURAL INTEGER a, b, c, d
  INTEGER g(%d)
  a = iproc * 2
  b = g(iproc + 1)
  c = 7 / (iproc - 1)
  d = a + c
END
|}
    (p - 1)

let t_first_failing_instruction () =
  let p = 4096 in
  let prog = Parser.program_of_string (region_error_src p) in
  let setup vm =
    Vm.bind_global vm "g"
      (Values.AInt (Nd.of_array (Array.init (p - 1) Fun.id)))
  in
  let reference =
    Option.value ~default:"no error" (snd (Ref_vm.run ~p ~setup prog))
  in
  checkb
    (Fmt.str "the reference fails at line 5: %s" reference)
    (Astring_contains.contains reference "at 5:");
  List.iter
    (fun fuel ->
      let reference = Ref_vm.run ?fuel ~p ~setup prog in
      let fuel_s = Option.fold ~none:"no fuel limit" ~some:string_of_int fuel in
      List.iter
        (fun opt ->
          check_against
            (Fmt.str "compiled -O%d, %s" opt fuel_s)
            reference
            (Ref_vm.compiled ?fuel ~opt ~p ~setup prog))
        [ 0; 1; 2 ])
    (None :: List.init 6 (fun k -> Some (k + 1)))

(* DO loops of many vector instructions: a fused region reads the loop
   variable [k] through a cell that changes every iteration, and a
   global array is gathered at other lanes' elements, then scattered
   lane-disjointly.  State and Metrics must match the reference. *)
let long_loop_src p =
  Printf.sprintf
    {|PROGRAM t
  INTEGER k
  INTEGER g(%d)
  PLURAL INTEGER w, y, z
  w = 0
  y = 0
  z = 0
  DO k = 1, 300
    y = y + abs(k - 150)
    w = w + k
  ENDDO
  DO k = 1, 100
    z = z + g(%d - iproc)
    g(iproc) = y + k
  ENDDO
END
|}
    p (p + 1)

let t_long_loops () =
  let p = 2048 in
  let prog = Parser.program_of_string (long_loop_src p) in
  let setup vm =
    Vm.bind_global vm "g" (Values.AInt (Nd.of_array (Array.init p Fun.id)))
  in
  let reference = Ref_vm.run ~p ~setup prog in
  List.iter
    (fun opt ->
      check_against
        (Fmt.str "compiled -O%d" opt)
        reference
        (Ref_vm.compiled ~opt ~p ~setup prog))
    [ 0; 1; 2 ]

(* Plural calls of user functions at -O1 fill unboxed per-site buffers;
   the result is typed only when every active lane returned one scalar
   type.  [within] mixes types among the first lanes, [across] is int
   on the first 512 lanes and real elsewhere, [boxed] returns an array
   on one late lane, after a long typed run, and [order] records the
   order it is called in, which must stay ascending.  Each runs under an
   empty, a partial and the full mask; state, Metrics and the call
   order must match the reference. *)
let typed_call_src =
  {|PROGRAM t
  PLURAL REAL a, b, c, d
  WHERE (iproc > 99999)
    a = within(iproc)
  ENDWHERE
  WHERE (iproc > 3)
    a = within(iproc)
    b = across(iproc)
    c = boxed(iproc)
    d = order(iproc)
  ENDWHERE
  a = within(iproc)
  b = across(iproc)
  d = order(iproc)
END
|}

let t_typed_calls () =
  let prog = Parser.program_of_string typed_call_src in
  let p = 2048 and boxed_at = 1436 in
  let calls = ref [] in
  let setup vm =
    let num n = if n <= 2 then Values.VInt n else Values.VReal (float n) in
    let arg = function [ Values.VInt n ] -> n | _ -> 0 in
    Vm.register_func vm "within" (fun a -> num (arg a));
    Vm.register_func vm "across" (fun a ->
        let n = arg a in
        if n <= 512 then Values.VInt n else Values.VReal (float n));
    Vm.register_func vm "boxed" (fun a ->
        let n = arg a in
        if n = boxed_at then Values.VArr (Values.AInt (Nd.of_array [| n |]))
        else Values.VReal (float n));
    Vm.register_func vm "order" (fun a ->
        calls := arg a :: !calls;
        Values.VReal 1.0)
  in
  let calls_of run =
    calls := [];
    let r = run () in
    (r, !calls)
  in
  let reference, ref_calls = calls_of (fun () -> Ref_vm.run ~p ~setup prog) in
  List.iter
    (fun opt ->
      let c, calls = calls_of (fun () -> Ref_vm.compiled ~opt ~p ~setup prog) in
      let what = Fmt.str "compiled -O%d" opt in
      check_against what reference c;
      checkb (what ^ " call order") (calls = ref_calls))
    [ 0; 1; 2 ]

(* empty-mask reductions at 128 chunks: only the last two chunks have
   active lanes, so every other partial is absent and must not perturb
   the merge; a fully empty reduction yields the identity *)
let t_empty_partials () =
  let p = 8192 in
  let lo = p - 124 in
  let src =
    Printf.sprintf
      {|
  r = iproc * 0.125
  WHERE (iproc >= %d)
    s = sum(r)
    m = maxval(r)
    c = count(iproc > 0)
    t = any(iproc > %d)
    a = all(iproc >= %d)
  ENDWHERE
  WHERE (iproc > %d)
    z = sum(r)
  ENDWHERE
|}
      lo (p - 24) lo (10 * p)
  in
  let prog = Ast.program "t" (parse_block src) in
  let reference = Ref_vm.run ~p prog in
  List.iter
    (fun opt ->
      check_against
        (Fmt.str "compiled -O%d" opt)
        reference
        (Ref_vm.compiled ~opt ~p prog))
    [ 0; 1; 2 ];
  match ref_scalar reference "z" with
  | Values.VReal z -> checkb "empty sum" (z = 0.0)
  | _ -> Alcotest.fail "z shape"

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
   Each program runs on the reference machine and on the engine at
   -O0, -O1 and -O2, which must match its state, Metrics and error bytes,
   and on an error its partial state, at p = 5, 200 and 1608 (25 chunks,
   the last one ragged). *)

let matrix_ps = [ 5; 200; 1608 ]

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

(* Every program at every level against the reference; returns the
   mismatches and how many reference runs fault. *)
let matrix_check programs =
  let failures = ref [] in
  let faults = ref 0 and clean = ref 0 in
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun p ->
          let setup = matrix_setup ~p in
          let reference = Ref_vm.run ~fuel ~p ~setup prog in
          incr (if Option.is_some (snd reference) then faults else clean);
          List.iter
            (fun opt ->
              Option.iter
                (fun d ->
                  failures :=
                    Fmt.str "%s: compiled -O%d at p=%d: %s differs" name opt
                      p d
                    :: !failures)
                (Ref_vm.disagreement reference
                   (Ref_vm.compiled ~fuel ~opt ~verify:(opt = 2) ~p ~setup
                      prog)))
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
   NINT, ABS, MAX, MIN) against the reference's boxed intrinsics, over
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

(* The failing-run contract (DESIGN.md "Execution engines"): a run
   that fails leaves the reference's partial state and Metrics, not only
   its message, at every -O level.  Small fuels stop the runs at many
   different steps; p = 130 spans more than one chunk. *)
let t_failing_runs () =
  let progs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 42 |]) ~n:300
      Gen.simd_prog_gen
  in
  let failures = ref [] and failing = ref 0 and fuel_faults = ref 0 in
  List.iteri
    (fun k prog ->
      List.iter
        (fun (p, fuel) ->
          let where = Fmt.str "program %d, p=%d, fuel=%d" k p fuel in
          let setup = Gen.simd_prog_setup ~p in
          let reference = Ref_vm.run ~fuel ~p ~setup prog in
          Option.iter
            (fun m ->
              incr failing;
              if String.ends_with ~suffix:"fuel exhausted" m then
                incr fuel_faults)
            (snd reference);
          List.iter
            (fun opt ->
              Option.iter
                (fun d ->
                  failures :=
                    Fmt.str "%s: compiled -O%d: %s differs" where opt d
                    :: !failures)
                (Ref_vm.disagreement reference
                   (Ref_vm.compiled ~fuel ~opt ~p ~setup prog)))
            [ 0; 1; 2 ])
        (List.concat_map
           (fun p -> List.map (fun fuel -> (p, fuel)) [ 7; 40; 300; 20_000 ])
           [ 1; 5; 64; 130 ]))
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
    case "first failing lane at p = 8192" t_first_failing_lane;
    case "first failing instruction wins, fuel sweep at p = 4096"
      t_first_failing_instruction;
    case "long DO loops: scalar cells and global arrays at p = 2048"
      t_long_loops;
    case "typed plural calls at p = 2048" t_typed_calls;
    case "empty-mask chunk partials at p = 8192" t_empty_partials;
  ]
