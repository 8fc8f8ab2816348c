(** Sequential interpreter tests: evaluation, arrays and sections, every
    loop form, GOTO, external procedures/functions, observations, fuel. *)

open Helpers
open Lf_lang
open Values

let eval_str ?(setup = fun _ -> ()) s =
  let ctx = Interp.create () in
  setup ctx;
  Interp.eval ctx (parse_expr s)

let run ?setup src = Interp.run_block ?setup (parse_block src)

let geti ctx v = as_int (Env.find ctx.Interp.env v)
let getf ctx v = as_float (Env.find ctx.Interp.env v)

let t_arith () =
  checki "add" 7 (as_int (eval_str "3 + 4"));
  checki "precedence" 14 (as_int (eval_str "2 + 3 * 4"));
  checki "int division truncates" 3 (as_int (eval_str "7 / 2"));
  checki "mod" 1 (as_int (eval_str "7 - 2 * 3"));
  checki "pow" 81 (as_int (eval_str "3 ** 4"));
  checki "unary minus" (-5) (as_int (eval_str "-(2 + 3)"));
  checkb "mixed promotes to real"
    (Float.abs (as_float (eval_str "1 + 0.5") -. 1.5) < 1e-12);
  checkb "comparison" (as_bool (eval_str "2 + 2 <= 4"));
  checkb "logic" (as_bool (eval_str ".NOT. (1 > 2) .AND. .TRUE."))

let t_intrinsics () =
  checki "max" 9 (as_int (eval_str "max(3, 9, 4)"));
  checki "min" 3 (as_int (eval_str "min(3, 9, 4)"));
  checki "abs" 5 (as_int (eval_str "abs(-5)"));
  checki "mod fn" 2 (as_int (eval_str "mod(17, 5)"));
  let setup ctx =
    Env.set ctx.Interp.env "l"
      (VArr (AInt (Nd.of_array [| 4; 1; 2; 1 |])))
  in
  checki "maxval" 4 (as_int (eval_str ~setup "maxval(l)"));
  checki "minval" 1 (as_int (eval_str ~setup "minval(l)"));
  checki "sum" 8 (as_int (eval_str ~setup "sum(l)"));
  checki "size" 4 (as_int (eval_str ~setup "size(l)"));
  checki "maxval of section" 2 (as_int (eval_str ~setup "maxval(l(2:4))"));
  let bsetup ctx =
    Env.set ctx.Interp.env "m"
      (VArr (ABool (Nd.of_array [| true; false; true |])))
  in
  checkb "any" (as_bool (eval_str ~setup:bsetup "any(m)"));
  checkb "not all" (not (as_bool (eval_str ~setup:bsetup "all(m)")));
  checki "count" 2 (as_int (eval_str ~setup:bsetup "count(m)"))

let t_arrays () =
  let ctx =
    run
      ~setup:(fun ctx ->
        Env.set ctx.Interp.env "a" (VArr (AInt (Nd.create [| 5 |] 0))))
      {|
  DO i = 1, 5
    a(i) = i * i
  ENDDO
  s = a(2) + a(4)
|}
  in
  checki "element read" 20 (geti ctx "s");
  (* whole-array and section assignment *)
  let ctx2 =
    run
      ~setup:(fun ctx ->
        Env.set ctx.Interp.env "a" (VArr (AInt (Nd.create [| 6 |] 9))))
      {|
  a = 0
  a(2:4) = 7
  s = sum(a)
|}
  in
  checki "section assign" 21 (geti ctx2 "s");
  (* out-of-bounds is an error *)
  match
    run
      ~setup:(fun ctx ->
        Env.set ctx.Interp.env "a" (VArr (AInt (Nd.create [| 3 |] 0))))
      "a(4) = 1"
  with
  | exception (Errors.Runtime_error _ | Errors.Runtime_error_at _) -> ()
  | _ -> Alcotest.fail "expected bounds error"

let t_loops () =
  let ctx = run "s = 0\nDO i = 1, 10, 2\n  s = s + i\nENDDO" in
  checki "strided do" 25 (geti ctx "s");
  checki "do var after loop" 11 (geti ctx "i");
  let ctx = run "s = 0\nDO i = 5, 1\n  s = s + 1\nENDDO" in
  checki "zero-trip do" 0 (geti ctx "s");
  let ctx = run "s = 0\nDO i = 10, 2, -3\n  s = s + i\nENDDO" in
  checki "negative stride" 21 (geti ctx "s");
  let ctx = run "i = 1\ns = 0\nWHILE (i <= 4)\n  s = s + i\n  i = i + 1\nENDWHILE" in
  checki "while" 10 (geti ctx "s");
  let ctx = run "i = 10\ns = 0\nREPEAT\n  s = s + 1\n  i = i + 1\nUNTIL (i < 5)" in
  checki "repeat runs at least once" 1 (geti ctx "s");
  let ctx = run "s = 0\nFORALL (i = 1:4)\n  s = s + i\nENDFORALL" in
  checki "forall (sequential semantics)" 10 (geti ctx "s")

let t_goto () =
  let ctx =
    run
      {|
  i = 1
  s = 0
10 CONTINUE
  IF (i > 5) GOTO 20
  s = s + i
  i = i + 1
  GOTO 10
20 CONTINUE
  s = s * 2
|}
  in
  checki "goto loop" 30 (geti ctx "s");
  (* a jump to a label that is not visible from the executing statement
     is an ordinary runtime error, never an escaped control exception *)
  (match run "GOTO 99" with
  | exception Errors.Runtime_error m ->
      checkb "names the label" (Astring_contains.contains m "99")
  | _ -> Alcotest.fail "expected a runtime error");
  match
    run
      {|
  i = 0
  IF (i > 1) THEN
30 CONTINUE
  ENDIF
  GOTO 30
|}
  with
  | exception (Errors.Runtime_error _ | Errors.Runtime_error_at _) -> ()
  | _ -> Alcotest.fail "expected a runtime error for an out-of-scope label"

let t_procs () =
  let calls = ref [] in
  let ctx = Interp.create () in
  Interp.register_proc ctx "trace" (fun _ args ->
      calls := List.map as_int args :: !calls);
  Interp.register_func ctx "twice" (function
    | [ v ] -> VInt (2 * as_int v)
    | _ -> Alcotest.fail "arity");
  Interp.exec_stmts ctx
    (parse_block "DO i = 1, 3\n  CALL trace(i, twice(i))\nENDDO");
  checkb "calls recorded" (!calls = [ [ 3; 6 ]; [ 2; 4 ]; [ 1; 2 ] ]);
  checki "observations" 3 (List.length (Interp.observations ctx));
  match run "CALL nosuch(1)" with
  | exception (Errors.Runtime_error _ | Errors.Runtime_error_at _) -> ()
  | _ -> Alcotest.fail "unknown subroutine must fail"

let t_fuel () =
  match Interp.run_block ~fuel:1000 (parse_block "i = 1\nWHILE (i > 0)\n  i = i + 1\nENDWHILE") with
  | exception Errors.Runtime_error_at (p, _) ->
      checkb "fuel error carries a source line" (p.Errors.line >= 2)
  | exception Errors.Runtime_error _ ->
      Alcotest.fail "fuel error lost its source location"
  | _ -> Alcotest.fail "expected fuel exhaustion"

let t_example_semantics () =
  (* the reference EXAMPLE: x(i, j) = i*j exactly where j <= L(i) *)
  let x = example_x () in
  Array.iteri
    (fun i0 li ->
      for j = 1 to 4 do
        let expected = if j <= li then (i0 + 1) * j else 0 in
        checki (Printf.sprintf "x(%d,%d)" (i0 + 1) j) expected
          (Nd.get x [| i0 + 1; j |])
      done)
    paper_l

let t_elementwise () =
  let setup ctx =
    Env.set ctx.Interp.env "a" (VArr (AInt (Nd.of_array [| 1; 2; 3 |])));
    Env.set ctx.Interp.env "b" (VArr (AInt (Nd.of_array [| 10; 20; 30 |])))
  in
  let ctx = run ~setup "c = a + b * 2" in
  (match Env.find ctx.Interp.env "c" with
  | VArr (AInt c) ->
      checkb "elementwise" (Nd.to_array c = [| 21; 42; 63 |])
  | _ -> Alcotest.fail "c not array");
  let ctx2 = run ~setup "s = sum(a * b)" in
  checki "dot" 140 (geti ctx2 "s")

let t_reals () =
  let ctx = run "x = 2.0\ny = sqrt(x * 8.0)" in
  checkb "sqrt" (Float.abs (getf ctx "y" -. 4.0) < 1e-12)

let suite =
  [
    case "arithmetic and logic" t_arith;
    case "intrinsics" t_intrinsics;
    case "arrays and sections" t_arrays;
    case "loop forms" t_loops;
    case "goto" t_goto;
    case "external procedures" t_procs;
    case "fuel bound" t_fuel;
    case "EXAMPLE reference semantics" t_example_semantics;
    case "elementwise array ops" t_elementwise;
    case "real arithmetic" t_reals;
  ]
