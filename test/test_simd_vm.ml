(** SIMD VM tests: plural values, WHERE masking, reductions under masks,
    gather/scatter, plural arrays, vector-controlled WHILE, metrics. *)

open Helpers
open Lf_lang
open Values
module Vm = Lf_simd.Vm
module Pv = Lf_simd.Pval
module Ref_vm = Lf_testgen.Ref_vm

let run_vm ?(p = 4) ?(setup = fun _ -> ()) src =
  Vm.run ~p ~setup (Ast.program "t" (parse_block src))

let plural_ints vm name = Array.map as_int (Vm.read_plural vm name)

let t_iproc () =
  let vm = run_vm "i = iproc * 10" in
  checkb "iproc broadcast" (plural_ints vm "i" = [| 10; 20; 30; 40 |])

let t_where () =
  let vm =
    run_vm
      "i = iproc\nWHERE (i >= 3)\n  i = i * 100\nELSEWHERE\n  i = 0 - i\nENDWHERE"
  in
  checkb "where/elsewhere" (plural_ints vm "i" = [| -1; -2; 300; 400 |])

let t_nested_where () =
  let vm =
    run_vm
      {|
  i = iproc
  WHERE (i >= 2)
    WHERE (i >= 4)
      i = 1000
    ELSEWHERE
      i = 500
    ENDWHERE
  ENDWHERE
|}
  in
  checkb "nested masks" (plural_ints vm "i" = [| 1; 500; 500; 1000 |])

let t_reductions () =
  let vm = run_vm "i = iproc\nt = any(i > 3)\nu = any(i > 4)\nm = maxval(i)\ns = sum(i)" in
  checkb "any true" (as_bool (match Vm.find vm "t" with Vm.VScalar r -> !r | _ -> assert false));
  checkb "any false" (not (as_bool (match Vm.find vm "u" with Vm.VScalar r -> !r | _ -> assert false)));
  checki "maxval" 4 (as_int (match Vm.find vm "m" with Vm.VScalar r -> !r | _ -> assert false));
  checki "sum" 10 (as_int (match Vm.find vm "s" with Vm.VScalar r -> !r | _ -> assert false))

let t_masked_reduction () =
  (* reductions see only active lanes *)
  let vm =
    run_vm
      "i = iproc\nWHERE (i <= 2)\n  m = maxval(i)\n  i = m\nENDWHERE"
  in
  checkb "masked maxval" (plural_ints vm "i" = [| 2; 2; 3; 4 |])

let t_gather_scatter () =
  let setup vm =
    Vm.bind_global vm "a" (AInt (Nd.of_array [| 10; 20; 30; 40 |]));
    Vm.bind_global vm "b" (AInt (Nd.create [| 4 |] 0))
  in
  let vm = run_vm ~setup "i = iproc\nv = a(5 - i)\nb(i) = v * 2" in
  checkb "gather reversed" (plural_ints vm "v" = [| 40; 30; 20; 10 |]);
  (match Vm.read_global vm "b" with
  | AInt b -> checkb "scatter" (Nd.to_array b = [| 80; 60; 40; 20 |])
  | _ -> Alcotest.fail "b type");
  (* masked scatter leaves inactive elements alone *)
  let vm2 =
    run_vm ~setup "i = iproc\nWHERE (i <= 2)\n  b(i) = 7\nENDWHERE"
  in
  match Vm.read_global vm2 "b" with
  | AInt b -> checkb "masked scatter" (Nd.to_array b = [| 7; 7; 0; 0 |])
  | _ -> Alcotest.fail "b type"

let t_plural_array () =
  let vm =
    run_vm
      ~setup:(fun vm -> Vm.bind_plural_arr vm "f" Ast.TInt [| 3 |])
      "i = iproc\nDO ly = 1, 3\n  f(ly) = i * ly\nENDDO\nv = f(2)"
  in
  checkb "per-lane storage" (plural_ints vm "v" = [| 2; 4; 6; 8 |])

let t_vector_while () =
  (* §2: WHILE controlled by an array of booleans whose elements agree *)
  let vm = run_vm "i = iproc * 0\nWHILE (i < 3)\n  i = i + 1\nENDWHILE" in
  checkb "uniform vector while" (plural_ints vm "i" = [| 3; 3; 3; 3 |]);
  match
    run_vm "i = iproc\nWHILE (i < 3)\n  i = i + 1\nENDWHILE"
  with
  | exception (Errors.Runtime_error _ | Errors.Runtime_error_at _) -> ()
  | _ -> Alcotest.fail "divergent vector WHILE must be rejected"

let t_while_any () =
  let vm =
    run_vm
      "i = iproc\nWHILE (any(i <= 3))\n  WHERE (i <= 3)\n    i = i + 10\n  ENDWHERE\nENDWHILE"
  in
  checkb "while-any" (plural_ints vm "i" = [| 11; 12; 13; 4 |])

let t_declarations () =
  let prog =
    Parser.program_of_string
      {|
PROGRAM t
  INTEGER n
  PLURAL INTEGER i
  PLURAL REAL acc(2)
  INTEGER g(n)
  i = iproc
  g(i) = i
END
|}
  in
  let vm =
    Vm.run ~p:4
      ~setup:(fun vm -> Vm.bind_scalar vm "n" (VInt 4))
      prog
  in
  (match Vm.read_global vm "g" with
  | AInt g -> checkb "declared global" (Nd.to_array g = [| 1; 2; 3; 4 |])
  | _ -> Alcotest.fail "g type");
  match Vm.find vm "acc" with
  | Vm.VPluralArr (AReal a) -> checkb "plural array dims" (Nd.dims a = [| 4; 2 |])
  | _ -> Alcotest.fail "acc shape"

let t_metrics () =
  let vm = run_vm "i = iproc\nWHERE (i <= 1)\n  i = i + 1\nENDWHERE" in
  let m = vm.Vm.metrics in
  checkb "vector steps counted" (m.Lf_simd.Metrics.steps >= 2);
  checkb "utilization below 1 with masking"
    (Lf_simd.Metrics.utilization m < 1.0);
  (* the example kernel counts: unflattened needs 12, flattened 8 body steps *)
  ()

let t_procs () =
  let record = ref [] in
  let vm =
    run_vm ~p:2
      ~setup:(fun vm ->
        Vm.register_proc vm "probe" (fun _ ~mask args ->
            record := (Array.to_list mask, List.length args) :: !record))
      "i = iproc\nWHERE (i == 2)\n  CALL probe(i)\nENDWHERE"
  in
  (match !record with
  | [ ([ false; true ], 1) ] -> ()
  | _ -> Alcotest.fail "proc mask");
  checki "call metric" 1 (Lf_simd.Metrics.call_count vm.Vm.metrics "probe")

let t_fuel () =
  match run_vm "i = 0\nWHILE (i < 1)\n  j = iproc\nENDWHILE" with
  | exception Errors.Runtime_error_at (p, _) ->
      checkb "fuel error carries a source line" (p.Errors.line >= 2)
  | exception Errors.Runtime_error _ ->
      Alcotest.fail "fuel error lost its source location"
  | _ -> Alcotest.fail "expected fuel exhaustion"

let t_lift_errors () =
  (match run_vm "i = iproc\nk = 1\nk = i" with
  | exception (Errors.Runtime_error _ | Errors.Runtime_error_at _) -> ()
  | _ -> Alcotest.fail "plural into front-end scalar must fail")

let scalar_of vm name =
  match Vm.find vm name with Vm.VScalar r -> !r | _ -> Alcotest.fail name

let t_reduction_identity () =
  (* regression: MAXVAL/MINVAL/SUM over REAL lanes with no active lane
     must return a REAL identity, not the integer sentinels *)
  let vm =
    run_vm
      {|
  x = iproc * 1.5
  WHERE (iproc > 99)
    m = maxval(x)
    n = minval(x)
    s = sum(x)
  ENDWHERE
|}
  in
  checkb "empty maxval over REAL" (scalar_of vm "m" = VReal neg_infinity);
  checkb "empty minval over REAL" (scalar_of vm "n" = VReal infinity);
  checkb "empty sum over REAL" (scalar_of vm "s" = VReal 0.0);
  (* integer lanes keep the historical sentinels *)
  let vm2 =
    run_vm "WHERE (iproc > 99)\n  m = maxval(iproc)\n  n = minval(iproc)\nENDWHERE"
  in
  checkb "empty maxval over INTEGER" (scalar_of vm2 "m" = VInt min_int);
  checkb "empty minval over INTEGER" (scalar_of vm2 "n" = VInt max_int)

(* ------------------------------------------------------------------ *)
(* Against the reference machine                                       *)
(* ------------------------------------------------------------------ *)

(* the reference run and the engine's, both kept when they fail *)
let run_both ?(p = 4) ?(setup = fun _ -> ()) src =
  let prog = Ast.program "t" (parse_block src) in
  (Ref_vm.run ~p ~setup prog, Ref_vm.compiled ~p ~setup prog)

(* the engine's machine, once it agrees with the reference *)
let check_agree name (r, c) =
  (match Ref_vm.disagreement r c with
  | None -> ()
  | Some what -> Alcotest.failf "%s: %s differs from the reference" name what);
  fst c

let t_compiled_basics () =
  let setup vm =
    Vm.bind_global vm "a" (AInt (Nd.of_array [| 10; 20; 30; 40 |]));
    Vm.bind_global vm "b" (AInt (Nd.create [| 4 |] 0))
  in
  let c =
    check_agree "where+gather+scatter"
      (run_both ~setup
         {|
  i = iproc
  v = a(5 - i)
  b(i) = v
  WHERE (i >= 3)
    i = i * 100
  ELSEWHERE
    i = 0 - i
  ENDWHERE
  s = sum(v)
  t = any(i > 100)
|})
  in
  checkb "compiled where" (plural_ints c "i" = [| -1; -2; 300; 400 |]);
  checkb "compiled gather" (plural_ints c "v" = [| 40; 30; 20; 10 |]);
  checki "compiled sum" 100 (as_int (scalar_of c "s"))

let t_compiled_loops () =
  let c =
    check_agree "do+while+plural if"
      (run_both
         {|
  i = iproc * 0
  WHILE (any(i < 3))
    WHERE (i < 3)
      i = i + 1
    ENDWHERE
  ENDWHILE
  acc = 0
  DO k = 1, 4
    acc = acc + k
  ENDDO
  IF (i > 2) THEN
    i = i + 10
  ENDIF
|})
  in
  checkb "compiled while result" (plural_ints c "i" = [| 13; 13; 13; 13 |]);
  checki "compiled do" 10 (as_int (scalar_of c "acc"))

let t_compiled_plural_array () =
  let c =
    check_agree "plural arrays"
      (run_both
         ~setup:(fun vm -> Vm.bind_plural_arr vm "f" Ast.TInt [| 3 |])
         "i = iproc\nDO ly = 1, 3\n  f(ly) = i * ly\nENDDO\nv = f(2)")
  in
  checkb "compiled per-lane storage" (plural_ints c "v" = [| 2; 4; 6; 8 |])

(* Stores by subscripts the rank-1/2 scatter kernels do not take: a
   PLURAL array (INTEGER lanes into REAL storage, under a mask), rank 3,
   a REAL subscript, and REAL lanes into an INTEGER array.  State,
   Metrics and the first failing lane's error agree with the
   reference. *)
let t_offset_stores () =
  let setup vm =
    Vm.bind_plural_arr vm "g" Ast.TReal [| 3 |];
    Vm.bind_global vm "c" (AInt (Nd.create [| 4; 2; 2 |] 0));
    Vm.bind_global vm "b" (AReal (Nd.create [| 4 |] 0.0))
  in
  let src =
    {|
  i = iproc
  r = i * 1.0
  WHERE (i > 1)
    g(2) = r * 0.5
    g(3) = i
  ENDWHERE
  c(i, 2, 1) = i * 10
  c(5 - i, 1, 2) = r
  b(r) = r + 0.25
  v = g(2)
  w = g(3)
|}
  in
  let c = check_agree "stores by offset" (run_both ~setup src) in
  checkb "PLURAL REAL store under a mask"
    (Array.map as_float (Vm.read_plural c "v") = [| 0.0; 1.0; 1.5; 2.0 |]);
  checkb "INTEGER lanes into a PLURAL REAL array"
    (Array.map as_float (Vm.read_plural c "w") = [| 0.0; 2.0; 3.0; 4.0 |]);
  (match Vm.read_global c "c" with
  | AInt d ->
      checkb "rank-3 and REAL-into-INTEGER stores"
        (Nd.to_array d
        = [| 0; 0; 0; 0; 10; 20; 30; 40; 4; 3; 2; 1; 0; 0; 0; 0 |])
  | _ -> Alcotest.fail "c is not INTEGER");
  (match Vm.read_global c "b" with
  | AReal d ->
      checkb "store by a REAL subscript"
        (Nd.to_array d = [| 1.25; 2.25; 3.25; 4.25 |])
  | _ -> Alcotest.fail "b is not REAL");
  List.iter
    (fun src ->
      let r, c = run_both ~setup src in
      checkb ("the store fails: " ^ src) (Option.is_some (snd c));
      ignore (check_agree src (r, c)))
    [
      "i = iproc\nc(i, 3 - i, 1) = i";
      "i = iproc\nb(i * 0.5) = i";
      "i = iproc\nWHERE (i > 2)\n  g(i) = i\nENDWHERE";
    ]

let t_compiled_type_changes () =
  (* a plural that changes element type under a partial mask must degrade
     to the same mixed representation the reference holds *)
  let c =
    check_agree "mixed lanes"
      (run_both
         {|
  x = iproc
  WHERE (iproc >= 3)
    x = x * 0.5
  ENDWHERE
  WHERE (iproc >= 3)
    y = x + 0.25
  ENDWHERE
|})
  in
  ignore c

let t_compiled_procs () =
  let record = ref [] in
  let prog =
    Ast.program "t"
      (parse_block "i = iproc\nWHERE (i == 2)\n  CALL probe(i)\nENDWHERE")
  in
  let vm =
    Vm.run ~p:2
      ~setup:(fun vm ->
        Vm.register_proc vm "probe" (fun _ ~mask args ->
            record := (Array.to_list mask, args) :: !record))
      prog
  in
  (match !record with
  | [ ([ false; true ], [ Pv.Plural lanes ]) ] ->
      (* the inactive lane of a variable argument keeps its true value *)
      checkb "proc arg lanes"
        (Array.map as_int (Lf_simd.Frame.values_of_lanes lanes) = [| 1; 2 |])
  | _ -> Alcotest.fail "proc mask/args");
  checki "compiled call metric" 1
    (Lf_simd.Metrics.call_count vm.Vm.metrics "probe")

let t_compiled_errors () =
  (* the engine fails as the reference does: same error, same message *)
  let r, c = run_both "i = iproc\nWHILE (i < 3)\n  i = i + 1\nENDWHILE" in
  checkb "divergent vector WHILE is rejected" (Option.is_some (snd c));
  ignore (check_agree "divergent WHILE" (r, c))

(* ------------------------------------------------------------------ *)
(* Aliasing: a variable read must not share the variable's lanes       *)
(* ------------------------------------------------------------------ *)

let t_alias_copy_then_write () =
  (* [x = y] copies y's active lanes; a later partial write to [y] must
     not show through [x], nor a swap through its temporary *)
  let c =
    check_agree "copy then partial write"
      (run_both
         {|
  y = iproc * 10
  x = iproc
  x = y
  v = iproc
  v = y
  u = y
  WHERE (iproc <= 2)
    w = y
  ENDWHERE
  WHERE (iproc >= 3)
    y = 0
  ENDWHERE
  WHERE (iproc >= 3)
    t = x
    x = y
    y = t
  ENDWHERE
|})
  in
  checkb "declared copy unchanged" (plural_ints c "v" = [| 10; 20; 30; 40 |]);
  checkb "implicit copy unchanged" (plural_ints c "u" = [| 10; 20; 30; 40 |]);
  checkb "masked implicit copy unchanged"
    (Array.sub (plural_ints c "w") 0 2 = [| 10; 20 |]);
  checkb "swapped: x" (plural_ints c "x" = [| 10; 20; 0; 0 |]);
  checkb "swapped: y" (plural_ints c "y" = [| 10; 20; 30; 40 |])

let t_alias_proc_arg () =
  (* a procedure owns its arguments: clobbering a plural argument must
     leave the variable it was read from unchanged, in both machines *)
  let seen = ref [] in
  let setup vm =
    Vm.register_proc vm "clobber" (fun _ ~mask:_ args ->
        List.iter
          (function
            | Pv.Plural l -> (
                let vs = Lf_simd.Frame.values_of_lanes l in
                seen := Array.to_list (Array.map as_int vs) :: !seen;
                let n = Array.length vs in
                match l with
                | Lf_simd.Frame.LInt a -> Array.fill a 0 n (-1)
                | Lf_simd.Frame.LReal a -> Array.fill a 0 n (-1.0)
                | Lf_simd.Frame.LBool a -> Array.fill a 0 n false
                | Lf_simd.Frame.LBox a -> Array.fill a 0 n (VInt (-1)))
            | _ -> ())
          args)
  in
  let c =
    check_agree "clobbering procedure"
      (run_both ~setup "i = iproc
CALL clobber(i, i)
j = i + 0")
  in
  checkb "variable unchanged" (plural_ints c "i" = [| 1; 2; 3; 4 |]);
  checkb "read after the call" (plural_ints c "j" = [| 1; 2; 3; 4 |]);
  (* the second argument is its own copy too, in both machines *)
  checkb "each argument saw the variable"
    (List.for_all (fun l -> l = [ 1; 2; 3; 4 ]) !seen && List.length !seen = 4)

let t_nan_compare () =
  (* comparisons use [compare], so NaN = NaN holds: the sequential
     interpreter, the reference and the engine agree *)
  let ops = [ "=="; "/="; "<"; "<="; ">"; ">=" ] in
  let rhs = [ "z"; "1.0"; "1" ] in
  let cases =
    List.concat_map (fun op -> List.map (fun r -> (op, r)) rhs) ops
  in
  let body zdef =
    zdef
    :: List.mapi (fun k (op, r) -> Printf.sprintf "c%d = z %s %s" k op r) cases
    @ List.mapi
        (fun k (op, r) ->
          Printf.sprintf "d%d = %s %s z" k (if r = "z" then "1.0" else r) op)
        cases
    |> String.concat "\n"
  in
  let names =
    List.concat
      (List.mapi (fun k _ -> [ Printf.sprintf "c%d" k; Printf.sprintf "d%d" k ]) cases)
  in
  let seq = Interp.run_block (parse_block (body "z = 0.0 / 0.0")) in
  let c =
    check_agree "NaN comparisons" (run_both (body "z = iproc * 0.0 / 0.0"))
  in
  List.iter
    (fun n ->
      let want = as_bool (Env.find seq.Interp.env n) in
      Array.iter
        (fun v -> checkb (n ^ " agrees with Interp") (as_bool v = want))
        (Vm.read_plural c n))
    names;
  checkb "NaN == NaN" (as_bool (Env.find seq.Interp.env "c0"))

let suite =
  [
    case "iproc and broadcast" t_iproc;
    case "where/elsewhere" t_where;
    case "nested where" t_nested_where;
    case "reductions" t_reductions;
    case "masked reductions" t_masked_reduction;
    case "gather/scatter" t_gather_scatter;
    case "plural arrays" t_plural_array;
    case "vector-controlled while" t_vector_while;
    case "while-any idiom" t_while_any;
    case "declaration handling" t_declarations;
    case "metrics" t_metrics;
    case "plural procedures" t_procs;
    case "fuel" t_fuel;
    case "type discipline" t_lift_errors;
    case "reduction identities are type-correct" t_reduction_identity;
    case "compiled: where/gather/scatter/reductions" t_compiled_basics;
    case "compiled: loops and plural IF" t_compiled_loops;
    case "compiled: plural arrays" t_compiled_plural_array;
    case "stores by offset agree with the reference" t_offset_stores;
    case "compiled: lanes changing element type" t_compiled_type_changes;
    case "compiled: vector subroutine calls" t_compiled_procs;
    case "compiled: identical runtime errors" t_compiled_errors;
    case "aliasing: copy, then partial write to the source" t_alias_copy_then_write;
    case "aliasing: procedures get copies of plural arguments" t_alias_proc_arg;
    case "NaN comparisons agree with Interp and compiled" t_nan_compare;
  ]
