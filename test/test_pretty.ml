(** Pretty-printer tests: golden output and the parse/print round-trip
    property over random ASTs. *)

open Helpers
open Lf_lang
open Ast

let t_expr_golden () =
  let s e = Pretty.expr_to_string e in
  checks "precedence parens" "(a + b) * c"
    (s (EBin (Mul, EBin (Add, EVar "a", EVar "b"), EVar "c")));
  checks "no redundant parens" "a + b * c"
    (s (EBin (Add, EVar "a", EBin (Mul, EVar "b", EVar "c"))));
  checks "left-assoc sub needs parens on right" "a - (b - c)"
    (s (EBin (Sub, EVar "a", EBin (Sub, EVar "b", EVar "c"))));
  checks "not" ".NOT. a" (s (EUn (Not, EVar "a")));
  checks "index" "x(i, j)" (s (EIdx ("x", [ EVar "i"; EVar "j" ])));
  checks "range index" "l(1:4)" (s (EIdx ("l", [ ERange (EInt 1, EInt 4) ])));
  checks "mod as function" "mod(a, 2)"
    (s (EBin (Mod, EVar "a", EInt 2)))

let t_block_golden () =
  let b =
    [
      SDo
        ( do_control "i" (EInt 1) (EVar "k"),
          [ SWhere (EVar "m", [ Ast.assign "a" (EInt 1) ], [ Ast.assign "a" (EInt 2) ]) ] );
    ]
  in
  checks "block layout"
    "DO i = 1, k\n\
    \  WHERE (m)\n\
    \    a = 1\n\
    \  ELSEWHERE\n\
    \    a = 2\n\
    \  ENDWHERE\n\
     ENDDO"
    (Pretty.block_to_string b)

let t_roundtrip_example () =
  let p = parse_program Lf_report.Experiments.example_source in
  let p2 = parse_program (Pretty.program_to_string p) in
  checkb "program roundtrip" (Ast.equal_program p p2)

let t_roundtrip_nbforce () =
  let p = Lf_kernels.Nbforce_src.program () in
  let p2 = parse_program (Pretty.program_to_string p) in
  checkb "NBFORCE roundtrip" (Ast.equal_program p p2)

let t_roundtrip_transformed () =
  (* the flattened + SIMDized outputs must themselves round-trip *)
  let p = parse_program Lf_report.Experiments.example_source in
  let opts =
    {
      Lf_core.Pipeline.default_options with
      assume_inner_nonempty = true;
      target =
        Lf_core.Pipeline.Simd
          { decomp = Lf_core.Simdize.Cyclic; p = EVar "p" };
    }
  in
  match Lf_core.Pipeline.flatten_program ~opts p with
  | Error e -> Alcotest.fail e
  | Ok o ->
      let txt = Pretty.program_to_string o.Lf_core.Pipeline.program in
      let p2 = parse_program txt in
      checkb "transformed roundtrip"
        (Ast.equal_program o.Lf_core.Pipeline.program p2)

let prop_roundtrip_block (b : block) =
  let txt = Pretty.block_to_string b in
  match Parser.block_of_string txt with
  | b2 -> Ast.equal_block b b2
  | exception e ->
      QCheck.Test.fail_reportf "did not re-parse: %s@.%s"
        (Printexc.to_string e) txt

(* A REAL literal prints in the shortest form that reads back as the
   same float, always with a '.' in the mantissa (the lexer rejects
   "1e-06"). *)
let real_roundtrips f =
  let txt = Pretty.expr_to_string (EReal f) in
  match Parser.expr_of_string txt with
  | EReal g when Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
    ->
      true
  | e ->
      QCheck.Test.fail_reportf "%h printed as %s, read back as %s" f txt
        (Pretty.expr_to_string e)
  | exception e ->
      QCheck.Test.fail_reportf "%h printed as %s: %s" f txt
        (Printexc.to_string e)

let nonneg_finite_float =
  QCheck.Gen.(
    let finite f = if Float.is_finite f then Float.abs f else 0.0 in
    oneof
      [
        map finite float;
        (* every binade, subnormals included *)
        map2 (fun m e -> Float.ldexp m e) (float_bound_inclusive 1.0) (-1074 -- 1023);
        (* short decimals, the literals programs actually contain *)
        map2 (fun m e -> float_of_int m *. (10.0 ** float_of_int e)) (0 -- 99999) (-12 -- 4);
      ])

let t_real_literals () =
  let s f = Pretty.expr_to_string (EReal f) in
  checks "nine digits survive" "0.123456789" (s 0.123456789);
  checks "small reals keep a '.'" "1.0e-06" (s 0.000001);
  checks "integral reals" "2.0" (s 2.0);
  checks "short decimals" "0.5" (s 0.5);
  (* flattenc's path: flatten, SIMDize, print, re-parse *)
  let src =
    "PROGRAM reals\n  INTEGER n, i, j\n  INTEGER cnt(n)\n  REAL a(n)\n\
    \  DO i = 1, n\n    DO j = 1, cnt(i)\n\
    \      a(i) = a(i) + 0.123456789 * j + 0.000001\n    ENDDO\n  ENDDO\nEND\n"
  in
  let opts =
    {
      Lf_core.Pipeline.default_options with
      target =
        Lf_core.Pipeline.Simd { decomp = Lf_core.Simdize.Cyclic; p = EInt 4 };
    }
  in
  match Lf_core.Pipeline.flatten_program ~opts (parse_program src) with
  | Error e -> Alcotest.fail e
  | Ok o ->
      let txt = Pretty.program_to_string o.Lf_core.Pipeline.program in
      checkb "0.123456789 printed in full"
        (Astring_contains.contains txt "0.123456789");
      checkb "0.000001 printed as a REAL literal"
        (Astring_contains.contains txt "1.0e-06");
      checkb "flattened program re-parses to itself"
        (Ast.equal_program o.Lf_core.Pipeline.program (parse_program txt))

let suite =
  [
    case "expression golden output" t_expr_golden;
    case "block golden output" t_block_golden;
    case "EXAMPLE round-trip" t_roundtrip_example;
    case "NBFORCE round-trip" t_roundtrip_nbforce;
    case "transformed-program round-trip" t_roundtrip_transformed;
    qcheck_case ~count:500 "random block round-trip" Gen.block
      prop_roundtrip_block;
    case "REAL literals: shortest round-trip form" t_real_literals;
    qcheck_case ~count:2000 "REAL literal print/parse identity"
      nonneg_finite_float real_roundtrips;
  ]
