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

(* ------------------------------------------------------------------ *)
(* Differential oracle: the Format printer [Pretty] replaced            *)
(* ------------------------------------------------------------------ *)

(* Every constructor the printer has a case for, at every precedence
   (the round-trip generator [Gen.block] stays inside what re-parses). *)
let wide_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun i -> EInt i) (-20 -- 20);
        map (fun f -> EReal f) float;
        map (fun v -> EVar v) Gen.ident;
        map (fun b -> EBool b) bool;
      ]
  in
  let binops =
    [ Add; Sub; Mul; Div; Mod; Pow; Eq; Ne; Lt; Le; Gt; Ge; And; Or ]
  in
  fix
    (fun self n ->
      if n <= 0 then leaf
      else
        let sub = self (n / 2) in
        frequency
          [
            (1, leaf);
            (4, map3 (fun op a b -> EBin (op, a, b)) (oneofl binops) sub sub);
            (1, map2 (fun op a -> EUn (op, a)) (oneofl [ Neg; Not ]) sub);
            (1, map2 (fun a b -> ERange (a, b)) sub sub);
            (1, map2 (fun a b -> ECall ("vector", [ ERange (a, b) ])) sub sub);
            (1, map (fun l -> ECall ("vector", l)) (list_size (0 -- 3) sub));
            ( 1,
              map2 (fun f l -> ECall (f, l)) (oneofl [ "max"; "sum"; "f" ])
                (list_size (0 -- 3) sub) );
            (1, map2 (fun v l -> EIdx (v, l)) Gen.ident (list_size (1 -- 3) sub));
          ])
    4

let wide_block =
  let open QCheck.Gen in
  let label = map string_of_int (1 -- 99) in
  let lv = map2 (fun v l -> { lv_name = v; lv_index = l }) Gen.ident
      (list_size (0 -- 2) wide_expr) in
  fix
    (fun self n ->
      let blk = if n <= 0 then return [] else self (n / 2) in
      let ctl = map3 (fun v lo (hi, step) -> do_control ?step v lo hi)
          Gen.ident wide_expr (pair wide_expr (opt wide_expr)) in
      let stmt =
        frequency
          [
            (4, map2 (fun l e -> SAssign (l, e)) lv wide_expr);
            (2, map3 (fun c t f -> SIf (c, t, f)) wide_expr blk blk);
            (1, map3 (fun c t f -> SWhere (c, t, f)) wide_expr blk blk);
            (1, map2 (fun c b -> SDo (c, b)) ctl blk);
            (1, map2 (fun c b -> SForall (c, b)) ctl blk);
            (1, map2 (fun c b -> SWhile (c, b)) wide_expr blk);
            (1, map2 (fun c b -> SDoWhile (b, c)) wide_expr blk);
            ( 1,
              map2 (fun f a -> SCall (f, a)) (oneofl [ "f"; "g "; " h" ])
                (list_size (0 -- 2) wide_expr) );
            (2, map (fun l -> SLabel l) label);
            (1, map (fun l -> SGoto l) label);
            (1, map2 (fun c l -> SCondGoto (c, l)) wide_expr label);
            (1, map (fun c -> SComment c) (oneofl [ "note"; ""; "a  b" ]));
          ]
      in
      let located =
        map2
          (fun s wrap -> if wrap then Ast.with_loc (Errors.pos 3 5) s else s)
          stmt bool
      in
      list_size (0 -- 4) located)
    4

let wide_program =
  let open QCheck.Gen in
  let decl =
    map3
      (fun (plural, ty) name dims ->
        match dims with
        | [] -> { (Ast.scalar ~plural ty name) with dc_dims = [] }
        | dims -> Ast.array ~plural ty name dims)
      (pair bool (oneofl [ TInt; TReal; TLogical ]))
      Gen.ident (list_size (0 -- 2) wide_expr)
  in
  let directive =
    oneof
      [
        map2 (fun n d -> DDecomposition (n, d)) Gen.ident
          (list_size (1 -- 2) wide_expr);
        map2 (fun a d -> DAlign (a, d)) Gen.ident Gen.ident;
        map2 (fun d l -> DDistribute (d, l)) Gen.ident
          (list_size (1 -- 3) (oneofl [ DistBlock; DistCyclic; DistSerial ]));
      ]
  in
  map3
    (fun decls dirs body ->
      { p_name = "wide"; p_decls = decls; p_directives = dirs; p_body = body })
    (list_size (0 -- 3) decl) (list_size (0 -- 2) directive) wide_block

let same what got want =
  String.equal got want
  || QCheck.Test.fail_reportf "%s differs:@.new:@.%s@.old:@.%s" what got want

let prop_program_oracle p =
  same "program" (Pretty.program_to_string p) (Oracle_pretty.program_to_string p)
  && List.for_all
       (fun s ->
         same "statement" (Pretty.stmt_to_string s) (Oracle_pretty.stmt_to_string s)
         && same "depth-2 statement"
              (Fmt.str "%a" (Pretty.pp_stmt 2) s)
              (Fmt.str "%a" (Oracle_pretty.pp_stmt 2) s))
       p.p_body
  && same "block" (Pretty.block_to_string p.p_body)
       (Oracle_pretty.block_to_string p.p_body)

let prop_expr_oracle e =
  same "expression" (Pretty.expr_to_string e) (Oracle_pretty.expr_to_string e)

(* The programs flattenc prints: the paper's codes and every example and
   corpus file, flattened and SIMDized. *)
let t_oracle_flattened () =
  let opts =
    {
      Lf_core.Pipeline.default_options with
      assume_inner_nonempty = true;
      target =
        Lf_core.Pipeline.Simd { decomp = Lf_core.Simdize.Cyclic; p = EInt 8 };
    }
  in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".f")
    |> List.map (fun f -> parse_program (read (Filename.concat dir f)))
  in
  let progs =
    Lf_kernels.Nbforce_src.program ()
    :: parse_program Lf_report.Experiments.example_source
    :: (files "../examples/fortran" @ files "corpus")
  in
  List.iter
    (fun p ->
      checkb "source program prints as before" (prop_program_oracle p);
      match Lf_core.Pipeline.flatten_program ~opts p with
      | Ok o ->
          checkb "flattened program prints as before"
            (prop_program_oracle o.Lf_core.Pipeline.program)
      | Error _ -> ())
    progs

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
    qcheck_case ~count:500 "oracle: random programs print as before"
      wide_program prop_program_oracle;
    qcheck_case ~count:500 "oracle: random expressions print as before"
      wide_expr prop_expr_oracle;
    case "oracle: flattened programs print as before" t_oracle_flattened;
    qcheck_case ~count:2000 "REAL literal print/parse identity"
      nonneg_finite_float real_roundtrips;
  ]
