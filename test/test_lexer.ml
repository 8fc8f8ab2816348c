(** Lexer tests: token streams, comments, continuations, dotted operators,
    numeric literals, and error positions. *)

open Helpers
open Lf_lang
open Token

let toks src = List.map snd (Lexer.tokenize src) |> List.filter (( <> ) EOF)

let tok_list =
  Alcotest.testable
    (fun ppf ts ->
      Fmt.pf ppf "[%s]" (String.concat "; " (List.map Token.to_string ts)))
    ( = )

let t_simple () =
  check tok_list "assignment" [ IDENT "x"; ASSIGN; INT 1 ] (toks "x = 1");
  check tok_list "keywords"
    [ KEYWORD "DO"; IDENT "i"; ASSIGN; INT 1; COMMA; IDENT "k" ]
    (toks "DO i = 1, k");
  check tok_list "case-insensitive keyword"
    [ KEYWORD "ENDDO" ] (toks "enddo");
  check tok_list "identifiers lower-cased" [ IDENT "pcnt" ] (toks "pCnt")

let t_operators () =
  check tok_list "relational symbols"
    [ IDENT "a"; LE; IDENT "b"; NE; IDENT "c"; GE; IDENT "d" ]
    (toks "a <= b /= c >= d");
  check tok_list "dotted operators"
    [ IDENT "a"; AND; NOT; IDENT "b"; OR; TRUE ]
    (toks "a .AND. .NOT. b .OR. .TRUE.");
  check tok_list "dotted relations"
    [ IDENT "a"; EQ; IDENT "b"; LT; IDENT "c" ]
    (toks "a .EQ. b .LT. c");
  check tok_list "power vs star"
    [ IDENT "a"; POW; INT 2; STAR; IDENT "b" ]
    (toks "a ** 2 * b");
  check tok_list "== and =" [ IDENT "a"; EQ; IDENT "b"; ASSIGN; INT 0 ]
    (toks "a == b = 0")

let t_numbers () =
  check tok_list "integer" [ INT 42 ] (toks "42");
  check tok_list "real" [ FLOAT 3.5 ] (toks "3.5");
  check tok_list "real with exponent" [ FLOAT 1.5e3 ] (toks "1.5e3");
  check tok_list "double exponent" [ FLOAT 2.5e-2 ] (toks "2.5d-2");
  check tok_list "trailing dot" [ FLOAT 4.0; COMMA ] (toks "4. ,");
  (* a digit followed by a dotted operator must stay an integer *)
  check tok_list "int before dotted op" [ INT 1; AND; INT 2 ]
    (toks "1 .AND. 2");
  check tok_list "leading dot real" [ FLOAT 0.5 ] (toks ".5")

let t_comments () =
  check tok_list "full-line C comment" [ IDENT "a"; ASSIGN; INT 1 ]
    (toks "C this is a comment\na = 1");
  check tok_list "bang comment" [ IDENT "a"; ASSIGN; INT 1 ]
    (toks "a = 1 ! trailing");
  check tok_list "star comment line"
    [ IDENT "a"; ASSIGN; INT 1 ]
    (toks "* full line\na = 1");
  (* an identifier starting with c must not be treated as a comment *)
  check tok_list "c-identifier"
    [ IDENT "count"; ASSIGN; INT 0 ]
    (toks "count = 0")

(* A [C] starts a comment only in column 1: indented, it is the first
   letter of a statement on an array or scalar named [c]. *)
let t_column1_comments () =
  check tok_list "indented C(i) assignment"
    [ IDENT "c"; LPAREN; IDENT "i"; RPAREN; ASSIGN; FLOAT 2.0 ]
    (toks "    C(i) = 2.0");
  check tok_list "indented C scalar assignment"
    [ IDENT "x"; ASSIGN; INT 0; NEWLINE; IDENT "c"; ASSIGN; INT 1 ]
    (toks "x = 0\n  C = 1");
  check tok_list "column-1 C( is still a comment" [ IDENT "a"; ASSIGN; INT 1 ]
    (toks "C(i) = 2.0\na = 1");
  check tok_list "column-1 C after a statement"
    [ IDENT "a"; ASSIGN; INT 1; NEWLINE; IDENT "b"; ASSIGN; INT 2 ]
    (toks "a = 1\nC a comment\nb = 2");
  check tok_list "indented ! and * lines are comments"
    [ IDENT "a"; ASSIGN; INT 1 ]
    (toks "  ! note\n   * star\na = 1");
  let prog =
    Parser.program_of_string
      "REAL C(4)\nDO i = 1, 4\n    C(i) = 2.0\nENDDO\n"
  in
  match List.map Ast.strip_loc prog.Ast.p_body with
  | [ Ast.SDo (_, [ s ]) ] -> (
      match Ast.strip_loc s with
      | Ast.SAssign ({ Ast.lv_name = "c"; _ }, Ast.EReal 2.0) -> ()
      | _ -> Alcotest.fail "the loop body is not c(i) = 2.0")
  | _ -> Alcotest.fail "the indented C(i) statement was dropped"

let t_newlines () =
  check tok_list "collapsed newlines"
    [ IDENT "a"; ASSIGN; INT 1; NEWLINE; IDENT "b"; ASSIGN; INT 2 ]
    (toks "a = 1\n\n\nb = 2");
  check tok_list "continuation joins lines"
    [ IDENT "a"; ASSIGN; INT 1; PLUS; INT 2 ]
    (toks "a = 1 + &\n 2")

let t_brackets () =
  check tok_list "vector literal"
    [ LBRACKET; INT 1; COLON; IDENT "p"; RBRACKET ]
    (toks "[1:p]")

let t_errors () =
  let lex_fails s =
    match toks s with
    | exception Errors.Lex_error _ -> true
    | _ -> false
  in
  checkb "unknown char" (lex_fails "a = #");
  checkb "bad dotted op" (lex_fails "a .NAND. b");
  checkb "unterminated dotted op" (lex_fails "a .AND b")

(* An integer literal past [max_int] is a lexical error at the literal. *)
let t_int_overflow () =
  check tok_list "max_int still lexes" [ INT max_int ]
    (toks (string_of_int max_int));
  match toks "a = 1\nx = 99999999999999999999" with
  | exception Errors.Lex_error (p, m) ->
      checki "line" 2 p.Errors.line;
      checki "col" 5 p.Errors.col;
      check Alcotest.string "message" "integer literal out of range" m
  | _ -> Alcotest.fail "an out-of-range literal must not lex"

let t_positions () =
  match Lexer.tokenize "a = 1\n  b = 2" with
  | (_ :: _ :: _ :: _ :: (p, IDENT "b") :: _) ->
      checki "line" 2 p.Errors.line;
      checki "col" 3 p.Errors.col
  | _ -> Alcotest.fail "unexpected token stream"

(* ------------------------------------------------------------------ *)
(* Differential oracle: the list-building lexer [Lexer] replaced        *)
(* ------------------------------------------------------------------ *)

(* Tokens with positions, or the error the lexer stopped with. *)
let outcome tokenize src =
  match tokenize src with
  | toks -> Ok toks
  | exception Errors.Lex_error (p, m) ->
      Error (Fmt.str "lexical error at %d:%d: %s" p.Errors.line p.Errors.col m)
  | exception e -> Error (Printexc.to_string e)

let agrees src =
  let got = outcome Lexer.tokenize src
  and want = outcome Oracle_lexer.tokenize src in
  got = want
  ||
  let show = function
    | Ok ts -> Fmt.str "%d tokens" (List.length ts)
    | Error m -> m
  in
  QCheck.Test.fail_reportf "lexers disagree on %S:@.  new: %s@.  old: %s" src
    (show got) (show want)

(* Inputs where the character-level rules meet: NUL bytes, continuations,
   comment columns, numbers next to dotted operators, exponent roll-back. *)
let edge_inputs =
  [
    ""; "\000"; "a = 1\000"; "a = \0001"; "\n\n"; "C"; "C\n"; "C\000";
    "Cx = 1"; "C_1 = 2"; "  C(i) = 1"; "C(i) = 1\n  C(i) = 2";
    "a = 1 &\n + 2"; "a = 1 &"; "&\nC\nb = 1"; "a = 1 & \n 2";
    "x = 1.AND.2"; "x = 1.and.2"; "x = 1.e5"; "x = 1.E+5"; "x = 1.5e";
    "x = 1.5e+"; "x = 1.5d-"; "x = 2.5d-2"; "x = 1."; "x = 1.\n";
    "x = 1.)"; "x = .5e1"; "x = 1.5ex"; "x = 99999999999999999999";
    "a .and"; "a .and b"; "a .XOR. b"; "a .. b"; "a = #"; "a ! x\n! y\n* z";
    "\r\n  a = 1\r\n"; "  *\n"; "a = 1\n\t C = 2";
  ]

let t_oracle_edges () =
  List.iter (fun src -> checkb (Fmt.str "%S" src) (agrees src)) edge_inputs

let read_file path = In_channel.with_open_bin path In_channel.input_all

let t_oracle_files () =
  let sources dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".f")
    |> List.map (Filename.concat dir)
  in
  let files = sources "../examples/fortran" @ sources "corpus" in
  checkb "example and corpus files found" (List.length files >= 8);
  List.iter
    (fun f ->
      let src = read_file f in
      checkb (f ^ " lexes") (Result.is_ok (outcome Lexer.tokenize src));
      checkb (f ^ " lexes as before") (agrees src))
    files

(* Splices that stress the character rules, inserted at random offsets
   into printed (and AST-mutated) generated programs. *)
let splices =
  [ "C"; "C "; "c"; "!"; "*"; "&\n"; "&"; "\n"; "\000"; "."; "1.AND.";
    "1.e5"; "1.5e"; "2.5d-"; "3.e+"; ".5"; " "; "\t"; "\r"; ".EQ."; ".and";
    ".XOR."; "#"; "1."; "e"; "d"; "+"; "="; "/="; "**"; "\n  C(i) = 1\n" ]

let splice src (at, what) =
  let at = at mod (String.length src + 1) in
  String.sub src 0 at ^ what ^ String.sub src at (String.length src - at)

let source_gen =
  let open QCheck.Gen in
  let* dialect, prog =
    oneof
      [
        map (fun p -> (Lf_fuzz.Input.Simd, p)) Gen.simd_prog_gen;
        map
          (fun en -> (Lf_fuzz.Input.Nest, Ast.program "nest" en.Gen.src_block))
          Gen.exec_nest_ext_gen;
      ]
  in
  let* n = 0 -- 3 in
  let* seed = int in
  let prog =
    if n = 0 then prog
    else
      (Lf_fuzz.Mutate.mutate ~n ~rand:(Random.State.make [| seed |])
         (Lf_fuzz.Input.make dialect prog))
        .Lf_fuzz.Input.prog
  in
  let* edits = list_size (0 -- 6) (pair (0 -- 1_000_000) (oneofl splices)) in
  return (List.fold_left splice (Pretty.program_to_string prog) edits)

let prop_oracle =
  qcheck_test
    (QCheck.Test.make ~count:300
       ~name:"tokens, positions and errors equal the old lexer's"
       (QCheck.make ~print:(Fmt.str "%S") source_gen)
       agrees)

(* -- in-place number readers ------------------------------------------ *)

(* Number texts around the in-place readers' limits: integers of 1 to
   19 digits (18 fit, 19 may overflow), plain [d*.d*] reals with 16- and
   17-digit mantissas, values past 2^53 and 22 or 23 fraction digits,
   [1.] and [.5] forms, and [e]/[d] exponents, which take the substring
   path. *)
let number_text_gen =
  let open QCheck.Gen in
  let digits lo hi =
    let* n = lo -- hi in
    string_size ~gen:(char_range '0' '9') (return n)
  in
  let fraction = digits 1 23 in
  let plain = map2 (fun a b -> a ^ "." ^ b) (digits 0 17) fraction in
  oneof
    [
      digits 1 19;
      map (fun d -> String.make 1 '1' ^ d) (digits 17 18);
      plain;
      map2 (fun a b -> a ^ "." ^ b) (digits 15 17) (digits 0 2);
      map2 (fun a b -> a ^ "." ^ b) (digits 0 1) (digits 21 23);
      (* short mantissas behind 20 to 23 fraction digits: the exact
         case up to its last power of ten, and one past it *)
      (let* k = 20 -- 23 in
       let* d = digits 1 12 in
       return ("0." ^ String.make (k - String.length d) '0' ^ d));
      map (fun a -> a ^ ".") (digits 1 17);
      map (fun b -> "." ^ b) fraction;
      map2
        (fun k f -> string_of_int ((1 lsl 53) + k) ^ f)
        (-3 -- 3) (oneofl [ ""; "."; ".0"; ".5"; ".25" ]);
      map3
        (fun m e x -> m ^ e ^ x)
        plain
        (oneofl [ "e"; "E"; "d"; "D"; "e-"; "e+"; "d-"; "D+" ])
        (digits 1 3);
    ]

(* The token a number text must lex to: [int_of_string]'s value for
   digits alone (a located error past the int range), else
   [float_of_string]'s with a [d] exponent read as [e]; reals compared
   by their bits. *)
let number_outcome tokens text =
  match tokens text with
  | [ (_, INT n); (_, EOF) ] -> `Int n
  | [ (_, FLOAT f); (_, EOF) ] -> `Real (Int64.bits_of_float f)
  | _ -> `Other
  | exception Errors.Lex_error _ -> `Error

let expected_number text =
  if String.for_all (fun c -> c >= '0' && c <= '9') text then
    match int_of_string_opt text with Some n -> `Int n | None -> `Error
  else
    `Real
      (Int64.bits_of_float
         (float_of_string
            (String.map (function 'd' | 'D' -> 'e' | c -> c) text)))

let prop_numbers =
  qcheck_test
    (QCheck.Test.make ~count:2000
       ~name:"INT and FLOAT tokens equal int_of_string and float_of_string"
       (QCheck.make ~print:Fun.id number_text_gen)
       (fun text ->
         number_outcome Lexer.tokenize text = expected_number text
         || QCheck.Test.fail_reportf "lexer reads %S differently" text))

let t_number_limits () =
  let same text =
    checkb text (number_outcome Lexer.tokenize text = expected_number text)
  in
  List.iter same
    [ "999999999999999999"; "1000000000000000000"; "4611686018427387903";
      "4611686018427387904"; "9999999999999999999"; "9007199254740992.";
      "9007199254740993."; "900719925474099.3"; "0.1234567890123456789012";
      "0.12345678901234567890123"; "1.7976931348623157"; "1."; ".5"; "0.";
      "00.000"; "1.5d300"; "2.5D-2"; "0.30000000000000004";
      "123456789012345678.9"; ".0000000000000000000001" ];
  checki "plain_int past 18 digits" (-1)
    (Lexer.plain_int "1234567890123456789" 0 19);
  checkb "plain_real refuses an exponent"
    (Float.is_nan (Lexer.plain_real "1.5e3" 0 5));
  checkb "plain_real refuses a lone '.'"
    (Float.is_nan (Lexer.plain_real "." 0 1));
  checkb "plain_real refuses two '.'"
    (Float.is_nan (Lexer.plain_real "1.2.3" 0 5))

let suite =
  [
    case "simple statements" t_simple;
    case "operators" t_operators;
    case "numeric literals" t_numbers;
    case "comments" t_comments;
    case "C comments only in column 1" t_column1_comments;
    case "newlines and continuations" t_newlines;
    case "vector brackets" t_brackets;
    case "lexical errors" t_errors;
    case "integer literal out of range" t_int_overflow;
    case "source positions" t_positions;
    case "oracle: character-rule edge cases" t_oracle_edges;
    case "oracle: example and corpus files" t_oracle_files;
    prop_oracle;
    case "numbers at the in-place readers' limits" t_number_limits;
    prop_numbers;
  ]
