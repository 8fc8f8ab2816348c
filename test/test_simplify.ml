(** Simplifier tests: golden identities plus the semantic-preservation
    property (a simplified expression evaluates to the same value). *)

open Helpers
open Lf_lang

let simp s = Pretty.expr_to_string (Simplify.simplify (parse_expr s))

let t_identities () =
  checks "x - 1 + 1" "x" (simp "x - 1 + 1");
  checks "x + 1 - 1" "x" (simp "x + 1 - 1");
  checks "x * 1" "x" (simp "x * 1");
  checks "1 * x" "x" (simp "1 * x");
  checks "x + 0" "x" (simp "x + 0");
  checks "x * 0" "0" (simp "x * 0");
  checks "constant folding" "7" (simp "1 + 2 * 3");
  checks "nested constants" "x + 5" (simp "x + 2 + 3");
  checks "comparison folding" ".TRUE." (simp "2 < 3");
  checks "and true" "x > 0" (simp ".TRUE. .AND. x > 0");
  checks "or true" ".TRUE." (simp "x > 0 .OR. .TRUE.");
  checks "double negation" "x" (simp "- - x");
  checks "double not" "b" (simp ".NOT. .NOT. b");
  checks "negated gt" "i <= k" (simp ".NOT. (i > k)");
  checks "negated le" "i > k" (simp ".NOT. (i <= k)");
  checks "negated eq" "i /= k" (simp ".NOT. (i == k)");
  checks "a + x - a (partition arithmetic)" "x" (simp "(1 + x) - 1");
  checks "div by 1" "x" (simp "x / 1");
  checks "exact const div" "4" (simp "8 / 2");
  (* combined constants that cancel: one pass reaches the normal form *)
  checks "x + 5 + -5" "x" (simp "x + 5 + -5");
  checks "x - 5 - -5" "x" (simp "x - 5 - -5");
  checks "cancelling constants inside a sum"
    "b + (4 + .TRUE. - a(j, 7))"
    (simp "b + 5 + -5 + (4 + .TRUE. - a(j, 7))")

let t_no_unsound_div () =
  (* 7/2 in integers is 3; the simplifier must not fold it as 3.5 or
     rewrite x*2/2 to x (not valid for truncating division chains) *)
  checks "inexact div untouched" "7 / 2" (simp "7 / 2")

(* evaluation environment for the property: all variables are small ints *)
let setup ctx =
  List.iter
    (fun v -> Env.set ctx.Interp.env v (Values.VInt (1 + (Char.code v.[0] mod 5))))
    [ "a"; "b"; "c"; "i"; "j"; "k"; "n" ];
  List.iter
    (fun v ->
      Env.set ctx.Interp.env v
        (Values.VArr (Values.AInt (Nd.create [| 10; 10 |] 3))))
    [ "x"; "l" ]

let eval_opt e =
  let ctx = Interp.create () in
  setup ctx;
  match Interp.eval ctx e with
  | v -> Some v
  | exception Errors.Runtime_error _ -> None

let prop_preserves e =
  let a = eval_opt e and b = eval_opt (Simplify.simplify e) in
  match (a, b) with
  | Some x, Some y ->
      Values.equal_value x y
      || QCheck.Test.fail_reportf "%s -> %s: %s vs %s"
           (Pretty.expr_to_string e)
           (Pretty.expr_to_string (Simplify.simplify e))
           (Values.to_string x) (Values.to_string y)
  | None, _ -> true  (* original errors (div by zero etc.): no claim *)
  | Some _, None ->
      QCheck.Test.fail_reportf "simplified form errors: %s"
        (Pretty.expr_to_string e)

let suite =
  [
    case "golden identities" t_identities;
    case "no unsound division folding" t_no_unsound_div;
    qcheck_case ~count:1000 "simplify preserves evaluation" Gen.expr
      prop_preserves;
  ]
