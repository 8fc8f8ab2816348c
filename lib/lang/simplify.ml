(** Algebraic simplification of expressions: constant folding plus the
    identities that keep compiler-generated code readable
    ([e - 1 + 1 -> e], [e * 1 -> e], [e + 0 -> e], [(i - 1) + 1 -> i], ...).
    Purely syntactic and sound for the integer expressions the
    transformation passes emit. *)

open Ast

let rec simplify (e : expr) : expr =
  Ast_util.map_expr step e

and step (e : expr) : expr =
  match e with
  | EBin (op, EInt a, EInt b) -> (
      match op with
      | Add -> EInt (a + b)
      | Sub -> EInt (a - b)
      | Mul -> EInt (a * b)
      | Div when b <> 0 && a mod b = 0 -> EInt (a / b)
      | Mod when b <> 0 -> EInt (a mod b)
      | Pow when b >= 0 ->
          let rec go acc n = if n = 0 then acc else go (acc * a) (n - 1) in
          EInt (go 1 b)
      | Eq -> EBool (a = b)
      | Ne -> EBool (a <> b)
      | Lt -> EBool (a < b)
      | Le -> EBool (a <= b)
      | Gt -> EBool (a > b)
      | Ge -> EBool (a >= b)
      | _ -> e)
  | EBin (And, EBool true, x) | EBin (And, x, EBool true) -> x
  | EBin (And, EBool false, _) | EBin (And, _, EBool false) -> EBool false
  | EBin (Or, EBool false, x) | EBin (Or, x, EBool false) -> x
  | EBin (Or, EBool true, _) | EBin (Or, _, EBool true) -> EBool true
  | EUn (Not, EBool b) -> EBool (not b)
  | EUn (Not, EUn (Not, x)) -> x
  (* negated comparisons: .NOT. (a > b) -> a <= b etc. *)
  | EUn (Not, EBin (Gt, a, b)) -> EBin (Le, a, b)
  | EUn (Not, EBin (Ge, a, b)) -> EBin (Lt, a, b)
  | EUn (Not, EBin (Lt, a, b)) -> EBin (Ge, a, b)
  | EUn (Not, EBin (Le, a, b)) -> EBin (Gt, a, b)
  | EUn (Not, EBin (Eq, a, b)) -> EBin (Ne, a, b)
  | EUn (Not, EBin (Ne, a, b)) -> EBin (Eq, a, b)
  | EUn (Neg, EInt n) -> EInt (-n)
  | EUn (Neg, EUn (Neg, x)) -> x
  | EBin (Add, x, EInt 0) | EBin (Add, EInt 0, x) -> x
  | EBin (Sub, x, EInt 0) -> x
  | EBin (Mul, x, EInt 1) | EBin (Mul, EInt 1, x) -> x
  | EBin (Mul, _, EInt 0) | EBin (Mul, EInt 0, _) -> EInt 0
  | EBin (Div, x, EInt 1) -> x
  (* (x - a) + b  and  (x + a) - b  with constants *)
  | EBin (Add, EBin (Sub, x, EInt a), EInt b) ->
      if a = b then x
      else if b > a then step (EBin (Add, x, EInt (b - a)))
      else step (EBin (Sub, x, EInt (a - b)))
  | EBin (Sub, EBin (Add, x, EInt a), EInt b) ->
      if a = b then x
      else if a > b then step (EBin (Add, x, EInt (a - b)))
      else step (EBin (Sub, x, EInt (b - a)))
  (* the combined constant may make a new identity ([x + 0]): step again,
     so one pass reaches the normal form *)
  | EBin (Add, EBin (Add, x, EInt a), EInt b) ->
      step (EBin (Add, x, EInt (a + b)))
  | EBin (Sub, EBin (Sub, x, EInt a), EInt b) ->
      step (EBin (Sub, x, EInt (a + b)))
  (* a + x - a  (common in partition arithmetic) *)
  | EBin (Sub, EBin (Add, EInt a, x), EInt b) when a = b -> x
  | _ -> e

let simplify_stmt s = Ast_util.map_stmt_exprs simplify s
let simplify_block b = List.map simplify_stmt b
