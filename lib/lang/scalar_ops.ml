(** Scalar operator semantics shared by every execution engine.

    Both the sequential interpreter ([Interp]) and the two SIMD engines
    (the tree-walking [Lf_simd.Vm] and the compiled [Lf_simd.Compile])
    must agree exactly on what [a + b] means for every value pair —
    promotion rules, division-by-zero behaviour, the integer/real [Pow]
    split.  Keeping a single definition here is what makes the engines
    provably interchangeable: there is one [apply_binop], not three.

    The tree-walking engine calls [apply_binop] once per active lane, so
    it is written as a direct match that allocates nothing but its
    result. *)

open Values

let mismatch a b =
  Errors.runtime_error "type mismatch in binary operation: %s vs %s"
    (type_name a) (type_name b)

(* [op] is one of [Add], [Sub], [Mul] *)
let[@inline] arith_int op x y =
  match op with Ast.Add -> x + y | Ast.Sub -> x - y | _ -> x * y

let[@inline] arith_real op (x : float) y =
  match op with Ast.Add -> x +. y | Ast.Sub -> x -. y | _ -> x *. y

(* [op] is a comparison; [c] the result of [compare], so NaN = NaN *)
let[@inline] cmp_test op c =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Ne -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | _ -> c >= 0

let apply_binop op a b =
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul -> (
      match (a, b) with
      | VInt x, VInt y -> VInt (arith_int op x y)
      | VReal x, VReal y -> VReal (arith_real op x y)
      | VInt x, VReal y -> VReal (arith_real op (float_of_int x) y)
      | VReal x, VInt y -> VReal (arith_real op x (float_of_int y))
      | VBool _, VBool _ -> Errors.runtime_error "arithmetic on LOGICAL"
      | _ -> mismatch a b)
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      match (a, b) with
      | VInt x, VInt y -> VBool (cmp_test op (compare x y))
      | VReal x, VReal y -> VBool (cmp_test op (compare x y))
      | VInt x, VReal y -> VBool (cmp_test op (compare (float_of_int x) y))
      | VReal x, VInt y -> VBool (cmp_test op (compare x (float_of_int y)))
      | VBool x, VBool y -> VBool (cmp_test op (compare x y))
      | _ -> mismatch a b)
  | Ast.Div -> (
      match (a, b) with
      | VInt x, VInt y ->
          if y = 0 then Errors.runtime_error "integer division by zero"
          else VInt (x / y)
      | _ -> VReal (as_float a /. as_float b))
  | Ast.Mod -> (
      match (a, b) with
      | VInt x, VInt y ->
          if y = 0 then Errors.runtime_error "MOD by zero" else VInt (x mod y)
      | _ -> VReal (Float.rem (as_float a) (as_float b)))
  | Ast.Pow -> (
      match (a, b) with
      | VInt x, VInt y when y >= 0 ->
          let rec go acc n = if n = 0 then acc else go (acc * x) (n - 1) in
          VInt (go 1 y)
      | _ -> VReal (Float.pow (as_float a) (as_float b)))
  | Ast.And -> VBool (as_bool a && as_bool b)
  | Ast.Or -> VBool (as_bool a || as_bool b)

let apply_unop op v =
  match (op, v) with
  | Ast.Neg, VInt n -> VInt (-n)
  | Ast.Neg, VReal f -> VReal (-.f)
  | Ast.Not, VBool b -> VBool (not b)
  | _, VArr _ -> Errors.runtime_error "unlifted unary op on array"
  | _ ->
      Errors.runtime_error "bad operand %s for unary operation" (type_name v)
