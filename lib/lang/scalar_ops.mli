(** Scalar operator semantics shared by the sequential interpreter and
    both SIMD engines — the single definition of what each [Ast.binop] /
    [Ast.unop] means on runtime values (promotion, division by zero,
    integer vs real [Pow]). *)

val apply_binop : Ast.binop -> Values.value -> Values.value -> Values.value
val apply_unop : Ast.unop -> Values.value -> Values.value
