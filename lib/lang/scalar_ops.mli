(** Scalar operator semantics shared by the sequential interpreter and
    both SIMD engines — the single definition of what each [Ast.binop] /
    [Ast.unop] means on runtime values (promotion, division by zero,
    integer vs real [Pow]).

    The semantics is written once as unboxed lane functions; the boxed
    [apply_binop] and the lane-vector loops below both apply them, so
    the boxed and unboxed paths cannot drift apart. *)

(** [+ - * /] and MOD. *)
val is_arith : Ast.binop -> bool

(** The six comparisons. *)
val is_cmp : Ast.binop -> bool

(** {1 Boxed operators} *)

val apply_binop : Ast.binop -> Values.value -> Values.value -> Values.value
val apply_unop : Ast.unop -> Values.value -> Values.value

(** {1 Lane-vector loops}

    [r.(i) <- op x.(i) y.(i)] on the lanes [mask] marks, in ascending
    order (so the first failing active lane raises); the other lanes of
    [r] are left as they are.  An operand is either a lane vector as
    long as [mask] or a one-cell array broadcasting a front-end
    scalar. *)

val int_map2 :
  mask:bool array -> Ast.binop -> int array -> int array -> int array -> unit

val real_map2 :
  mask:bool array -> Ast.binop -> float array -> float array -> float array ->
  unit

val int_cmp2 :
  mask:bool array -> Ast.binop -> bool array -> int array -> int array -> unit

val real_cmp2 :
  mask:bool array -> Ast.binop -> bool array -> float array -> float array ->
  unit

val bool_map2 :
  mask:bool array -> Ast.binop -> bool array -> bool array -> bool array ->
  unit

(** Every cell converted with [float_of_int] (a fresh array). *)
val to_real : int array -> float array

val int_neg : mask:bool array -> int array -> int array -> unit
val real_neg : mask:bool array -> float array -> float array -> unit
val bool_not : mask:bool array -> bool array -> bool array -> unit

(** Masked copies [r.(i) <- x.(i)]; a one-cell [x] fills. *)

val int_blit : mask:bool array -> int array -> int array -> unit
val real_blit : mask:bool array -> float array -> float array -> unit
val bool_blit : mask:bool array -> bool array -> bool array -> unit

(** The MAXVAL / MINVAL / SUM folds. *)
type fold = Fold_sum | Fold_max | Fold_min

(** ["sum"], ["maxval"], ["minval"]. *)
val fold_of_key : string -> fold option

(** The canonical chunked fold over the active lanes: one partial per
    [chunk]-lane chunk, seeded at its first active lane, then the
    non-empty partials merged left to right; [None] when no lane is
    active.  It groups exactly as the boxed fold over the same chunk
    grid, so a REAL SUM is bitwise the same. *)
val int_reduce : chunk:int -> mask:bool array -> fold -> int array -> int option

val real_reduce :
  chunk:int -> mask:bool array -> fold -> float array -> float option
