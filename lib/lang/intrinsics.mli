(** Intrinsic functions shared by the sequential interpreter and the SIMD
    VM: the Fortran 90 subset the paper's codes use (MAX, MIN, ABS, MOD,
    SQRT, ANY, ALL, COUNT, MAXVAL, MINVAL, SUM, SIZE, MERGE, and the
    [vector] literal constructor). *)

val names : string list
val is_intrinsic : string -> bool

(** [resolve name] looks the (case-insensitive) name up once and returns
    the function of the evaluated arguments that [apply name] computes:
    a caller applying one intrinsic per lane resolves it once per vector.
    A name that is not an intrinsic resolves to the function answering
    [None]. *)
val resolve : string -> Values.value list -> Values.value option

(** Apply an intrinsic to evaluated arguments; [None] when the name is not
    an intrinsic.  Raises [Errors.Runtime_error] on arity or operand
    errors. *)
val apply : string -> Values.value list -> Values.value option

(** {1 Lane-vector loops}

    The numeric intrinsics' semantics is written once, as lane
    functions that [resolve]'s boxed functions and these loops both
    apply. *)

(** MAX / MIN / MOD ([Stdlib.max]-style on integers, [Float.max] /
    [Float.min] / [Float.rem] on reals). *)
type num2 = Max | Min | Mod

(** SQRT / EXP / ABS. *)
type num1 = Sqrt | Exp | Abs

(** The intrinsics with lane loops: SQRT, EXP and ABS of one numeric
    operand (integer ABS stays integer, the rest promote), MAX and MIN
    of two. *)
type lane_fn = Num1 of num1 | Num2 of num2

(** By lower-case name; [None] for every other name. *)
val lane_fn : string -> lane_fn option

(** [r.(i) <- f x.(i) ...] on the active lanes of [mask], ascending; an
    operand is a lane vector or a one-cell broadcast array. *)

val real_map1 : mask:bool array -> num1 -> float array -> float array -> unit
val int_abs : mask:bool array -> int array -> int array -> unit

val int_map2 :
  mask:bool array -> num2 -> int array -> int array -> int array -> unit

val real_map2 :
  mask:bool array -> num2 -> float array -> float array -> float array -> unit
