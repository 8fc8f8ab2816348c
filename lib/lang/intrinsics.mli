(** Intrinsic functions shared by the sequential interpreter and the SIMD
    VM: the Fortran 90 subset the paper's codes use (MAX, MIN, ABS, MOD,
    SQRT, ANY, ALL, COUNT, MAXVAL, MINVAL, SUM, SIZE, MERGE, and the
    [vector] literal constructor). *)

val names : string list

(** The lower-case form of a name: the name itself unless it holds an
    upper-case letter. *)
val key : string -> string

val is_intrinsic : string -> bool

(** ANY, ALL, COUNT, MAXVAL, MINVAL or SUM, in any case: the calls that
    collapse a plural operand to a front-end scalar.  Compares in place,
    allocating nothing. *)
val is_reduction : string -> bool

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

(** {1 Lane kernels}

    The numeric intrinsics' semantics is written once, as lane
    functions that [resolve]'s boxed functions and these kernels both
    apply.  The kernels follow [Scalar_ops]' conventions: a lane count,
    a byte mask or [Scalar_ops.all_lanes], one-cell broadcast operands. *)

(** MAX / MIN / MOD ([Stdlib.max]-style on integers, [Float.max] /
    [Float.min] / [Float.rem] on reals). *)
type num2 = Max | Min | Mod

(** SQRT / EXP / ABS / REAL of a real. *)
type num1 = Sqrt | Exp | Abs | Real

(** The intrinsics with lane kernels: SQRT, EXP, ABS and REAL of one
    numeric operand (integer ABS stays integer, the rest promote), INT
    ([To_int false], truncating) and NINT ([To_int true], rounding) of
    one, MAX and MIN of two.  MOD has no kernel. *)
type lane_fn = Num1 of num1 | Num2 of num2 | To_int of bool

(** By lower-case name; [None] for every other name. *)
val lane_fn : string -> lane_fn option

val real_map1 :
  int -> Bytes.t -> num1 -> float array -> float array -> unit

val int_abs : int -> Bytes.t -> int array -> int array -> unit

(** INT / NINT of real lanes. *)
val to_int :
  int -> Bytes.t -> round:bool -> int array -> float array -> unit

val int_map2 :
  int -> Bytes.t -> num2 -> int array -> int array -> int array ->
  unit

val real_map2 :
  int -> Bytes.t -> num2 -> float array -> float array ->
  float array -> unit

(** The per-lane cell of a one-operand intrinsic applied to a cell, as
    its kernel computes it; [None] where no kernel applies. *)
val cell : string -> Scalar_ops.cell -> Scalar_ops.cell option
