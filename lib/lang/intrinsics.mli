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
