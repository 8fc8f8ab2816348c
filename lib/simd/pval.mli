(** Plural values: the data model of the SIMD VM — front-end scalars and
    arrays on the control unit, plural values with one component per
    processor (paper §2).  Components on masked-out lanes are unspecified;
    operations compute only on active lanes. *)

open Lf_lang

type t =
  | FScalar of Values.value
  | FArr of Values.arr
  | Plural of Values.value array

val pp : t Fmt.t
val to_string : t -> string

(** Broadcast a front-end scalar to all [p] lanes. *)
val broadcast : int -> Values.value -> t

(** Per-lane view: lane [i] of a front-end scalar is the scalar itself;
    raises on arrays. *)
val lane : t -> int -> Values.value

val is_plural : t -> bool

(** Raise unless the value is a front-end scalar. *)
val as_front_scalar : t -> Values.value

val as_front_bool : t -> bool
val as_front_int : t -> int

(** [map_active ~mask f] is the plural whose lane [i] is [f i] on every
    active lane, visited in ascending order (so the first failing lane
    raises), and an inert zero on the others. *)
val map_active : mask:bool array -> (int -> Values.value) -> t

(** Lift a scalar binary operation lane-wise under the mask; the operand
    shapes are resolved once per vector. *)
val lift2 :
  mask:bool array ->
  (Values.value -> Values.value -> Values.value) ->
  t ->
  t ->
  t

val lift1 : mask:bool array -> (Values.value -> Values.value) -> t -> t

(** Witness used to type a reduction's identity: the first lane of a
    plural, the scalar itself for a front-end scalar. *)
val witness : t -> Values.value

(** Type-correct identity element for ["maxval"] / ["minval"] / ["sum"],
    keyed by the witness's type (REAL reductions get real infinities /
    0.0 rather than the historical integer sentinels). *)
val reduction_identity : string -> Values.value -> Values.value

(** Reduce a plural value over the active lanes; [empty] when none are. *)
val reduce :
  mask:bool array ->
  empty:Values.value ->
  (Values.value -> Values.value -> Values.value) ->
  t ->
  Values.value
