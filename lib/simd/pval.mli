(** Plural values: the data model of the SIMD VM — front-end scalars and
    arrays on the control unit, plural values with one component per
    processor (paper §2).  A plural holds its lanes as one typed lane
    vector ([Frame.lanes]), unboxed unless the lane types are mixed.
    Operations compute only on active lanes; the inactive lanes of a
    computed plural hold an inert zero that every escape point
    ([witness], [expose]) reads as [VInt 0]. *)

open Lf_lang

type t =
  | FScalar of Values.value
  | FArr of Values.arr
  | Plural of Frame.lanes

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

val as_front_int : t -> int

(** [map_active ~mask f] is the plural whose lane [i] is [f i] on every
    active lane, visited in ascending order (so the first failing lane
    raises), re-specialized by its active lanes: unboxed (inert zeros on
    the inactive lanes) when every active lane holds the same scalar
    type, boxed otherwise. *)
val map_active : mask:bool array -> (int -> Values.value) -> t

(** Lift a scalar binary operation lane-wise under the mask, through the
    boxed view; the operand shapes are resolved once per vector. *)
val lift2 :
  mask:bool array ->
  (Values.value -> Values.value -> Values.value) ->
  t ->
  t ->
  t

val lift1 : mask:bool array -> (Values.value -> Values.value) -> t -> t

(** The lanes a plural exposes when it escapes into a fresh binding or a
    procedure argument: a private copy, holding the inert [VInt 0] on
    every inactive lane unless [exact] (a variable read or a range). *)
val expose : exact:bool -> mask:bool array -> Frame.lanes -> Frame.lanes

(** Witness used to type a reduction's identity: lane 0 of a plural (the
    inert [VInt 0] when it is inactive and the plural is not [exact]),
    the scalar itself for a front-end scalar. *)
val witness : exact:bool -> mask:bool array -> t -> Values.value

(** Type-correct identity element for ["maxval"] / ["minval"] / ["sum"],
    keyed by the witness's type (REAL reductions get real infinities /
    0.0 rather than the historical integer sentinels). *)
val reduction_identity : string -> Values.value -> Values.value

(** Reduce a plural value over the active lanes through the boxed view,
    on the canonical chunk grid; [empty] when no lane is active. *)
val reduce :
  mask:bool array ->
  empty:Values.value ->
  (Values.value -> Values.value -> Values.value) ->
  t ->
  Values.value

(** The global reduction [key] — ["any"], ["all"], ["count"],
    ["maxval"], ["minval"] or ["sum"] — of an evaluated argument over
    the active lanes: unboxed loops for LOGICAL lanes (ANY/ALL/COUNT)
    and int/real lanes (MAXVAL/MINVAL/SUM), the boxed fold otherwise, a
    front-end array through [Intrinsics].  [exact] marks an argument
    that was a variable read or a range (see [witness]); [name] is the
    reduction as written, for error messages. *)
val reduction :
  mask:bool array -> exact:bool -> name:string -> string -> t -> Values.value
