(** Plural values: the data model of the SIMD VM — front-end scalars and
    arrays on the control unit, plural values with one component per
    processor (paper §2).  A plural holds its lanes as one typed lane
    vector ([Frame.lanes]), unboxed unless the lane types are mixed.
    Operations compute only on active lanes; the inactive lanes of a
    computed plural hold an inert zero that every escape point
    (a reduction's witness, [expose]) reads as [VInt 0]. *)

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

(** [map_active ~mask f] are the lanes whose lane [i] is [f i] on every
    active lane, visited in ascending order (so the first failing lane
    raises), re-specialized by its active lanes: unboxed (inert zeros on
    the inactive lanes) when every active lane holds the same scalar
    type, boxed otherwise. *)
val map_active : mask:Frame.Mask.t -> (int -> Values.value) -> Frame.lanes

(** [map_active]'s re-specialization of boxed lanes. *)
val specialize : mask:Frame.Mask.t -> Values.value array -> Frame.lanes

(** The lanes a plural exposes when it escapes into a fresh binding or a
    procedure argument: a private copy, holding the inert [VInt 0] on
    every inactive lane unless [exact] (a variable read or a range). *)
val expose : exact:bool -> mask:Frame.Mask.t -> Frame.lanes -> Frame.lanes

(** The WHERE split: the active lanes of [mask] where the LOGICAL value
    holds go to the first mask, the others to the second (both cleared
    first), each lane converted once in ascending order. *)
val split : mask:Frame.Mask.t -> t -> Frame.Mask.t -> Frame.Mask.t -> unit

(** A vector-controlled WHILE test (paper §2): the value every active
    lane agrees on, [false] when none is active; raises when two active
    lanes differ. *)
val while_test : mask:Frame.Mask.t -> Frame.lanes -> bool

(** Type-correct identity element for ["maxval"] / ["minval"] / ["sum"],
    keyed by the type of the reduction's witness value — lane 0 of the
    argument, the inert [VInt 0] when that lane is inactive and the
    argument is not [exact] (REAL reductions get real infinities / 0.0
    rather than the historical integer sentinels). *)
val reduction_identity : string -> Values.value -> Values.value

(** Reduce a plural value over the active lanes through the boxed view,
    on the canonical chunk grid; [empty] when no lane is active. *)
val reduce :
  mask:Frame.Mask.t ->
  empty:Values.value ->
  (Values.value -> Values.value -> Values.value) ->
  t ->
  Values.value

(** The reduction [key] of a plural or a front-end scalar through the
    boxed view: [reduce] with [Scalar_ops.apply_binop]'s operators
    (ANY / ALL through [as_bool]); [empty] gives the MAXVAL / MINVAL /
    SUM result for an empty mask. *)
val boxed_reduction :
  mask:Frame.Mask.t ->
  empty:(unit -> Values.value) ->
  name:string ->
  string ->
  t ->
  Values.value

(** The global reduction [key] — ["any"], ["all"], ["count"],
    ["maxval"], ["minval"] or ["sum"] — of an evaluated argument over
    the active lanes: the [Scalar_ops] kernel for LOGICAL lanes
    (ANY/ALL/COUNT) and int/real lanes (MAXVAL/MINVAL/SUM),
    [boxed_reduction] otherwise, a front-end array through
    [Intrinsics].  [exact] marks an argument that was a variable
    read or a range (its witness reads lane 0 even when inactive);
    [name] is the reduction as written, for error messages. *)
val reduction :
  mask:Frame.Mask.t ->
  exact:bool ->
  name:string ->
  string ->
  t ->
  Values.value
