(** Plural values: the data model of the SIMD VM.

    A value is either a front-end scalar (living on the array control
    unit), a front-end array, or a {e plural} value with one component per
    processor (paper §2: "scalars of the F77 version will be replicated in
    the F90simd version").  Plural components on lanes that are masked out
    are unspecified; operations only compute on active lanes. *)

open Lf_lang

type t =
  | FScalar of Values.value
  | FArr of Values.arr
  | Plural of Values.value array

let pp ppf = function
  | FScalar v -> Values.pp ppf v
  | FArr a -> Values.pp ppf (Values.VArr a)
  | Plural vs ->
      Fmt.pf ppf "<%a>"
        Fmt.(list ~sep:(any ", ") Values.pp)
        (Array.to_list vs)

let to_string v = Fmt.str "%a" pp v

(** Broadcast a front-end scalar to all lanes. *)
let broadcast p v = Plural (Array.make p v)

(** Per-lane view of any value: lane [i] of a front-end scalar is the
    scalar itself. *)
let lane v i =
  match v with
  | FScalar s -> s
  | Plural vs -> vs.(i)
  | FArr _ -> Errors.runtime_error "front-end array used as a plural value"

let is_plural = function Plural _ -> true | _ -> false

let as_front_scalar = function
  | FScalar v -> v
  | Plural _ -> Errors.runtime_error "plural value in a front-end context"
  | FArr _ -> Errors.runtime_error "array value in a scalar context"

let as_front_bool v = Values.as_bool (as_front_scalar v)
let as_front_int v = Values.as_int (as_front_scalar v)

(** [f i] on every active lane [i], in ascending order (so the first
    failing active lane raises); an inert zero on the others. *)
let map_active ~(mask : bool array) f =
  let r = Array.make (Array.length mask) (Values.VInt 0) in
  for i = 0 to Array.length mask - 1 do
    if mask.(i) then r.(i) <- f i
  done;
  Plural r

(** Lift a scalar binary operation lane-wise; computes only active lanes.
    The operand shapes are resolved once per vector, not per lane. *)
let lift2 ~(mask : bool array) f a b =
  match (a, b) with
  | FScalar x, FScalar y -> FScalar (f x y)
  | Plural xs, Plural ys -> map_active ~mask (fun i -> f xs.(i) ys.(i))
  | Plural xs, FScalar y -> map_active ~mask (fun i -> f xs.(i) y)
  | FScalar x, Plural ys -> map_active ~mask (fun i -> f x ys.(i))
  | _ -> Errors.runtime_error "array operand in a lane-wise operation"

let lift1 ~(mask : bool array) f a =
  match a with
  | FScalar x -> FScalar (f x)
  | Plural xs -> map_active ~mask (fun i -> f xs.(i))
  | FArr _ -> Errors.runtime_error "array operand in a lane-wise operation"

(** Witness value used to type a reduction's identity element: the first
    lane of a plural, the scalar itself otherwise. *)
let witness = function
  | FScalar s -> s
  | Plural vs -> if Array.length vs = 0 then Values.VInt 0 else vs.(0)
  | FArr _ -> Values.VInt 0

(** Type-correct identity for the MAXVAL / MINVAL / SUM reductions,
    matching the witness's type.  (Historically the VM used the integer
    sentinels [VInt min_int] / [VInt max_int] / [VInt 0] even for real
    lanes, so an all-masked MAXVAL over a REAL plural produced an
    INTEGER.) *)
let reduction_identity key (witness : Values.value) : Values.value =
  match witness with
  | Values.VReal _ -> (
      match key with
      | "maxval" -> Values.VReal neg_infinity
      | "minval" -> Values.VReal infinity
      | _ -> Values.VReal 0.0)
  | Values.VBool _ -> (
      match key with
      | "maxval" -> Values.VBool false
      | "minval" -> Values.VBool true
      | _ -> Values.VInt 0)
  | _ -> (
      match key with
      | "maxval" -> Values.VInt min_int
      | "minval" -> Values.VInt max_int
      | _ -> Values.VInt 0)

(** Reduce a plural value over the active lanes.  [empty] is returned when
    no lane is active.

    The fold follows the canonical chunked merge tree shared by all
    engines (see [Pool]): one partial per [Pool.chunk]-lane chunk, each
    initialized at its first active lane, then the non-empty partials are
    merged left-to-right in ascending chunk order.  The chunk grid
    depends only on [p], so a float SUM is bitwise identical whether the
    lanes are folded here, by the serial compiled engine, or by the
    parallel engine at any jobs count. *)
let reduce ~(mask : bool array) ~empty f v =
  match v with
  | Plural vs ->
      let p = Array.length mask in
      let acc = ref empty and have_acc = ref false in
      for c = 0 to Pool.nchunks p - 1 do
        let l = c * Pool.chunk and h = min p ((c + 1) * Pool.chunk) in
        let part = ref empty and have_part = ref false in
        for i = l to h - 1 do
          if mask.(i) then
            if !have_part then part := f !part vs.(i)
            else begin
              part := vs.(i);
              have_part := true
            end
        done;
        if !have_part then
          if !have_acc then acc := f !acc !part
          else begin
            acc := !part;
            have_acc := true
          end
      done;
      !acc
  | FScalar s -> if Array.exists Fun.id mask then s else empty
  | FArr _ -> Errors.runtime_error "array operand in a plural reduction"
