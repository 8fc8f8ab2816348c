(** Plural values: the data model of the SIMD VM.

    A value is either a front-end scalar (living on the array control
    unit), a front-end array, or a {e plural} value with one component per
    processor (paper §2: "scalars of the F77 version will be replicated in
    the F90simd version").  A plural holds its lanes as one typed lane
    vector ([Frame.lanes]: unboxed [int]/[float]/[bool] lanes, or boxed
    lanes when their types are mixed), so an operation on it is one
    monomorphic loop.  Operations only compute on active lanes; the
    inactive lanes of a computed plural hold an inert [0] / [0.0] /
    [false] (or [VInt 0] when boxed) that no result depends on: every
    place where they could escape — a reduction's witness, a fresh
    binding, a procedure argument — reads them as [VInt 0]. *)

open Lf_lang
open Values

type t =
  | FScalar of Values.value
  | FArr of Values.arr
  | Plural of Frame.lanes

let pp ppf = function
  | FScalar v -> Values.pp ppf v
  | FArr a -> Values.pp ppf (Values.VArr a)
  | Plural l ->
      Fmt.pf ppf "<%a>"
        Fmt.(list ~sep:(any ", ") Values.pp)
        (Array.to_list (Frame.values_of_lanes l))

let to_string v = Fmt.str "%a" pp v

(** Broadcast a front-end scalar to all lanes. *)
let broadcast p v = Plural (Frame.make_lanes p v)

(** Per-lane view of any value: lane [i] of a front-end scalar is the
    scalar itself. *)
let lane v i =
  match v with
  | FScalar s -> s
  | Plural l -> Frame.lane_value l i
  | FArr _ -> Errors.runtime_error "front-end array used as a plural value"

let is_plural = function Plural _ -> true | _ -> false

let as_front_scalar = function
  | FScalar v -> v
  | Plural _ -> Errors.runtime_error "plural value in a front-end context"
  | FArr _ -> Errors.runtime_error "array value in a scalar context"

let as_front_bool v = Values.as_bool (as_front_scalar v)
let as_front_int v = Values.as_int (as_front_scalar v)

let all_active (mask : bool array) = Array.for_all Fun.id mask

(** Re-specialize boxed lanes by their {e active} lanes: when every
    active lane holds the same scalar type, the unboxed vector (inert
    zeros elsewhere), else the boxed lanes themselves. *)
let specialize ~(mask : bool array) (vs : value array) : Frame.lanes =
  let p = Array.length vs in
  let rec first i = if i >= p || mask.(i) then i else first (i + 1) in
  let f = first 0 in
  (* a lane of another type raises [Exit] *)
  try
    if f >= p then Frame.LBox vs
    else
      match vs.(f) with
      | VInt _ ->
          let r = Array.make p 0 in
          for i = f to p - 1 do
            if mask.(i) then
              r.(i) <- (match vs.(i) with VInt x -> x | _ -> raise Exit)
          done;
          Frame.LInt r
      | VReal _ ->
          let r = Array.make p 0.0 in
          for i = f to p - 1 do
            if mask.(i) then
              r.(i) <- (match vs.(i) with VReal x -> x | _ -> raise Exit)
          done;
          Frame.LReal r
      | VBool _ ->
          let r = Array.make p false in
          for i = f to p - 1 do
            if mask.(i) then
              r.(i) <- (match vs.(i) with VBool x -> x | _ -> raise Exit)
          done;
          Frame.LBool r
      | VArr _ -> Frame.LBox vs
  with Exit -> Frame.LBox vs

(** [f i] on every active lane [i], in ascending order (so the first
    failing active lane raises), re-specialized by the active lanes. *)
let map_active ~(mask : bool array) f =
  let r = Array.make (Array.length mask) (VInt 0) in
  for i = 0 to Array.length mask - 1 do
    if mask.(i) then r.(i) <- f i
  done;
  Plural (specialize ~mask r)

(** Lift a scalar binary operation lane-wise through the boxed view;
    computes only active lanes.  The operand shapes are resolved once
    per vector, not per lane. *)
let lift2 ~(mask : bool array) f a b =
  match (a, b) with
  | FScalar x, FScalar y -> FScalar (f x y)
  | Plural xs, Plural ys ->
      map_active ~mask (fun i ->
          f (Frame.lane_value xs i) (Frame.lane_value ys i))
  | Plural xs, FScalar y ->
      map_active ~mask (fun i -> f (Frame.lane_value xs i) y)
  | FScalar x, Plural ys ->
      map_active ~mask (fun i -> f x (Frame.lane_value ys i))
  | _ -> Errors.runtime_error "array operand in a lane-wise operation"

let lift1 ~(mask : bool array) f a =
  match a with
  | FScalar x -> FScalar (f x)
  | Plural xs -> map_active ~mask (fun i -> f (Frame.lane_value xs i))
  | FArr _ -> Errors.runtime_error "array operand in a lane-wise operation"

(** The lanes a plural exposes when it escapes into a binding or a
    procedure: a private copy, with an inert [VInt 0] on every inactive
    lane unless [exact] (a variable read or a range, whose lanes all
    hold real contents). *)
let expose ~exact ~(mask : bool array) (l : Frame.lanes) : Frame.lanes =
  if exact || all_active mask then Frame.copy_lanes l
  else
    let p = Array.length mask in
    match l with
    | Frame.LInt a ->
        let r = Array.make p 0 in
        Scalar_ops.int_blit ~mask r a;
        Frame.LInt r
    | _ ->
        let r = Array.make p (VInt 0) in
        for i = 0 to p - 1 do
          if mask.(i) then r.(i) <- Frame.lane_value l i
        done;
        Frame.lanes_of_values r

(** Witness value used to type a reduction's identity element: lane 0 of
    a plural, the scalar itself otherwise.  Lane 0 of a computed plural
    is the inert [VInt 0] when it is inactive; [exact] plurals (variable
    reads, ranges) expose their stored lane 0. *)
let witness ~exact ~(mask : bool array) = function
  | FScalar s -> s
  | Plural l ->
      if Frame.lanes_length l = 0 then VInt 0
      else if exact || mask.(0) then Frame.lane_value l 0
      else VInt 0
  | FArr _ -> VInt 0

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

(** Reduce a plural value over the active lanes through the boxed view.
    [empty] is returned when no lane is active.

    The fold follows the canonical chunked merge tree shared by all
    engines (see [Pool]): one partial per [Pool.chunk]-lane chunk, each
    initialized at its first active lane, then the non-empty partials are
    merged left-to-right in ascending chunk order.  The chunk grid
    depends only on [p], so a float SUM is bitwise identical whether the
    lanes are folded here, by the unboxed folds of [reduction], by the
    serial compiled engine, or by the parallel engine at any jobs
    count. *)
let reduce ~(mask : bool array) ~empty f v =
  match v with
  | Plural l ->
      let p = Array.length mask in
      let acc = ref empty and have_acc = ref false in
      for c = 0 to Pool.nchunks p - 1 do
        let l0 = c * Pool.chunk and h = min p ((c + 1) * Pool.chunk) in
        let part = ref empty and have_part = ref false in
        for i = l0 to h - 1 do
          if mask.(i) then
            if !have_part then part := f !part (Frame.lane_value l i)
            else begin
              part := Frame.lane_value l i;
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

(** The global reduction [key] (["any"], ["all"], ["count"], ["maxval"],
    ["minval"], ["sum"]) of an evaluated argument over the active lanes
    of [mask].  LOGICAL lanes run ANY/ALL/COUNT and int/real lanes
    MAXVAL/MINVAL/SUM as unboxed loops; every other plural folds through
    the boxed view with [Scalar_ops.apply_binop], over the same chunk
    grid.  [exact] says whether the argument was a variable read or a
    range (see [witness]); [name] is the reduction as written, for
    messages. *)
let reduction ~(mask : bool array) ~exact ~name key v : value =
  let empty () = reduction_identity key (witness ~exact ~mask v) in
  let count_bools (a : bool array) =
    let n = ref 0 in
    Array.iteri (fun i b -> if mask.(i) && b then incr n) a;
    !n
  in
  match (key, v) with
  | _, FArr a -> (
      match Intrinsics.apply key [ VArr a ] with
      | Some r -> r
      | None -> Errors.runtime_error "bad reduction %s" name)
  | "any", Plural (Frame.LBool a) -> VBool (count_bools a > 0)
  | "all", Plural (Frame.LBool a) ->
      let ok = ref true in
      Array.iteri (fun i b -> if mask.(i) && not b then ok := false) a;
      VBool !ok
  | "count", Plural (Frame.LBool a) -> VInt (count_bools a)
  | ("maxval" | "minval" | "sum"), Plural (Frame.LInt a) -> (
      match
        Scalar_ops.int_reduce ~chunk:Pool.chunk ~mask
          (Option.get (Scalar_ops.fold_of_key key))
          a
      with
      | Some r -> VInt r
      | None -> empty ())
  | ("maxval" | "minval" | "sum"), Plural (Frame.LReal a) -> (
      match
        Scalar_ops.real_reduce ~chunk:Pool.chunk ~mask
          (Option.get (Scalar_ops.fold_of_key key))
          a
      with
      | Some r -> VReal r
      | None -> empty ())
  | "any", _ ->
      reduce ~mask ~empty:(VBool false)
        (fun a b -> VBool (as_bool a || as_bool b))
        v
  | "all", _ ->
      reduce ~mask ~empty:(VBool true)
        (fun a b -> VBool (as_bool a && as_bool b))
        v
  | "count", Plural l ->
      let n = ref 0 in
      Array.iteri
        (fun i active ->
          if active && as_bool (Frame.lane_value l i) then incr n)
        mask;
      VInt !n
  | "count", FScalar s ->
      VInt (if as_bool s then count_bools mask else 0)
  | "maxval", _ ->
      reduce ~mask ~empty:(empty ())
        (fun a b ->
          if as_bool (Scalar_ops.apply_binop Ast.Gt a b) then a else b)
        v
  | "minval", _ ->
      reduce ~mask ~empty:(empty ())
        (fun a b ->
          if as_bool (Scalar_ops.apply_binop Ast.Lt a b) then a else b)
        v
  | "sum", _ ->
      reduce ~mask ~empty:(empty ()) (Scalar_ops.apply_binop Ast.Add) v
  | _ -> Errors.runtime_error "unknown reduction %s" name
