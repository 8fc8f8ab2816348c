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

let as_front_scalar = function
  | FScalar v -> v
  | Plural _ -> Errors.runtime_error "plural value in a front-end context"
  | FArr _ -> Errors.runtime_error "array value in a scalar context"

(* Whether lane [i] of [mask] is active. *)
let[@inline] on (mask : Frame.Mask.t) i =
  Bytes.unsafe_get mask.Frame.Mask.bits i <> '\000'

(** Re-specialize boxed lanes by their {e active} lanes: when every
    active lane holds the same scalar type, the unboxed vector (inert
    zeros elsewhere), else the boxed lanes themselves. *)
let specialize ~(mask : Frame.Mask.t) (vs : value array) : Frame.lanes =
  let p = Array.length vs in
  let rec first i = if i >= p || on mask i then i else first (i + 1) in
  let f = first 0 in
  (* a lane of another type raises [Exit] *)
  try
    if f >= p then Frame.LBox vs
    else
      match vs.(f) with
      | VInt _ ->
          let r = Array.make p 0 in
          for i = f to p - 1 do
            if on mask i then
              r.(i) <- (match vs.(i) with VInt x -> x | _ -> raise Exit)
          done;
          Frame.LInt r
      | VReal _ ->
          let r = Array.make p 0.0 in
          for i = f to p - 1 do
            if on mask i then
              r.(i) <- (match vs.(i) with VReal x -> x | _ -> raise Exit)
          done;
          Frame.LReal r
      | VBool _ ->
          let r = Array.make p false in
          for i = f to p - 1 do
            if on mask i then
              r.(i) <- (match vs.(i) with VBool x -> x | _ -> raise Exit)
          done;
          Frame.LBool r
      | VArr _ -> Frame.LBox vs
  with Exit -> Frame.LBox vs

(** [f i] on every active lane [i], in ascending order (so the first
    failing active lane raises), re-specialized by the active lanes. *)
let map_active ~(mask : Frame.Mask.t) f =
  let p = Frame.Mask.length mask in
  let r = Array.make p (VInt 0) in
  for i = 0 to p - 1 do
    if on mask i then r.(i) <- f i
  done;
  specialize ~mask r

(** The lanes a plural exposes when it escapes into a binding or a
    procedure: a private copy, with an inert [VInt 0] on every inactive
    lane unless [exact] (a variable read or a range, whose lanes all
    hold real contents). *)
let expose ~exact ~(mask : Frame.Mask.t) (l : Frame.lanes) : Frame.lanes =
  let p = Frame.Mask.length mask in
  if exact || Frame.Mask.active mask = p then Frame.copy_lanes l
  else
    match l with
    | Frame.LInt a ->
        let r = Array.make p 0 in
        for i = 0 to p - 1 do
          if on mask i then r.(i) <- a.(i)
        done;
        Frame.LInt r
    | _ ->
        let r = Array.make p (VInt 0) in
        for i = 0 to p - 1 do
          if on mask i then r.(i) <- Frame.lane_value l i
        done;
        Frame.lanes_of_values r

(** The WHERE split: the active lanes of [mask] where the LOGICAL
    [cv] holds go to [mt], the others to [mf], each lane converted once
    in ascending order. *)
let split ~(mask : Frame.Mask.t) cv (mt : Frame.Mask.t) (mf : Frame.Mask.t) =
  Frame.Mask.clear mt;
  Frame.Mask.clear mf;
  let nt = ref 0 in
  for i = 0 to Frame.Mask.length mask - 1 do
    if on mask i then
      if
        match cv with
        | Plural (Frame.LBool a) -> a.(i)
        | _ -> as_bool (lane cv i)
      then begin
        Bytes.unsafe_set mt.Frame.Mask.bits i '\001';
        incr nt
      end
      else Bytes.unsafe_set mf.Frame.Mask.bits i '\001'
  done;
  mt.Frame.Mask.active_n <- !nt;
  mf.Frame.Mask.active_n <- Frame.Mask.active mask - !nt

(** A vector-controlled WHILE test (paper §2): the value every active
    lane agrees on, [false] when none is active. *)
let while_test ~(mask : Frame.Mask.t) (l : Frame.lanes) =
  let divergent () =
    Errors.runtime_error "vector-controlled WHILE with divergent lane values"
  in
  match l with
  | Frame.LBool a ->
      let seen = ref false and v0 = ref false in
      for i = 0 to Frame.Mask.length mask - 1 do
        if on mask i then
          if not !seen then begin
            v0 := a.(i);
            seen := true
          end
          else if a.(i) <> !v0 then divergent ()
      done;
      !seen && !v0
  | _ -> (
      let first = ref None in
      for i = 0 to Frame.Mask.length mask - 1 do
        if on mask i then
          let x = Frame.lane_value l i in
          match !first with
          | None -> first := Some x
          | Some v0 -> if not (Values.equal_value v0 x) then divergent ()
      done;
      match !first with None -> false | Some v0 -> as_bool v0)

(** Witness value used to type a reduction's identity element: lane 0 of
    a plural, the scalar itself otherwise.  Lane 0 of a computed plural
    is the inert [VInt 0] when it is inactive; [exact] plurals (variable
    reads, ranges) expose their stored lane 0. *)
let witness ~exact ~(mask : Frame.Mask.t) = function
  | FScalar s -> s
  | Plural l ->
      if Frame.lanes_length l = 0 then VInt 0
      else if exact || on mask 0 then Frame.lane_value l 0
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
    engines (see [Scalar_ops]): one partial per [Scalar_ops.chunk]-lane chunk,
    each initialized at its first active lane, then the non-empty
    partials are merged left-to-right in ascending chunk order.  The
    chunk grid depends only on [p], so a float SUM is bitwise identical
    whether the lanes are folded here or by the lane kernels of either
    engine. *)
let reduce ~(mask : Frame.Mask.t) ~empty f v =
  match v with
  | Plural l ->
      let p = Frame.Mask.length mask in
      let acc = ref empty and have_acc = ref false in
      for c = 0 to Scalar_ops.nchunks p - 1 do
        let l0 = c * Scalar_ops.chunk
        and h = min p ((c + 1) * Scalar_ops.chunk) in
        let part = ref empty and have_part = ref false in
        for i = l0 to h - 1 do
          if on mask i then
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
  | FScalar s -> if Frame.Mask.active mask > 0 then s else empty
  | FArr _ -> Errors.runtime_error "array operand in a plural reduction"

(** The reduction [key] of a plural or a front-end scalar through the
    boxed view, with [Scalar_ops.apply_binop]'s operators. *)
let boxed_reduction ~(mask : Frame.Mask.t) ~empty ~name key v : value =
  match key with
  | "any" ->
      reduce ~mask ~empty:(VBool false)
        (fun a b -> VBool (as_bool a || as_bool b))
        v
  | "all" ->
      reduce ~mask ~empty:(VBool true)
        (fun a b -> VBool (as_bool a && as_bool b))
        v
  | "count" -> (
      match v with
      | Plural l ->
          let n = ref 0 in
          for i = 0 to Frame.Mask.length mask - 1 do
            if on mask i && as_bool (Frame.lane_value l i) then incr n
          done;
          VInt !n
      | _ ->
          VInt
            (if as_bool (as_front_scalar v) then Frame.Mask.active mask
             else 0))
  | "maxval" ->
      reduce ~mask ~empty:(empty ())
        (fun a b ->
          if as_bool (Scalar_ops.apply_binop Ast.Gt a b) then a else b)
        v
  | "minval" ->
      reduce ~mask ~empty:(empty ())
        (fun a b ->
          if as_bool (Scalar_ops.apply_binop Ast.Lt a b) then a else b)
        v
  | "sum" -> reduce ~mask ~empty:(empty ()) (Scalar_ops.apply_binop Ast.Add) v
  | _ -> Errors.runtime_error "unknown reduction %s" name

(** The lanes of a typed plural as a reduction cell. *)
let cell = function
  | Plural (Frame.LInt a) -> Some (Scalar_ops.FI (Array.unsafe_get a))
  | Plural (Frame.LReal a) -> Some (Scalar_ops.FR (Array.unsafe_get a))
  | Plural (Frame.LBool a) -> Some (Scalar_ops.FB (Array.unsafe_get a))
  | _ -> None

(** The global reduction [key] (["any"], ["all"], ["count"], ["maxval"],
    ["minval"], ["sum"]) of an evaluated argument over the active lanes
    of [mask].  Typed lanes run the [Scalar_ops] kernel; every other
    plural folds through the boxed view over the same chunk grid.
    [exact] says whether the argument was a variable read or a range
    (see [witness]); [name] is the reduction as written, for
    messages. *)
let reduction ~(mask : Frame.Mask.t) ~exact ~name key v : value =
  let empty () = reduction_identity key (witness ~exact ~mask v) in
  match (v, cell v) with
  | _, Some c when Scalar_ops.reduces key c ->
      Scalar_ops.lane_reduce ~raising:false key c mask.Frame.Mask.bits empty
  | FScalar _, _ -> boxed_reduction ~mask ~empty ~name key v
  | FArr a, _ -> (
      match Intrinsics.apply key [ VArr a ] with
      | Some r -> r
      | None -> Errors.runtime_error "bad reduction %s" name)
  | Plural _, _ -> boxed_reduction ~mask ~empty ~name key v
