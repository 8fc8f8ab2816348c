(** Intrinsic functions shared by the sequential interpreter and the SIMD
    VM front end, and the lane kernels of the numeric ones.  Their
    semantics is written once, as [@inline] lane functions: the boxed
    [numeric2] and [resolve] apply them to scalars, the kernels at the end
    of this module to whole vectors (the layout rule of [Scalar_ops]). *)

open Values

(* The two-operand numeric intrinsics: [Stdlib.max] / [Stdlib.min] /
   [mod] on integers, [Float.max] / [Float.min] / [Float.rem] on reals
   (MAX and MIN written out below, to the same results). *)
type num2 = Max | Min | Mod

let num2_name = function Max -> "max" | Min -> "min" | Mod -> "mod"

let[@inline] int_num2 op x y =
  match op with
  | Max -> if x >= y then x else y
  | Min -> if x <= y then x else y
  | Mod -> if y = 0 then Errors.runtime_error "MOD by zero" else x mod y

(* [Float.max] and [Float.min] as Stdlib writes them — a NaN operand
   wins, and -0.0 is below 0.0 — without Stdlib's C [sign_bit] call on
   every lane where [y > x] fails.  [y_above x y]: y > x, or y = x with
   only x's sign bit set.  Sign bits only decide between two zeros or
   between NaNs, so only those lanes read them ([Int64.bits_of_float] is
   a C call too), and a MAX/MIN lane loop makes no call on ordered,
   distinct or non-zero operands. *)
let[@inline] neg (x : float) = Int64.bits_of_float x < 0L

let[@inline] y_above (x : float) y =
  if y > x then true
  else if y < x || (y = x && x <> 0.0) then false
  else (not (neg y)) && neg x

let[@inline] real_num2 op (x : float) y =
  match op with
  | Max ->
      if y_above x y then if x <> x then x else y
      else if y <> y then y
      else x
  | Min ->
      if y_above x y then if y <> y then y else x
      else if x <> x then x
      else y
  | Mod -> Float.rem x y

(* The one-operand real intrinsics (ABS also has an integer form). *)
type num1 = Sqrt | Exp | Abs | Real

let[@inline] real_num1 op x =
  match op with
  | Sqrt -> Float.sqrt x
  | Exp -> Float.exp x
  | Abs -> Float.abs x
  | Real -> x

(* INT / NINT: a real truncated or rounded to an integer. *)
let[@inline] int_of_real ~round x =
  int_of_float (if round then Float.round x else Float.trunc x)

let numeric2 op a b =
  match (a, b) with
  | VInt x, VInt y -> VInt (int_num2 op x y)
  | (VInt _ | VReal _), (VInt _ | VReal _) ->
      VReal (real_num2 op (as_float a) (as_float b))
  | _ ->
      Errors.runtime_error "%s: expected numeric scalars, got %s and %s"
        (num2_name op) (type_name a) (type_name b)

let fold1 name f d =
  if Array.length d = 0 then Errors.runtime_error "%s of empty array" name
  else Array.fold_left f d.(0) (Array.sub d 1 (Array.length d - 1))

let fold_numeric name fi fr = function
  | AInt a -> VInt (fold1 name fi (Nd.to_array a))
  | AReal a -> VReal (fold1 name fr (Nd.to_array a))
  | a ->
      Errors.runtime_error "%s: expected numeric array, got %s" name
        (type_name (VArr a))

let names =
  [ "max"; "min"; "abs"; "mod"; "sqrt"; "exp"; "real"; "int"; "nint";
    "any"; "all"; "count"; "maxval"; "minval"; "sum"; "size"; "merge";
    "vector" ]

let name_table =
  let t = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace t n ()) names;
  t

(* Parsed identifiers are already lower-case, so only a name holding an
   upper-case letter pays for a lowered copy. *)
let rec has_upper s i =
  i < String.length s
  &&
  let c = String.unsafe_get s i in
  (c >= 'A' && c <= 'Z') || has_upper s (i + 1)

let key name = if has_upper name 0 then String.lowercase_ascii name else name

let is_intrinsic name = Hashtbl.mem name_table (key name)

(* Does [f] spell the lower-case [w] (of [f]'s length) in any case? *)
let rec spells f w i =
  i = String.length w
  || Char.lowercase_ascii (String.unsafe_get f i) = String.unsafe_get w i
     && spells f w (i + 1)

let is_reduction f =
  match String.length f with
  | 3 -> spells f "sum" 0 || spells f "any" 0 || spells f "all" 0
  | 5 -> spells f "count" 0
  | 6 -> spells f "maxval" 0 || spells f "minval" 0
  | _ -> false

(* MAXVAL / MINVAL: one array or scalar *)
let reduction red fi fr = function
  | [ VArr a ] -> Some (fold_numeric red fi fr a)
  | [ ((VInt _ | VReal _) as v) ] -> Some v
  | _ -> None

(* MAX / MIN: two or more scalars, else as MAXVAL / MINVAL *)
let extremum op red fi fr = function
  | [ a; b ] -> Some (numeric2 op a b)
  | _ :: _ :: _ as args ->
      Some (List.fold_left (numeric2 op) (List.hd args) (List.tl args))
  | args -> reduction red fi fr args

(* ANY / ALL / COUNT: a scalar LOGICAL, else exactly one LOGICAL array *)
let logical name key scalar over = function
  | [ VBool b ] -> Some (scalar b)
  | args -> (
      let nargs = List.length args in
      if nargs <> 1 then
        Errors.runtime_error "%s expects %d argument(s), got %d" name 1 nargs;
      match as_arr (List.hd args) with
      | ABool a -> Some (over a)
      | a ->
          Errors.runtime_error "%s: expected LOGICAL array, got %s" key
            (type_name (VArr a)))

let real1 f = function [ v ] -> Some (VReal (f (as_float v))) | _ -> None

let int1 ~round = function
  | [ v ] -> Some (VInt (int_of_real ~round (as_float v)))
  | _ -> None

(* built once, so resolving a name allocates nothing (ANY / ALL / COUNT
   capture the name for their arity message) *)
let max_fn = extremum Max "maxval" max Float.max
let min_fn = extremum Min "minval" min Float.min
let maxval_fn = reduction "maxval" max Float.max
let minval_fn = reduction "minval" min Float.min
let sqrt_fn = real1 (real_num1 Sqrt)
let exp_fn = real1 (real_num1 Exp)
let real_fn = real1 (real_num1 Real)
let int_fn = int1 ~round:false
let nint_fn = int1 ~round:true
let not_intrinsic (_ : value list) : value option = None

(** Resolve intrinsic [name] once (case-insensitively) to the function
    of its evaluated arguments; see the interface. *)
let resolve name : value list -> value option =
  match key name with
  | "max" -> max_fn
  | "min" -> min_fn
  | "maxval" -> maxval_fn
  | "minval" -> minval_fn
  | "abs" -> (
      function
      | [ VInt n ] -> Some (VInt (abs n))
      | [ VReal f ] -> Some (VReal (real_num1 Abs f))
      | _ -> None)
  | "mod" -> ( function [ a; b ] -> Some (numeric2 Mod a b) | _ -> None)
  | "sqrt" -> sqrt_fn
  | "exp" -> exp_fn
  | "real" -> real_fn
  | "int" -> int_fn
  | "nint" -> nint_fn
  | "any" ->
      logical name "any" (fun b -> VBool b) (fun a -> VBool (Nd.exists Fun.id a))
  | "all" ->
      logical name "all"
        (fun b -> VBool b)
        (fun a -> VBool (Nd.for_all Fun.id a))
  | "count" ->
      logical name "count"
        (fun b -> VInt (if b then 1 else 0))
        (fun a -> VInt (Nd.fold (fun n b -> if b then n + 1 else n) 0 a))
  | "sum" -> (
      function
      | [ VArr a ] ->
          Some
            (match a with
            | AInt a -> VInt (Nd.fold ( + ) 0 a)
            | AReal a -> VReal (Nd.fold ( +. ) 0.0 a)
            | ABool _ -> Errors.runtime_error "sum of LOGICAL array")
      (* scalar degenerations: on one processor the reductions are the
         identity, which keeps SIMDized code meaningful sequentially *)
      | [ ((VInt _ | VReal _) as v) ] -> Some v
      | _ -> None)
  | "size" -> (
      function
      | [ VArr a ] -> Some (VInt (arr_size a))
      | [ VArr a; VInt d ] ->
          let dims = arr_dims a in
          if d < 1 || d > Array.length dims then
            Errors.runtime_error "size: dimension %d out of range" d
          else Some (VInt dims.(d - 1))
      | _ -> None)
  | "merge" -> ( function [ t; f; VBool c ] -> Some (if c then t else f) | _ -> None)
  | "vector" ->
      fun items ->
        (* [a, b, lo:hi, ...] literal; items are scalars or AInt ranges *)
        let expand = function
          | VInt n -> [ n ]
          | VArr (AInt a) -> Array.to_list (Nd.to_array a)
          | v ->
              Errors.runtime_error "vector literal: bad element %s"
                (type_name v)
        in
        let elems = List.concat_map expand items in
        Some (VArr (AInt (Nd.of_array (Array.of_list elems))))
  | _ -> not_intrinsic

(** Apply intrinsic [name]; [None] if [name] is not an intrinsic. *)
let apply name (args : value list) : value option = resolve name args

(* ------------------------------------------------------------------ *)
(* Lane kernels                                                        *)
(* ------------------------------------------------------------------ *)

(** The intrinsics with lane kernels, by lower-case name. *)
type lane_fn = Num1 of num1 | Num2 of num2 | To_int of bool

let lane_fn = function
  | "sqrt" -> Some (Num1 Sqrt)
  | "exp" -> Some (Num1 Exp)
  | "abs" -> Some (Num1 Abs)
  | "real" -> Some (Num1 Real)
  | "int" -> Some (To_int false)
  | "nint" -> Some (To_int true)
  | "max" -> Some (Num2 Max)
  | "min" -> Some (Num2 Min)
  | _ -> None

(* As [Scalar_ops]' kernels, with its unchecked lane access: the lanes
   [bp] marks (every lane for [Scalar_ops.all_lanes]) through the
   runner, ascending within a shard; an operand is a lane vector or a
   broadcast one-cell array.  [real_map1] and [real_map2] match the
   operator once, outside the loop; EXP (a C call) and REAL take [_]. *)

external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"
let all_lanes = Scalar_ops.all_lanes
let[@inline] on bp i = Bytes.unsafe_get bp i <> '\000'
let[@inline] bcast a = if Array.length a = 1 then 0 else -1

let[@inline] loop_num1 op bp (r : float array) (x : float array) lo hi =
  let all = bp == all_lanes and kx = bcast x in
  for i = lo to hi - 1 do
    if all || on bp i then r.!(i) <- real_num1 op x.!(i land kx)
  done

let real_map1 (run : Scalar_ops.run) bp op r x =
  match op with
  | Sqrt -> run (fun _ lo hi -> loop_num1 Sqrt bp r x lo hi)
  | Abs -> run (fun _ lo hi -> loop_num1 Abs bp r x lo hi)
  | _ -> run (fun _ lo hi -> loop_num1 op bp r x lo hi)

let int_abs (run : Scalar_ops.run) bp (r : int array) (x : int array) =
  run (fun _ lo hi ->
      let all = bp == all_lanes and kx = bcast x in
      for i = lo to hi - 1 do
        if all || on bp i then r.!(i) <- abs x.!(i land kx)
      done)

let to_int (run : Scalar_ops.run) bp ~round (r : int array) (x : float array)
    =
  run (fun _ lo hi ->
      let all = bp == all_lanes and kx = bcast x in
      for i = lo to hi - 1 do
        if all || on bp i then r.!(i) <- int_of_real ~round x.!(i land kx)
      done)

let int_map2 (run : Scalar_ops.run) bp op (r : int array) (x : int array)
    (y : int array) =
  run (fun _ lo hi ->
      let all = bp == all_lanes and kx = bcast x and ky = bcast y in
      for i = lo to hi - 1 do
        if all || on bp i then
          r.!(i) <- int_num2 op x.!(i land kx) y.!(i land ky)
      done)

let[@inline] loop_num2 op bp (r : float array) (x : float array)
    (y : float array) lo hi =
  let all = bp == all_lanes and kx = bcast x and ky = bcast y in
  for i = lo to hi - 1 do
    if all || on bp i then
      r.!(i) <- real_num2 op x.!(i land kx) y.!(i land ky)
  done

let real_map2 (run : Scalar_ops.run) bp op r x y =
  match op with
  | Max -> run (fun _ lo hi -> loop_num2 Max bp r x y lo hi)
  | Min -> run (fun _ lo hi -> loop_num2 Min bp r x y lo hi)
  | Mod -> run (fun _ lo hi -> loop_num2 Mod bp r x y lo hi)

(** The per-lane cell of a one-operand intrinsic, as its kernel. *)
let cell key (c : Scalar_ops.cell) : Scalar_ops.cell option =
  let real k = Option.map k (Scalar_ops.real_cell c) in
  match (lane_fn key, c) with
  | Some (Num1 Abs), FI f -> Some (FI (fun i -> abs (f i)))
  | _, FB _ -> None
  | Some (Num1 Real), _ -> real (fun f -> Scalar_ops.FR f)
  | Some (Num1 k), _ ->
      real (fun f -> Scalar_ops.FR (fun i -> real_num1 k (f i)))
  | Some (To_int round), _ ->
      real (fun f -> Scalar_ops.FI (fun i -> int_of_real ~round (f i)))
  | (Some (Num2 _) | None), _ -> None
