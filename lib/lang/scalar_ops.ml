(** Scalar operator semantics shared by every execution engine.

    Both the sequential interpreter ([Interp]) and the two SIMD engines
    (the tree-walking [Lf_simd.Vm] and the compiled [Lf_simd.Compile])
    must agree exactly on what [a + b] means for every value pair —
    promotion rules, division-by-zero behaviour, the integer/real [Pow]
    split.  Keeping a single definition here is what makes the engines
    provably interchangeable: there is one [apply_binop], not three.

    The definition is written once, as unboxed lane functions
    ([int_arith], [real_arith], the [compare]-based tests); the boxed
    [apply_binop] dispatches on the value tags and applies them, and the
    tree-walking engine's lane-vector loops below apply them to whole
    [int array] / [float array] / [bool array] vectors.  The loops take
    the operator as data and the lane functions are [@inline], so each
    loop is a jump on the operator per lane: no closure call, and no
    float boxing. *)

open Values

let mismatch a b =
  Errors.runtime_error "type mismatch in binary operation: %s vs %s"
    (type_name a) (type_name b)

(* ------------------------------------------------------------------ *)
(* Lane functions                                                      *)
(* ------------------------------------------------------------------ *)

(** [op] is one of [Add], [Sub], [Mul], [Div], [Mod]; division and MOD
    raise on a zero divisor. *)
let[@inline] int_arith op x y =
  match op with
  | Ast.Add -> x + y
  | Ast.Sub -> x - y
  | Ast.Mul -> x * y
  | Ast.Div ->
      if y = 0 then Errors.runtime_error "integer division by zero" else x / y
  | Ast.Mod -> if y = 0 then Errors.runtime_error "MOD by zero" else x mod y
  | _ -> invalid_arg "Scalar_ops.int_arith"

let[@inline] real_arith op (x : float) y =
  match op with
  | Ast.Add -> x +. y
  | Ast.Sub -> x -. y
  | Ast.Mul -> x *. y
  | Ast.Div -> x /. y
  | Ast.Mod -> Float.rem x y
  | _ -> invalid_arg "Scalar_ops.real_arith"

(** [op] is a comparison; [c] the result of [compare], so NaN = NaN. *)
let[@inline] cmp_test op c =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Ne -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | _ -> c >= 0

let[@inline] int_cmp op (x : int) y = cmp_test op (compare x y)
let[@inline] real_cmp op (x : float) y = cmp_test op (compare x y)

(** A comparison, or [.AND.] / [.OR.], on LOGICAL lanes. *)
let[@inline] bool_op op (x : bool) y =
  match op with
  | Ast.And -> x && y
  | Ast.Or -> x || y
  | _ -> cmp_test op (compare x y)

let is_arith = function
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> true
  | _ -> false

let is_cmp = function
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Boxed operators                                                     *)
(* ------------------------------------------------------------------ *)

let apply_binop op a b =
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul -> (
      match (a, b) with
      | VInt x, VInt y -> VInt (int_arith op x y)
      | VReal x, VReal y -> VReal (real_arith op x y)
      | VInt x, VReal y -> VReal (real_arith op (float_of_int x) y)
      | VReal x, VInt y -> VReal (real_arith op x (float_of_int y))
      | VBool _, VBool _ -> Errors.runtime_error "arithmetic on LOGICAL"
      | _ -> mismatch a b)
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      match (a, b) with
      | VInt x, VInt y -> VBool (int_cmp op x y)
      | VReal x, VReal y -> VBool (real_cmp op x y)
      | VInt x, VReal y -> VBool (real_cmp op (float_of_int x) y)
      | VReal x, VInt y -> VBool (real_cmp op x (float_of_int y))
      | VBool x, VBool y -> VBool (bool_op op x y)
      | _ -> mismatch a b)
  | Ast.Div | Ast.Mod -> (
      match (a, b) with
      | VInt x, VInt y -> VInt (int_arith op x y)
      | _ ->
          (* the right operand converts first: its error wins *)
          let y = as_float b in
          VReal (real_arith op (as_float a) y))
  | Ast.Pow -> (
      match (a, b) with
      | VInt x, VInt y when y >= 0 ->
          let rec go acc n = if n = 0 then acc else go (acc * x) (n - 1) in
          VInt (go 1 y)
      | _ -> VReal (Float.pow (as_float a) (as_float b)))
  | Ast.And -> VBool (as_bool a && as_bool b)
  | Ast.Or -> VBool (as_bool a || as_bool b)

let apply_unop op v =
  match (op, v) with
  | Ast.Neg, VInt n -> VInt (-n)
  | Ast.Neg, VReal f -> VReal (-.f)
  | Ast.Not, VBool b -> VBool (not b)
  | _, VArr _ -> Errors.runtime_error "unlifted unary op on array"
  | _ ->
      Errors.runtime_error "bad operand %s for unary operation" (type_name v)

(* ------------------------------------------------------------------ *)
(* Lane-vector loops                                                   *)
(* ------------------------------------------------------------------ *)

(* [r.(i) <- f x.(i) y.(i)] on the lanes [mask] marks, ascending, so the
   first failing active lane raises.  An operand is a lane vector or a
   one-cell array broadcasting a front-end scalar: lane [i] reads cell
   [i land bcast v], which is 0 for a one-cell array (at p = 1 both
   readings agree).  Inactive result lanes keep what [r] held. *)

let[@inline] bcast a = if Array.length a = 1 then 0 else -1

let int_map2 ~(mask : bool array) op (r : int array) (x : int array)
    (y : int array) =
  let kx = bcast x and ky = bcast y in
  for i = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask i then
      Array.unsafe_set r i
        (int_arith op
           (Array.unsafe_get x (i land kx))
           (Array.unsafe_get y (i land ky)))
  done

let real_map2 ~(mask : bool array) op (r : float array) (x : float array)
    (y : float array) =
  let kx = bcast x and ky = bcast y in
  for i = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask i then
      Array.unsafe_set r i
        (real_arith op
           (Array.unsafe_get x (i land kx))
           (Array.unsafe_get y (i land ky)))
  done

let int_cmp2 ~(mask : bool array) op (r : bool array) (x : int array)
    (y : int array) =
  let kx = bcast x and ky = bcast y in
  for i = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask i then
      Array.unsafe_set r i
        (int_cmp op
           (Array.unsafe_get x (i land kx))
           (Array.unsafe_get y (i land ky)))
  done

let real_cmp2 ~(mask : bool array) op (r : bool array) (x : float array)
    (y : float array) =
  let kx = bcast x and ky = bcast y in
  for i = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask i then
      Array.unsafe_set r i
        (real_cmp op
           (Array.unsafe_get x (i land kx))
           (Array.unsafe_get y (i land ky)))
  done

let bool_map2 ~(mask : bool array) op (r : bool array) (x : bool array)
    (y : bool array) =
  let kx = bcast x and ky = bcast y in
  for i = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask i then
      Array.unsafe_set r i
        (bool_op op
           (Array.unsafe_get x (i land kx))
           (Array.unsafe_get y (i land ky)))
  done

(** Int lanes (or a broadcast cell) promoted to real. *)
let to_real (x : int array) =
  let r = Array.make (Array.length x) 0.0 in
  for i = 0 to Array.length x - 1 do
    Array.unsafe_set r i (float_of_int (Array.unsafe_get x i))
  done;
  r

(** Unary minus and [.NOT.] on the active lanes. *)
let int_neg ~(mask : bool array) (r : int array) (x : int array) =
  for i = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask i then Array.unsafe_set r i (-Array.unsafe_get x i)
  done

let real_neg ~(mask : bool array) (r : float array) (x : float array) =
  for i = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask i then
      Array.unsafe_set r i (-.Array.unsafe_get x i)
  done

let bool_not ~(mask : bool array) (r : bool array) (x : bool array) =
  for i = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask i then
      Array.unsafe_set r i (not (Array.unsafe_get x i))
  done

(** Masked copy [r.(i) <- x.(i)] (a broadcast [x] fills), one per lane
    type so the float copy moves unboxed floats. *)
let int_blit ~(mask : bool array) (r : int array) (x : int array) =
  let kx = bcast x in
  for i = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask i then
      Array.unsafe_set r i (Array.unsafe_get x (i land kx))
  done

let real_blit ~(mask : bool array) (r : float array) (x : float array) =
  let kx = bcast x in
  for i = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask i then
      Array.unsafe_set r i (Array.unsafe_get x (i land kx))
  done

let bool_blit ~(mask : bool array) (r : bool array) (x : bool array) =
  let kx = bcast x in
  for i = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask i then
      Array.unsafe_set r i (Array.unsafe_get x (i land kx))
  done

(** The MAXVAL / MINVAL / SUM folds on unboxed lanes, with the boxed
    fold's operators: SUM adds, MAXVAL (MINVAL) keeps the accumulator
    while it compares greater (less). *)
type fold = Fold_sum | Fold_max | Fold_min

let fold_of_key = function
  | "sum" -> Some Fold_sum
  | "maxval" -> Some Fold_max
  | "minval" -> Some Fold_min
  | _ -> None

let[@inline] int_fold r a x =
  match r with
  | Fold_sum -> int_arith Ast.Add a x
  | Fold_max -> if int_cmp Ast.Gt a x then a else x
  | Fold_min -> if int_cmp Ast.Lt a x then a else x

let[@inline] real_fold r a x =
  match r with
  | Fold_sum -> real_arith Ast.Add a x
  | Fold_max -> if real_cmp Ast.Gt a x then a else x
  | Fold_min -> if real_cmp Ast.Lt a x then a else x

(* The chunked fold: one partial per [chunk]-lane chunk, seeded at its
   first active lane, then the non-empty partials merged left to right
   in ascending chunk order; [None] when no lane is active. *)

let int_reduce ~chunk ~(mask : bool array) r (x : int array) =
  let p = Array.length mask in
  let acc = ref 0 and have_acc = ref false in
  let c = ref 0 in
  while !c < p do
    let h = min p (!c + chunk) in
    let part = ref 0 and have_part = ref false in
    for i = !c to h - 1 do
      if Array.unsafe_get mask i then
        if !have_part then part := int_fold r !part (Array.unsafe_get x i)
        else begin
          part := Array.unsafe_get x i;
          have_part := true
        end
    done;
    if !have_part then
      if !have_acc then acc := int_fold r !acc !part
      else begin
        acc := !part;
        have_acc := true
      end;
    c := h
  done;
  if !have_acc then Some !acc else None

let real_reduce ~chunk ~(mask : bool array) r (x : float array) =
  let p = Array.length mask in
  let acc = ref 0.0 and have_acc = ref false in
  let c = ref 0 in
  while !c < p do
    let h = min p (!c + chunk) in
    let part = ref 0.0 and have_part = ref false in
    for i = !c to h - 1 do
      if Array.unsafe_get mask i then
        if !have_part then part := real_fold r !part (Array.unsafe_get x i)
        else begin
          part := Array.unsafe_get x i;
          have_part := true
        end
    done;
    if !have_part then
      if !have_acc then acc := real_fold r !acc !part
      else begin
        acc := !part;
        have_acc := true
      end;
    c := h
  done;
  if !have_acc then Some !acc else None
