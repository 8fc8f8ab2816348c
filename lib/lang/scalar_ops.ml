(** Scalar operator semantics and the lane kernels of every engine
    ([Interp] and the SIMD VM's [Lf_simd.Compile]).  The semantics is
    written once, as [@inline] lane functions: the boxed [apply_binop]
    applies them to values and stays the oracle; a kernel matches its
    operator once per call, outside its loop, whose inlined lane function
    then tests no operator per lane.  Every typed lane loop sits here:
    dev builds pass [-opaque], so a lane function called from another
    module would box every float it returns, a few minor words per lane. *)

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

(* Unary minus and [.NOT.]; [None] is the plain copy of a masked store. *)
let[@inline] int_un op (x : int) =
  match op with
  | None -> x
  | Some Ast.Neg -> -x
  | Some Ast.Not -> invalid_arg "int_un"

let[@inline] real_un op (x : float) =
  match op with
  | None -> x
  | Some Ast.Neg -> -.x
  | Some Ast.Not -> invalid_arg "real_un"

let[@inline] bool_un op (x : bool) =
  match op with
  | None -> x
  | Some Ast.Not -> not x
  | Some Ast.Neg -> invalid_arg "bool_un"

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
(* Lane kernels                                                        *)
(* ------------------------------------------------------------------ *)

(* Each kernel is one monomorphic loop over the lanes [0, p), in
   ascending order, so a raising lane surfaces as the first failing
   active lane.  [bp] is an activity mask's bytes ([Frame.Mask.bits]
   layout: one byte per lane, ['\000'] inactive), or [all_lanes] for a
   pass over every lane; only the folds require a real mask.

   An operand is a lane vector or a one-cell array broadcasting a
   front-end scalar: lane [i] reads cell [i land bcast v], which is 0
   for a one-cell array (at p = 1 both readings agree).  A result may
   alias an operand: every loop reads lane [i] before writing it.
   Inactive result lanes keep what they held.

   A kernel with an operator writes its loop once, as an [@inline]
   body, and matches the operator once per call, outside the loop: each
   arm applies the body to a literal operator, whose [match] then folds
   away.  The [_] arm is the one generic loop, also for the operators
   that call out of the loop ([Float.rem] calls C, int [/] and MOD
   raise), since a call spills the loop's state on every lane.  A pass
   over every lane of two whole vectors needs no mask test and no
   broadcast [land]: [map2_{i,r}] give it a loop of its own. *)

(* Unchecked lane access; the primitive is specialised by the array's
   static type, so a [float array] is read and written unboxed. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let all_lanes = Bytes.empty
let[@inline] on bp i = Bytes.unsafe_get bp i <> '\000'
let[@inline] bcast a = if Array.length a = 1 then 0 else -1
let[@inline] whole bp x y =
  bp == all_lanes && Array.length x > 1 && Array.length y > 1

let[@inline] loop2_i op bp (r : int array) (x : int array) (y : int array)
    p =
  if whole bp x y then
    for i = 0 to p - 1 do r.!(i) <- int_arith op x.!(i) y.!(i) done
  else
    let all = bp == all_lanes and kx = bcast x and ky = bcast y in
    for i = 0 to p - 1 do
      if all || on bp i then
        r.!(i) <- int_arith op x.!(i land kx) y.!(i land ky)
    done

let map2_i p bp op r x y =
  match op with
  | Ast.Add -> loop2_i Ast.Add bp r x y p
  | Ast.Sub -> loop2_i Ast.Sub bp r x y p
  | Ast.Mul -> loop2_i Ast.Mul bp r x y p
  | _ -> loop2_i op bp r x y p

let[@inline] loop2_r op bp (r : float array) (x : float array)
    (y : float array) p =
  if whole bp x y then
    for i = 0 to p - 1 do r.!(i) <- real_arith op x.!(i) y.!(i) done
  else
    let all = bp == all_lanes and kx = bcast x and ky = bcast y in
    for i = 0 to p - 1 do
      if all || on bp i then
        r.!(i) <- real_arith op x.!(i land kx) y.!(i land ky)
    done

let map2_r p bp op r x y =
  match op with
  | Ast.Add -> loop2_r Ast.Add bp r x y p
  | Ast.Sub -> loop2_r Ast.Sub bp r x y p
  | Ast.Mul -> loop2_r Ast.Mul bp r x y p
  | Ast.Div -> loop2_r Ast.Div bp r x y p
  | _ -> loop2_r op bp r x y p

(* Comparisons and LOGICAL operators are total: they compute every
   lane.  [cmp_test] reads any operator but the first five as [Ge]. *)

let map2_b p op (r : bool array) (x : bool array) (y : bool array) =
  let kx = bcast x and ky = bcast y in
  for i = 0 to p - 1 do
    r.!(i) <- bool_op op x.!(i land kx) y.!(i land ky)
  done

let[@inline] loopc_i op (r : bool array) (x : int array) (y : int array) p =
  let kx = bcast x and ky = bcast y in
  for i = 0 to p - 1 do
    r.!(i) <- int_cmp op x.!(i land kx) y.!(i land ky)
  done

let cmp_i p op r x y =
  match op with
  | Ast.Eq -> loopc_i Ast.Eq r x y p
  | Ast.Ne -> loopc_i Ast.Ne r x y p
  | Ast.Lt -> loopc_i Ast.Lt r x y p
  | Ast.Le -> loopc_i Ast.Le r x y p
  | Ast.Gt -> loopc_i Ast.Gt r x y p
  | _ -> loopc_i Ast.Ge r x y p

let[@inline] loopc_r op (r : bool array) (x : float array) (y : float array)
    p =
  let kx = bcast x and ky = bcast y in
  for i = 0 to p - 1 do
    r.!(i) <- real_cmp op x.!(i land kx) y.!(i land ky)
  done

let cmp_r p op r x y =
  match op with
  | Ast.Eq -> loopc_r Ast.Eq r x y p
  | Ast.Ne -> loopc_r Ast.Ne r x y p
  | Ast.Lt -> loopc_r Ast.Lt r x y p
  | Ast.Le -> loopc_r Ast.Le r x y p
  | Ast.Gt -> loopc_r Ast.Gt r x y p
  | _ -> loopc_r Ast.Ge r x y p

let[@inline] loop1_i op bp (r : int array) (x : int array) p =
  let all = bp == all_lanes and kx = bcast x in
  for i = 0 to p - 1 do
    if all || on bp i then r.!(i) <- int_un op x.!(i land kx)
  done

let map1_i p bp op r x =
  match op with
  | None -> loop1_i None bp r x p
  | _ -> loop1_i op bp r x p

let[@inline] loop1_r op bp (r : float array) (x : float array) p =
  let all = bp == all_lanes and kx = bcast x in
  for i = 0 to p - 1 do
    if all || on bp i then r.!(i) <- real_un op x.!(i land kx)
  done

let map1_r p bp op r x =
  match op with
  | None -> loop1_r None bp r x p
  | _ -> loop1_r op bp r x p

let map1_b p bp op (r : bool array) (x : bool array) =
  let all = bp == all_lanes and kx = bcast x in
  for i = 0 to p - 1 do
    if all || on bp i then r.!(i) <- bool_un op x.!(i land kx)
  done

let to_real (x : int array) =
  let r = Array.make (Array.length x) 0.0 in
  for i = 0 to Array.length x - 1 do r.!(i) <- float_of_int x.!(i) done;
  r

let fill_v p bp (r : value array) (f : int -> value) =
  let all = bp == all_lanes in
  for i = 0 to p - 1 do
    if all || on bp i then r.!(i) <- f i
  done

(* ------------------------------------------------------------------ *)
(* Gathers and scatters                                                *)
(* ------------------------------------------------------------------ *)

let extent (d : _ Nd.t) k =
  if k < Array.length d.Nd.dims then d.Nd.dims.(k) else 1

(** Flat offset of the 1-based subscript [(j1, j2)] in a [d1 x d2]
    array (rank 1: [d2 = 1], [j2 = 1]), bounds-checked in dimension
    order like [Nd.linear_index]. *)
let[@inline] offset d1 d2 j1 j2 =
  if j1 < 1 || j1 > d1 then Nd.index_error j1 d1 1;
  if j2 < 1 || j2 > d2 then Nd.index_error j2 d2 2;
  j1 - 1 + ((j2 - 1) * d1)

(* The typed gathers and scatters check lane [l]'s subscript with
   [slot], which raises [Bad_lane l] where [offset] raises: a raise is
   no call, so the loop keeps its state in registers, and the handler
   outside the loop raises the lane's error through [offset].  A
   checked offset lies below [d1 * d2], which an [Nd.t]'s data covers,
   so the loop indexes the data unchecked. *)

exception Bad_lane of int

let[@inline] slot l d1 d2 j1 j2 =
  if j1 < 1 || j1 > d1 || j2 < 1 || j2 > d2 then raise_notrace (Bad_lane l);
  j1 - 1 + ((j2 - 1) * d1)

let bad_lane d1 d2 ix1 ix2 l =
  ignore (offset d1 d2 ix1.(l) ix2.(l land bcast ix2))

let gather_i p bp (r : int array) (d : int Nd.t) ix1 ix2 =
  let d1 = extent d 0 and d2 = extent d 1 and data = d.Nd.data in
  let all = bp == all_lanes and k2 = bcast ix2 in
  try
    for i = 0 to p - 1 do
      if all || on bp i then
        r.!(i) <- data.!(slot i d1 d2 ix1.!(i) ix2.!(i land k2))
    done
  with Bad_lane l -> bad_lane d1 d2 ix1 ix2 l

let gather_r p bp (r : float array) (d : float Nd.t) ix1 ix2 =
  let d1 = extent d 0 and d2 = extent d 1 and data = d.Nd.data in
  let all = bp == all_lanes and k2 = bcast ix2 in
  try
    for i = 0 to p - 1 do
      if all || on bp i then
        r.!(i) <- data.!(slot i d1 d2 ix1.!(i) ix2.!(i land k2))
    done
  with Bad_lane l -> bad_lane d1 d2 ix1 ix2 l

(* A scatter stores [x], or [op x y] (the merged scatter-accumulate). *)

let[@inline] store_i op bp (d : int Nd.t) ix1 ix2 (x : int array)
    (y : int array) p =
  let d1 = extent d 0 and d2 = extent d 1 and data = d.Nd.data in
  let all = bp == all_lanes in
  let k2 = bcast ix2 and kx = bcast x and ky = bcast y in
  try
    for i = 0 to p - 1 do
      if all || on bp i then begin
        let o = slot i d1 d2 ix1.!(i) ix2.!(i land k2) in
        let v = x.!(i land kx) in
        data.!(o) <-
          (match op with
          | None -> v
          | Some op -> int_arith op v y.!(i land ky))
      end
    done
  with Bad_lane l -> bad_lane d1 d2 ix1 ix2 l

let scatter_i p bp d ix1 ix2 op x y =
  match op with
  | None -> store_i None bp d ix1 ix2 x y p
  | Some Ast.Add ->
      store_i (Some Ast.Add) bp d ix1 ix2 x y p
  | _ -> store_i op bp d ix1 ix2 x y p

let[@inline] store_r op bp (d : float Nd.t) ix1 ix2 (x : float array)
    (y : float array) p =
  let d1 = extent d 0 and d2 = extent d 1 and data = d.Nd.data in
  let all = bp == all_lanes in
  let k2 = bcast ix2 and kx = bcast x and ky = bcast y in
  try
    for i = 0 to p - 1 do
      if all || on bp i then begin
        let o = slot i d1 d2 ix1.!(i) ix2.!(i land k2) in
        let v = x.!(i land kx) in
        data.!(o) <-
          (match op with
          | None -> v
          | Some op -> real_arith op v y.!(i land ky))
      end
    done
  with Bad_lane l -> bad_lane d1 d2 ix1 ix2 l

let scatter_r p bp d ix1 ix2 op x y =
  match op with
  | None -> store_r None bp d ix1 ix2 x y p
  | Some Ast.Add ->
      store_r (Some Ast.Add) bp d ix1 ix2 x y p
  | _ -> store_r op bp d ix1 ix2 x y p

(* ------------------------------------------------------------------ *)
(* Per-lane cells                                                      *)
(* ------------------------------------------------------------------ *)

type cell = FI of (int -> int) | FR of (int -> float) | FB of (int -> bool)

let real_cell = function
  | FI f -> Some (fun i -> float_of_int (f i))
  | FR f -> Some f
  | FB _ -> None

let reals x y k =
  match (real_cell x, real_cell y) with
  | Some f, Some g -> Some (k f g)
  | _ -> None

let binop_cell op x y =
  match (x, y) with
  | FI f, FI g when is_arith op -> Some (FI (fun i -> int_arith op (f i) (g i)))
  | FI f, FI g when is_cmp op -> Some (FB (fun i -> int_cmp op (f i) (g i)))
  | FB f, FB g when is_cmp op || op = Ast.And || op = Ast.Or ->
      Some (FB (fun i -> bool_op op (f i) (g i)))
  | _ when is_arith op ->
      reals x y (fun f g -> FR (fun i -> real_arith op (f i) (g i)))
  | _ when is_cmp op ->
      reals x y (fun f g -> FB (fun i -> real_cmp op (f i) (g i)))
  | _ -> None

let unop_cell op x =
  match (op, x) with
  | Ast.Neg, FI f -> Some (FI (fun i -> -f i))
  | Ast.Neg, FR f -> Some (FR (fun i -> -.f i))
  | Ast.Not, FB f -> Some (FB (fun i -> not (f i)))
  | _ -> None

let gather_cell (a : arr) f1 f2 =
  let offsets d =
    let d1 = extent d 0 and d2 = extent d 1 in
    match f2 with
    | None -> fun i -> offset d1 d2 (f1 i) 1
    | Some f2 ->
        fun i ->
          let j1 = f1 i in
          let j2 = f2 i in
          offset d1 d2 j1 j2
  in
  match a with
  | AInt d ->
      let off = offsets d and data = d.Nd.data in
      Some (FI (fun i -> data.(off i)))
  | AReal d ->
      let off = offsets d and data = d.Nd.data in
      Some (FR (fun i -> data.(off i)))
  | ABool _ -> None

(* ------------------------------------------------------------------ *)
(* Reductions                                                          *)
(* ------------------------------------------------------------------ *)

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

let chunk = 64
let nchunks p = (p + chunk - 1) / chunk

(* The chunked fold of [get] over the lanes [bp] marks: each chunk's
   partial starts at its first marked lane, and each non-empty partial
   is merged into the accumulator in ascending chunk order, the left
   fold of the partials.  [empty ()] when no lane is marked. *)
let fold_i r bp (get : int -> int) p empty =
  let acc = ref 0 and have = ref false in
  for c = 0 to nchunks p - 1 do
    let part = ref 0 and seen = ref false in
    for i = c * chunk to min p ((c + 1) * chunk) - 1 do
      if on bp i then
        if !seen then part := int_fold r !part (get i)
        else begin
          part := get i;
          seen := true
        end
    done;
    if !seen then
      if !have then acc := int_fold r !acc !part
      else begin
        acc := !part;
        have := true
      end
  done;
  if !have then VInt !acc else empty ()

let fold_r r bp (get : int -> float) p empty =
  let acc = ref 0.0 and have = ref false in
  for c = 0 to nchunks p - 1 do
    let part = ref 0.0 and seen = ref false in
    for i = c * chunk to min p ((c + 1) * chunk) - 1 do
      if on bp i then
        if !seen then part := real_fold r !part (get i)
        else begin
          part := get i;
          seen := true
        end
    done;
    if !seen then
      if !have then acc := real_fold r !acc !part
      else begin
        acc := !part;
        have := true
      end
  done;
  if !have then VReal !acc else empty ()

(* ANY over the marked lanes.  A raising [f] visits every marked lane
   (a raising lane must still raise); a raise-free one stops at the
   first true lane, where the OR-fold order is unobservable. *)
let any_b p bp ~raising (f : int -> bool) =
  let r = ref false and i = ref 0 in
  while (raising || not !r) && !i < p do
    if on bp !i && f !i then r := true;
    incr i
  done;
  !r

let reduces key cell =
  match (fold_of_key key, cell) with
  | Some _, (FI _ | FR _) -> true
  | None, FB _ -> key = "count" || key = "any" || key = "all"
  | _ -> false

let no_lane () = VInt 0

let lane_reduce ~raising key cell bp empty =
  let p = Bytes.length bp in
  match (fold_of_key key, cell) with
  | Some r, FI f -> fold_i r bp f p empty
  | Some r, FR f -> fold_r r bp f p empty
  | None, FB f -> (
      match key with
      | "count" -> fold_i Fold_sum bp (fun i -> Bool.to_int (f i)) p no_lane
      | "any" -> VBool (any_b p bp ~raising f)
      | "all" -> VBool (not (any_b p bp ~raising (fun i -> not (f i))))
      | _ -> invalid_arg "Scalar_ops.lane_reduce")
  | _ -> invalid_arg "Scalar_ops.lane_reduce"
