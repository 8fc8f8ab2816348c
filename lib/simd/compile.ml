(** The compiled execution engine of the SIMD VM.

    [compile] lowers an F90simd block into a tree of OCaml closures,
    resolving every variable reference to a dense [Frame] slot at compile
    time (no hashtable lookups on the hot path), keeping plural int/real
    scalars unboxed, and threading the activity mask as a reusable
    [Frame.Mask] bitset with a cached active count, so WHERE nesting and
    step accounting allocate nothing per vector instruction.

    The contract is {e bit identity} with the tree-walker ([Vm.exec]): the
    same final variable state, the same [Metrics] counters, the same error
    messages raised at the same program points.  That includes the
    tree-walker's quirks, which are deliberately replicated here:
    - a plural [IF] is executed as [WHERE] {e after} evaluating its
      condition once for dispatch, so the condition is evaluated twice and
      any reductions inside it are counted twice;
    - inactive lanes of freshly bound plurals are inert [VInt 0];
    - scalar subscripts are converted with [as_int] eagerly, per-lane
      subscripts lazily per active lane;
    - user functions are looked up before intrinsics, reductions before
      both.

    One relaxation, shared with the tree-walker: the inactive lanes of a
    {e computed} temporary are unspecified (the unboxed fast paths here
    may compute all lanes, the tree-walker leaves an inert zero).  Every
    point where they can escape — fresh binds, external-procedure
    arguments, a reduction's witness — reads them as the inert
    [VInt 0].

    The engine is parameterized over a [host] record of callbacks
    (metrics, fuel, procedure/function lookup, frame<->VM
    synchronization), which keeps this module below [Vm] in the
    dependency order. *)

open Lf_lang
open Lf_lang.Ast
open Values

type host = {
  h_p : int;  (** number of lanes *)
  h_tick_vector :
    loc:Errors.pos -> kind:Lf_obs.Trace.kind -> Frame.Mask.t -> unit;
      (** one vector step (may raise on fuel); [loc] and [kind] are static
          per call site, and the active count is cached in the mask, so
          trace emission costs the host one branch when disabled *)
  h_tick_frontend : unit -> unit;  (** one control-unit step *)
  h_reduction : loc:Errors.pos -> Frame.Mask.t -> unit;
      (** count a global reduction tree *)
  h_call_metric : string -> unit;  (** count an external CALL *)
  h_find_proc : string -> (mask:bool array -> Pval.t list -> unit) option;
  h_find_func : string -> ((value list -> value) * bool) option;
      (** user function and its purity: only [pure] functions may be
          applied lane-parallel (impure ones keep the serial ascending
          per-lane application order) *)
  h_observer : unit -> (mask:bool array -> stmt -> unit) option;
  h_flush : unit -> unit;  (** frame -> VM variable table *)
  h_import : unit -> unit;  (** VM variable table -> frame *)
}

(* Runtime optimizer telemetry (section [Opt]).  The counters tick
   on the control thread only, once per fused construct {e executed}
   (not per lane and not per shard), so they are deterministic across
   jobs; they vary with [-O] by construction.  [opt.short_circuits]
   counts executions of short-circuit-{e eligible} fused any/all plans
   (raise-free boolean regions) rather than lanes actually skipped —
   the latter depends on shard geometry. *)
module Stats = Lf_obs.Stats

(* No elementwise region runs any more, so this key always reads 0.  It
   stays registered because perfbench's [--trace 1] mode reads it from
   the stats dump and sums it into [fused_runs]. *)
let _ = Stats.counter ~section:Stats.Opt "opt.fused_region_runs"

let st_reduce_runs = Stats.counter ~section:Stats.Opt "opt.fused_reduce_runs"
let st_short_circuits = Stats.counter ~section:Stats.Opt "opt.short_circuits"

let st_accum_merged =
  Stats.counter ~section:Stats.Opt "opt.accum_merged_runs"

(* [-O2] range-analysis telemetry, same control-thread discipline:
   [opt.nocheck_runs] counts executions of a gather/scatter loop whose
   bounds checks the claim discharged, [opt.bounds_checks_discharged]
   the per-lane checks those executions skipped (active lanes times
   discharged dimensions). *)
module Range = Lf_analysis.Range

let st_nocheck_runs = Stats.counter ~section:Stats.Opt "opt.nocheck_runs"

let st_checks_discharged =
  Stats.counter ~section:Stats.Opt "opt.bounds_checks_discharged"

(* ------------------------------------------------------------------ *)
(* Runtime values                                                      *)
(* ------------------------------------------------------------------ *)

(** A compiled expression's result: front-end scalar / array, or a plural
    value in unboxed ([RI]/[RR]/[RB]) or boxed ([RP]) form. *)
type rv =
  | RS of value
  | RA of arr
  | RI of int array
  | RR of float array
  | RB of bool array
  | RP of value array

let rv_is_plural = function RS _ | RA _ -> false | _ -> true

(** Per-lane boxed view; front-end scalars broadcast (cf. [Pval.lane]). *)
let rv_lane v i =
  match v with
  | RS s -> s
  | RI a -> VInt a.(i)
  | RR a -> VReal a.(i)
  | RB a -> VBool a.(i)
  | RP a -> a.(i)
  | RA _ -> Errors.runtime_error "front-end array used as a plural value"

let rv_front_scalar = function
  | RS v -> v
  | RA _ -> Errors.runtime_error "array value in a scalar context"
  | RI _ | RR _ | RB _ | RP _ ->
      Errors.runtime_error "plural value in a front-end context"

let rv_front_int v = as_int (rv_front_scalar v)

(** Boxed [Pval] view of a procedure argument.  [exact] plurals (variable
    references, ranges) expose their true lane contents; computed plurals
    get the tree-walker's inert [VInt 0] outside the mask. *)
let rv_to_pval ~exact (m : Frame.Mask.t) v =
  match v with
  | RS s -> Pval.FScalar s
  | RA a -> Pval.FArr a
  | RI a when exact || Frame.Mask.active m = Array.length a ->
      Pval.Plural (Frame.LInt (Array.copy a))
  | RR a when exact || Frame.Mask.active m = Array.length a ->
      Pval.Plural (Frame.LReal (Array.copy a))
  | RB a when exact || Frame.Mask.active m = Array.length a ->
      Pval.Plural (Frame.LBool (Array.copy a))
  | _ ->
      let p = Frame.Mask.length m in
      Pval.Plural
        (Frame.lanes_of_values
           (Array.init p (fun i ->
                if exact || Frame.Mask.get m i then rv_lane v i else VInt 0)))

(* ------------------------------------------------------------------ *)
(* Generic (boxed) fallbacks — the exact [Pval.lift1]/[lift2] semantics *)
(* ------------------------------------------------------------------ *)

(* Both read operand lanes on the control thread: a join. *)
let box_lift1 exec (m : Frame.Mask.t) f v =
  Pool.sync exec;
  let p = Frame.Mask.length m in
  Array.init p (fun i ->
      if Frame.Mask.get m i then f (rv_lane v i) else VInt 0)

let box_lift2 exec (m : Frame.Mask.t) f a b =
  Pool.sync exec;
  let p = Frame.Mask.length m in
  Array.init p (fun i ->
      if Frame.Mask.get m i then f (rv_lane a i) (rv_lane b i) else VInt 0)

let first_active (m : Frame.Mask.t) =
  let n = Frame.Mask.length m in
  let rec go i = if i >= n || Frame.Mask.get m i then i else go (i + 1) in
  go 0

(* ------------------------------------------------------------------ *)
(* The operator table                                                  *)
(* ------------------------------------------------------------------ *)

(** A lane operation that can raise, by error identity.  A fused plan
    admits at most one distinct class: every instance of the same class
    raises the same message for the same lane inputs, so the fused
    per-lane order hits the same first-failing-lane (serial and
    lowest-shard alike) as the unfused per-operator passes.  Two
    distinct classes could surface the {e other} error first, so such
    regions fall back. *)
type rclass =
  | CDiv  (** integer division by zero *)
  | CMod  (** MOD by zero *)
  | CGather of int  (** bounds check of the gather op at this index *)

(** How the typed paths treat a binary operator.  Every typed path — the
    per-operator kernels, fused reductions, fused stores and merged
    scatter-accumulates — picks its kernel by [kind] and applies the
    operator through the lane functions below, so the fused paths type
    and compute exactly like the unfused dispatch: they run the same
    code.  Whatever the table does not cover (mismatched operand types,
    [**]) runs through the boxed [Scalar_ops] path. *)
type kind =
  | Arith  (** total on int and on real lanes *)
  | Raising of rclass  (** [/] and MOD: int lanes fault on a zero divisor *)
  | Cmp  (** int, real or bool lanes to bool, through [compare] *)
  | Logic  (** bool lanes *)
  | Boxed  (** [**]: the int/real result split is per lane *)

let kind = function
  | Add | Sub | Mul -> Arith
  | Div -> Raising CDiv
  | Mod -> Raising CMod
  | Eq | Ne | Lt | Le | Gt | Ge -> Cmp
  | And | Or -> Logic
  | Pow -> Boxed

(* The lane semantics of every operator, restating [Scalar_ops]' lane
   functions over this engine's kernels (the tree-walker runs
   [Scalar_ops]' own, so each engine checks the other).  The kernels
   take the operator as data; [@inline] compiles each call site to a
   jump on it per lane — no closure call and no float boxing in the
   loop. *)

let[@inline] int_lane op x y =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div ->
      if y = 0 then Errors.runtime_error "integer division by zero" else x / y
  | Mod -> if y = 0 then Errors.runtime_error "MOD by zero" else x mod y
  | Eq | Ne | Lt | Le | Gt | Ge | And | Or | Pow -> invalid_arg "int_lane"

let[@inline] real_lane op x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Mod -> Float.rem x y
  | Eq | Ne | Lt | Le | Gt | Ge | And | Or | Pow -> invalid_arg "real_lane"

(** A comparison tests the sign of [compare] on its (promoted) operands. *)
let[@inline] cmp_lane op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | Add | Sub | Mul | Div | Mod | And | Or | Pow -> invalid_arg "cmp_lane"

let[@inline] bool_lane op x y =
  match op with
  | And -> x && y
  | Or -> x || y
  | Eq | Ne | Lt | Le | Gt | Ge -> cmp_lane op (Bool.compare x y)
  | Add | Sub | Mul | Div | Mod | Pow -> invalid_arg "bool_lane"

(* Unary lanes; [None] is the plain copy of a masked store. *)
let[@inline] int_un op x =
  match op with None -> x | Some Neg -> -x | Some Not -> invalid_arg "int_un"

let[@inline] real_un op x =
  match op with None -> x | Some Neg -> -.x | Some Not -> invalid_arg "real_un"

let[@inline] bool_un op x =
  match op with
  | None -> x
  | Some Not -> not x
  | Some Neg -> invalid_arg "bool_un"

(** The reduction folds, on int and real lanes, through the operators:
    SUM adds, MAXVAL/MINVAL keep the accumulator while it compares
    greater/less. *)
type fold = Fold_sum | Fold_max | Fold_min

let fold_of_key = function
  | "sum" -> Some Fold_sum
  | "maxval" -> Some Fold_max
  | "minval" -> Some Fold_min
  | _ -> None

let[@inline] int_fold r a x =
  match r with
  | Fold_sum -> int_lane Add a x
  | Fold_max -> if cmp_lane Gt (Int.compare a x) then a else x
  | Fold_min -> if cmp_lane Lt (Int.compare a x) then a else x

let[@inline] real_fold r a x =
  match r with
  | Fold_sum -> real_lane Add a x
  | Fold_max -> if cmp_lane Gt (Float.compare a x) then a else x
  | Fold_min -> if cmp_lane Lt (Float.compare a x) then a else x

(* ------------------------------------------------------------------ *)
(* Lane kernels                                                        *)
(* ------------------------------------------------------------------ *)

(* The typed lane loops, once per element type; every dispatch site
   calls these.  Each loop is monomorphic and runs through [run]
   ([exec.x_run]: inline for the serial engines, an entry of the pending
   join region for the parallel one, which runs it per shard at the next
   [Pool.sync]).  Shards write disjoint index ranges of the result, so
   the loops need no further coordination; a shard that raises surfaces
   as the first-failing-lane error, exactly as the serial scan.  A
   result is only read on the control thread after a join.  [bp] is
   the activity mask's bytes, or [all_lanes] for a pass over every
   lane.

   A kernel operand is a lane vector or a one-cell array broadcasting a
   front-end scalar: lane [i] reads cell [i land bcast v], which is 0
   for a one-cell array (at p = 1 a lane vector is one cell too, and
   both readings agree).  Results may alias an operand: every loop
   reads lane [i] before writing it. *)

let all_lanes = Bytes.empty
let[@inline] bcast a = if Array.length a = 1 then 0 else -1
let is_int = function RI _ | RS (VInt _) -> true | _ -> false
let is_num = function RI _ | RR _ | RS (VInt _ | VReal _) -> true | _ -> false
let is_bool = function RB _ | RS (VBool _) -> true | _ -> false

let int_view = function
  | RI a -> a
  | RS (VInt n) -> [| n |]
  | _ -> invalid_arg "int_view"

(* int lanes promote into a fresh vector, a lane loop of its own: an
   operand of a mixed int/real operation *)
let real_view run = function
  | RR a -> a
  | RI a ->
      let r = Array.make (Array.length a) 0.0 in
      run (fun _ lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set r i (float_of_int (Array.unsafe_get a i))
          done);
      r
  | RS (VReal x) -> [| x |]
  | RS (VInt n) -> [| float_of_int n |]
  | _ -> invalid_arg "real_view"

let bool_view = function
  | RB a -> a
  | RS (VBool b) -> [| b |]
  | _ -> invalid_arg "bool_view"

(** [r.(i) <- op x.(i) y.(i)]. *)
let map2_i run bp op (r : int array) (x : int array) (y : int array) =
  run (fun _ lo hi ->
      let all = bp == all_lanes and kx = bcast x and ky = bcast y in
      for i = lo to hi - 1 do
        if all || Bytes.unsafe_get bp i <> '\000' then
          Array.unsafe_set r i
            (int_lane op
               (Array.unsafe_get x (i land kx))
               (Array.unsafe_get y (i land ky)))
      done)

let map2_r run bp op (r : float array) (x : float array) (y : float array) =
  run (fun _ lo hi ->
      let all = bp == all_lanes and kx = bcast x and ky = bcast y in
      for i = lo to hi - 1 do
        if all || Bytes.unsafe_get bp i <> '\000' then
          Array.unsafe_set r i
            (real_lane op
               (Array.unsafe_get x (i land kx))
               (Array.unsafe_get y (i land ky)))
      done)

let map2_b run op (r : bool array) (x : bool array) (y : bool array) =
  run (fun _ lo hi ->
      let kx = bcast x and ky = bcast y in
      for i = lo to hi - 1 do
        Array.unsafe_set r i
          (bool_lane op
             (Array.unsafe_get x (i land kx))
             (Array.unsafe_get y (i land ky)))
      done)

(** [r.(i) <- op (compare x.(i) y.(i))]. *)
let cmp_i run op (r : bool array) (x : int array) (y : int array) =
  run (fun _ lo hi ->
      let kx = bcast x and ky = bcast y in
      for i = lo to hi - 1 do
        Array.unsafe_set r i
          (cmp_lane op
             (Int.compare
                (Array.unsafe_get x (i land kx))
                (Array.unsafe_get y (i land ky))))
      done)

let cmp_r run op (r : bool array) (x : float array) (y : float array) =
  run (fun _ lo hi ->
      let kx = bcast x and ky = bcast y in
      for i = lo to hi - 1 do
        Array.unsafe_set r i
          (cmp_lane op
             (Float.compare
                (Array.unsafe_get x (i land kx))
                (Array.unsafe_get y (i land ky))))
      done)

(** [r.(i) <- op x.(i)] for a unary op, or a copy when [op = None]. *)
let map1_i run bp op (r : int array) (x : int array) =
  run (fun _ lo hi ->
      let all = bp == all_lanes and kx = bcast x in
      for i = lo to hi - 1 do
        if all || Bytes.unsafe_get bp i <> '\000' then
          Array.unsafe_set r i (int_un op (Array.unsafe_get x (i land kx)))
      done)

let map1_r run bp op (r : float array) (x : float array) =
  run (fun _ lo hi ->
      let all = bp == all_lanes and kx = bcast x in
      for i = lo to hi - 1 do
        if all || Bytes.unsafe_get bp i <> '\000' then
          Array.unsafe_set r i (real_un op (Array.unsafe_get x (i land kx)))
      done)

let map1_b run bp op (r : bool array) (x : bool array) =
  run (fun _ lo hi ->
      let all = bp == all_lanes and kx = bcast x in
      for i = lo to hi - 1 do
        if all || Bytes.unsafe_get bp i <> '\000' then
          Array.unsafe_set r i (bool_un op (Array.unsafe_get x (i land kx)))
      done)

(** [r.(i) <- f i]: a per-lane function (a boxed vector being
    re-specialized). *)
let fill_i run bp (r : int array) (f : int -> int) =
  run (fun _ lo hi ->
      let all = bp == all_lanes in
      for i = lo to hi - 1 do
        if all || Bytes.unsafe_get bp i <> '\000' then
          Array.unsafe_set r i (f i)
      done)

let fill_r run bp (r : float array) (f : int -> float) =
  run (fun _ lo hi ->
      let all = bp == all_lanes in
      for i = lo to hi - 1 do
        if all || Bytes.unsafe_get bp i <> '\000' then
          Array.unsafe_set r i (f i)
      done)

let fill_b run bp (r : bool array) (f : int -> bool) =
  run (fun _ lo hi ->
      let all = bp == all_lanes in
      for i = lo to hi - 1 do
        if all || Bytes.unsafe_get bp i <> '\000' then
          Array.unsafe_set r i (f i)
      done)

let fill_v run bp (r : value array) (f : int -> value) =
  run (fun _ lo hi ->
      for i = lo to hi - 1 do
        if Bytes.unsafe_get bp i <> '\000' then Array.unsafe_set r i (f i)
      done)

(** The numeric intrinsics with typed lane kernels, by [Intrinsics]'
    own lane functions: [as_float] promotion, [Float.max]/[Float.min] on
    reals, [int_of_float] of the truncated or rounded real. *)
type intr = Sqrt | Exp | Real | Int | Nint | Abs | Max | Min

let intr_of_key = function
  | "sqrt" -> Some Sqrt
  | "exp" -> Some Exp
  | "real" -> Some Real
  | "int" -> Some Int
  | "nint" -> Some Nint
  | "abs" -> Some Abs
  | "max" -> Some Max
  | "min" -> Some Min
  | _ -> None

let[@inline] real_intr k x y =
  match k with
  | Sqrt -> Float.sqrt x
  | Exp -> Float.exp x
  | Real -> x
  | Abs -> Float.abs x
  | Max -> Float.max x y
  | Min -> Float.min x y
  | Int | Nint -> invalid_arg "real_intr"

let[@inline] int_intr k x y =
  match k with
  | Abs -> abs x
  | Max -> if x >= y then x else y
  | Min -> if x <= y then x else y
  | Sqrt | Exp | Real | Int | Nint -> invalid_arg "int_intr"

(** [r.(i) <- k x.(i) y.(i)] on every lane (a unary [k] ignores [y]);
    all total. *)
let intr_r run k (r : float array) (x : float array) (y : float array) =
  run (fun _ lo hi ->
      let kx = bcast x and ky = bcast y in
      for i = lo to hi - 1 do
        Array.unsafe_set r i
          (real_intr k
             (Array.unsafe_get x (i land kx))
             (Array.unsafe_get y (i land ky)))
      done)

let intr_i run k (r : int array) (x : int array) (y : int array) =
  run (fun _ lo hi ->
      let kx = bcast x and ky = bcast y in
      for i = lo to hi - 1 do
        Array.unsafe_set r i
          (int_intr k
             (Array.unsafe_get x (i land kx))
             (Array.unsafe_get y (i land ky)))
      done)

(** INT and NINT: real lanes to int lanes. *)
let intr_ri run ~round (r : int array) (x : float array) =
  run (fun _ lo hi ->
      for i = lo to hi - 1 do
        let v = Array.unsafe_get x i in
        Array.unsafe_set r i
          (int_of_float (if round then Float.round v else Float.trunc v))
      done)

(** Flat offset of the 1-based subscript [(j1, j2)] in a [d1 x d2]
    array (rank 1: [d2 = 1], [j2 = 1]), bounds-checked in dimension
    order like [Nd.linear_index] unless a discharged claim dropped the
    check. *)
let[@inline] offset ~check d1 d2 j1 j2 =
  if check then begin
    if j1 < 1 || j1 > d1 then Nd.index_error j1 d1 1;
    if j2 < 1 || j2 > d2 then Nd.index_error j2 d2 2
  end;
  j1 - 1 + ((j2 - 1) * d1)

(* Extent of dimension [k] of a rank-1 or rank-2 array (1 past its rank),
   and the constant second subscript of a rank-1 access. *)
let extent (d : _ Nd.t) k =
  if k < Array.length d.Nd.dims then d.Nd.dims.(k) else 1

let one = [| 1 |]

(* the second subscript vector of a rank-2 typed access, [one] for rank 1 *)
let subscript2 = function [ _; RI ix2 ] -> ix2 | _ -> one

(** Gather [r.(i) <- d(ix1.(i), ix2.(i))] on the active lanes. *)
let gather_i run bp ~check (r : int array) (d : int Nd.t) ix1 ix2 =
  let d1 = extent d 0 and d2 = extent d 1 and data = d.Nd.data in
  run (fun _ lo hi ->
      let k2 = bcast ix2 in
      for i = lo to hi - 1 do
        if Bytes.unsafe_get bp i <> '\000' then
          Array.unsafe_set r i
            data.(offset ~check d1 d2 (Array.unsafe_get ix1 i)
                    (Array.unsafe_get ix2 (i land k2)))
      done)

let gather_r run bp ~check (r : float array) (d : float Nd.t) ix1 ix2 =
  let d1 = extent d 0 and d2 = extent d 1 and data = d.Nd.data in
  run (fun _ lo hi ->
      let k2 = bcast ix2 in
      for i = lo to hi - 1 do
        if Bytes.unsafe_get bp i <> '\000' then
          Array.unsafe_set r i
            data.(offset ~check d1 d2 (Array.unsafe_get ix1 i)
                    (Array.unsafe_get ix2 (i land k2)))
      done)

(** Scatter [d(ix1.(i), ix2.(i)) <- x.(i)] — or [op x.(i) y.(i)] when
    an [op] is given — on the active lanes, ascending within each shard
    (the subscript is checked before the value is read). *)
let scatter_i run bp ~check (d : int Nd.t) ix1 ix2 op (x : int array)
    (y : int array) =
  let d1 = extent d 0 and d2 = extent d 1 and data = d.Nd.data in
  run (fun _ lo hi ->
      let k2 = bcast ix2 and kx = bcast x and ky = bcast y in
      for i = lo to hi - 1 do
        if Bytes.unsafe_get bp i <> '\000' then begin
          let o =
            offset ~check d1 d2 (Array.unsafe_get ix1 i)
              (Array.unsafe_get ix2 (i land k2))
          in
          let v = Array.unsafe_get x (i land kx) in
          data.(o) <-
            (match op with
            | None -> v
            | Some op -> int_lane op v (Array.unsafe_get y (i land ky)))
        end
      done)

let scatter_r run bp ~check (d : float Nd.t) ix1 ix2 op (x : float array)
    (y : float array) =
  let d1 = extent d 0 and d2 = extent d 1 and data = d.Nd.data in
  run (fun _ lo hi ->
      let k2 = bcast ix2 and kx = bcast x and ky = bcast y in
      for i = lo to hi - 1 do
        if Bytes.unsafe_get bp i <> '\000' then begin
          let o =
            offset ~check d1 d2 (Array.unsafe_get ix1 i)
              (Array.unsafe_get ix2 (i land k2))
          in
          let v = Array.unsafe_get x (i land kx) in
          data.(o) <-
            (match op with
            | None -> v
            | Some op -> real_lane op v (Array.unsafe_get y (i land ky)))
        end
      done)

(** Per-site reduction scratch: one partial per chunk, one ANY per shard. *)
type red_scratch = {
  parts_i : int array;
  parts_r : float array;
  filled : Bytes.t;
  sh_b : bool array;
}

let red_scratch (exec : Pool.exec) =
  let nc = max 1 (Pool.nchunks exec.Pool.x_p) and ns = Pool.nshards exec in
  {
    parts_i = Array.make nc 0;
    parts_r = Array.make nc 0.0;
    filled = Bytes.make nc '\000';
    sh_b = Array.make ns false;
  }

(* Left fold of [get] over the lanes of [l, h) that [bp] marks into
   [parts.(c)]; false when there are none. *)
let fold_span_i r bp (get : int -> int) parts l h c =
  let acc = ref 0 and seen = ref false in
  for i = l to h - 1 do
    if Bytes.unsafe_get bp i <> '\000' then
      if !seen then acc := int_fold r !acc (get i)
      else begin
        acc := get i;
        seen := true
      end
  done;
  if !seen then parts.(c) <- !acc;
  !seen

let fold_span_r r bp (get : int -> float) (parts : float array) l h c =
  let acc = ref 0.0 and seen = ref false in
  for i = l to h - 1 do
    if Bytes.unsafe_get bp i <> '\000' then
      if !seen then acc := real_fold r !acc (get i)
      else begin
        acc := get i;
        seen := true
      end
  done;
  if !seen then parts.(c) <- !acc;
  !seen

(** The canonical chunked fold (see [Pool] / [Pval.reduce]): one partial
    per 64-lane chunk ([span l h c] folds chunk [c]), each seeded at its
    first active lane (so e.g. a lone NaN or -0.0 survives verbatim),
    then the partials merged left-to-right in ascending chunk order on
    the control thread.  The chunk grid depends only on [p], never on
    the shard layout (shard boundaries are chunk-aligned), so the result
    — including a non-associative float SUM — is bitwise identical at
    any jobs count and to the serial engines. *)
let chunked (exec : Pool.exec) rs span =
  Bytes.fill rs.filled 0 (Bytes.length rs.filled) '\000';
  exec.Pool.x_run (fun _ lo hi ->
      for c = lo / Pool.chunk to ((hi + Pool.chunk - 1) / Pool.chunk) - 1 do
        if span (c * Pool.chunk) (min hi ((c + 1) * Pool.chunk)) c then
          Bytes.unsafe_set rs.filled c '\001'
      done);
  Pool.sync exec

(* Whether any lane was active; the result is left in [parts_*.(0)]. *)
let fold_i exec rs bp r ga =
  let parts = rs.parts_i in
  chunked exec rs (fold_span_i r bp ga parts);
  fold_span_i r rs.filled (Array.get parts) parts 0 (Bytes.length rs.filled) 0

let fold_r exec rs bp r ga =
  let parts = rs.parts_r in
  chunked exec rs (fold_span_r r bp ga parts);
  fold_span_r r rs.filled (Array.get parts) parts 0 (Bytes.length rs.filled) 0

(** ANY over the active lanes.  A raising [f] visits every active lane
    (a raising lane must still raise); a raise-free one stops at the
    first true lane — the OR-fold order is then unobservable. *)
let any_b (exec : Pool.exec) rs bp ~raising (f : int -> bool) =
  exec.Pool.x_run (fun s lo hi ->
      let r = ref false and i = ref lo in
      while (raising || not !r) && !i < hi do
        if Bytes.unsafe_get bp !i <> '\000' && f !i then r := true;
        incr i
      done;
      rs.sh_b.(s) <- !r);
  Pool.sync exec;
  Array.exists Fun.id rs.sh_b

(** Typed per-lane closure over a fused region's postorder program: the
    whole elementwise chain collapses into one [int -> _] evaluated once
    per lane, with no intermediate plural temporaries.  Plain plural
    operands are cells too, when they reach a reduction. *)
type fcell =
  | FI of (int -> int)
  | FR of (int -> float)
  | FB of (int -> bool)

(** The typed reduction of [key] over a lane cell, or [None] when the
    pair has no kernel.  The runner takes the mask's bytes and the
    empty-mask result of SUM/MAXVAL/MINVAL. *)
let lane_reduction exec rs ~raising key cell :
    (Bytes.t -> (unit -> value) -> value) option =
  match (fold_of_key key, cell) with
  | Some r, FI f ->
      Some
        (fun bp empty ->
          if fold_i exec rs bp r f then VInt rs.parts_i.(0) else empty ())
  | Some r, FR f ->
      Some
        (fun bp empty ->
          if fold_r exec rs bp r f then VReal rs.parts_r.(0) else empty ())
  | None, FB f -> (
      match key with
      | "count" ->
          let one_if i = if f i then 1 else 0 in
          Some
            (fun bp _ ->
              let some = fold_i exec rs bp Fold_sum one_if in
              VInt (if some then rs.parts_i.(0) else 0))
      | "any" -> Some (fun bp _ -> VBool (any_b exec rs bp ~raising f))
      | "all" ->
          let nf i = not (f i) in
          Some (fun bp _ -> VBool (not (any_b exec rs bp ~raising nf)))
      | _ -> None)
  | _ -> None

(** A site's result buffers and their (reused) result values. *)
type bufs = {
  ri : int array;
  rr : float array;
  rb : bool array;
  res_i : rv;
  res_r : rv;
  res_b : rv;
}

let bufs ri rr rb = { ri; rr; rb; res_i = RI ri; res_r = RR rr; res_b = RB rb }

(** Re-specialize a boxed lane vector by its {e active} lanes: when every
    active lane holds the same scalar type, return the unboxed typed
    vector so downstream operators stay on their fast paths.  Inactive
    lanes of computed temporaries are unobservable (every escape point
    launders them to inert [VInt 0]), so dropping their boxed
    representation is invisible.  The type decision reads the lanes on
    the control thread: a join. *)
let renorm exec (m : Frame.Mask.t) (vs : value array) : rv =
  Pool.sync exec;
  let p = Array.length vs and bp = m.Frame.Mask.bits in
  let run f = f 0 0 p in
  let f = first_active m in
  try
    if f >= p then RP vs
    else
      match vs.(f) with
      | VInt _ ->
          let r = Array.make p 0 in
          fill_i run bp r (fun i ->
              match vs.(i) with VInt x -> x | _ -> raise Exit);
          RI r
      | VReal _ ->
          let r = Array.make p 0.0 in
          fill_r run bp r (fun i ->
              match vs.(i) with VReal x -> x | _ -> raise Exit);
          RR r
      | VBool _ ->
          let r = Array.make p false in
          fill_b run bp r (fun i ->
              match vs.(i) with VBool x -> x | _ -> raise Exit);
          RB r
      | _ -> RP vs
  with Exit -> RP vs

(* ------------------------------------------------------------------ *)
(* Operator dispatch                                                   *)
(* ------------------------------------------------------------------ *)

(** A numeric intrinsic over plural operands on unboxed lanes, or [None]
    when [k] and the operand shapes have no kernel.  Every active lane
    holds the value the boxed path computes, and the result has the one
    type the boxed path's [renorm] picks for a non-empty mask. *)
let intrinsic_kernel run b k (args : rv list) : rv option =
  match (k, args) with
  | (Sqrt | Exp | Real), [ ((RI _ | RR _) as a) ] ->
      let x = real_view run a in
      intr_r run k b.rr x x;
      Some b.res_r
  | (Int | Nint), [ ((RI _ | RR _) as a) ] ->
      intr_ri run ~round:(k = Nint) b.ri (real_view run a);
      Some b.res_i
  | Abs, [ RI a ] ->
      intr_i run k b.ri a a;
      Some b.res_i
  | Abs, [ RR a ] ->
      intr_r run k b.rr a a;
      Some b.res_r
  | (Max | Min), [ x; y ] when is_int x && is_int y ->
      intr_i run k b.ri (int_view x) (int_view y);
      Some b.res_i
  | (Max | Min), [ x; y ] when is_num x && is_num y ->
      intr_r run k b.rr (real_view run x) (real_view run y);
      Some b.res_r
  | _ -> None

(** A binary operator over two compiled values: front-end scalars fold
    through [Scalar_ops], plural operands run the typed kernel their
    [kind] and lane types select, anything else the boxed path.
    Division and MOD by zero are only checked on active lanes (the
    tree-walker never computes inactive lanes); every other kernel is
    exception-free, so it computes all lanes.  The result lands in the
    site's buffers [b] — per-site by default, or the site's scratch-pool
    vectors at [-O1]: a site's previous result is always consumed
    (copied into frame storage, a mask, a Pval, ...) before the site can
    evaluate again, so reusing them is invisible. *)
let binop_rv (exec : Pool.exec) b op : Frame.Mask.t -> rv -> rv -> rv =
  let run = exec.Pool.x_run in
  let app = Scalar_ops.apply_binop op in
  let typed =
    match kind op with
    | (Arith | Raising _) as k ->
        let raising = k <> Arith in
        fun m x y ->
          if is_int x && is_int y then begin
            let bp = if raising then m.Frame.Mask.bits else all_lanes in
            map2_i run bp op b.ri (int_view x) (int_view y);
            b.res_i
          end
          else if is_num x && is_num y then begin
            map2_r run all_lanes op b.rr (real_view run x) (real_view run y);
            b.res_r
          end
          else renorm exec m (box_lift2 exec m app x y)
    | (Cmp | Logic) as k ->
        fun m x y ->
          if is_bool x && is_bool y then begin
            map2_b run op b.rb (bool_view x) (bool_view y);
            b.res_b
          end
          else if k = Logic then renorm exec m (box_lift2 exec m app x y)
          else if is_int x && is_int y then begin
            cmp_i run op b.rb (int_view x) (int_view y);
            b.res_b
          end
          else if is_num x && is_num y then begin
            cmp_r run op b.rb (real_view run x) (real_view run y);
            b.res_b
          end
          else renorm exec m (box_lift2 exec m app x y)
    | Boxed -> fun m x y -> renorm exec m (box_lift2 exec m app x y)
  in
  fun m x y ->
    match (x, y) with
    | RS u, RS v -> RS (app u v)
    | RA _, _ | _, RA _ ->
        Errors.runtime_error "array operand in a lane-wise operation"
    | _ -> typed m x y

(* ------------------------------------------------------------------ *)
(* Subscripts                                                          *)
(* ------------------------------------------------------------------ *)

(** [(per-lane index, is-plural)] — the compiled [Vm.lane_indices]:
    front-end subscripts convert eagerly, plural ones per lane at use. *)
let rv_sel v : (int -> int) * bool =
  match v with
  | RS s ->
      let n = as_int s in
      ((fun _ -> n), false)
  | RI a -> ((fun i -> Array.unsafe_get a i), true)
  | RR a -> ((fun i -> as_int (VReal a.(i))), true)
  | RB a -> ((fun i -> as_int (VBool a.(i))), true)
  | RP a -> ((fun i -> as_int a.(i)), true)
  | RA _ -> Errors.runtime_error "array-valued subscript"

(** Stage lane [i]'s subscript vector in [sc] for [Nd.get]/[Nd.set]: a
    plural array's leading subscript is the lane itself. *)
let stage sc ~lane (fs : (int -> int) array) i =
  let lead = Bool.to_int lane in
  if lane then sc.(0) <- i + 1;
  for k = 0 to Array.length fs - 1 do
    sc.(k + lead) <- (Array.unsafe_get fs k) i
  done;
  sc

(* ------------------------------------------------------------------ *)
(* Mask splitting (WHERE / plural IF)                                  *)
(* ------------------------------------------------------------------ *)

(** Partition [parent] into [mt] (condition holds) and [mf] (does not),
    writing into the preallocated per-site buffers.  Only active lanes
    evaluate the condition, exactly like the tree-walker's [where_masks].
    The unboxed [RB] split is one lane loop: each shard clears and fills
    its own byte range of the two masks and reports in [nts] how many
    lanes it sent to [mt]; the control thread joins, sums them and gives
    [mf] the rest.  Every other split reads lanes on the control thread,
    after a join.  Either way no mask is left pending: the control
    thread may read any mask's bits and count at any time. *)
let split_mask (exec : Pool.exec) nts (parent : Frame.Mask.t) cv
    (mt : Frame.Mask.t) (mf : Frame.Mask.t) =
  let p = Frame.Mask.length parent in
  match cv with
  | RB a ->
      let bp = parent.Frame.Mask.bits in
      let bt = mt.Frame.Mask.bits and bf = mf.Frame.Mask.bits in
      exec.Pool.x_run (fun s lo hi ->
          Bytes.fill bt lo (hi - lo) '\000';
          Bytes.fill bf lo (hi - lo) '\000';
          let nt = ref 0 in
          for i = lo to hi - 1 do
            if Bytes.unsafe_get bp i <> '\000' then
              if Array.unsafe_get a i then begin
                Bytes.unsafe_set bt i '\001';
                incr nt
              end
              else Bytes.unsafe_set bf i '\001'
          done;
          nts.(s) <- !nt);
      Pool.sync exec;
      let nt = Array.fold_left ( + ) 0 nts in
      mt.Frame.Mask.active_n <- nt;
      mf.Frame.Mask.active_n <- Frame.Mask.active parent - nt
  | _ -> (
      Pool.sync exec;
      Frame.Mask.clear mt;
      Frame.Mask.clear mf;
      match cv with
      | RS s ->
          if Frame.Mask.active parent > 0 then begin
            let dst = if as_bool s then mt else mf in
            Bytes.blit parent.Frame.Mask.bits 0 dst.Frame.Mask.bits 0 p;
            dst.Frame.Mask.active_n <- parent.Frame.Mask.active_n
          end
      | RA _ ->
          if Frame.Mask.active parent > 0 then
            Errors.runtime_error "front-end array used as a plural value"
      | RP vs ->
          for i = 0 to p - 1 do
            if Frame.Mask.get parent i then
              if as_bool vs.(i) then Frame.Mask.set mt i true
              else Frame.Mask.set mf i true
          done
      | (RI _ | RR _) when Frame.Mask.active parent > 0 ->
          (* as_bool on the first active lane raises the tree-walker's
             error *)
          ignore (as_bool (rv_lane cv (first_active parent)))
      | RI _ | RR _ | RB _ -> ())

(* ------------------------------------------------------------------ *)
(* Variable writes                                                     *)
(* ------------------------------------------------------------------ *)

(** Masked store into an existing plural slot.  Type-matched writes go
    straight into the unboxed storage (a masked copy, a lane loop over
    [exec]); a type-changing write renormalizes through the boxed view
    (producing exactly the mixed array the tree-walker would hold,
    modulo re-specialization) on the control thread, after a join. *)
let write_plural (exec : Pool.exec) frame si lanes (m : Frame.Mask.t) rhs =
  let run = exec.Pool.x_run and bp = m.Frame.Mask.bits in
  match (lanes, rhs) with
  | Frame.LInt d, (RI _ | RS (VInt _)) -> map1_i run bp None d (int_view rhs)
  | Frame.LReal d, (RR _ | RS (VReal _)) ->
      map1_r run bp None d (real_view run rhs)
  | Frame.LBool d, (RB _ | RS (VBool _)) ->
      map1_b run bp None d (bool_view rhs)
  | _ ->
      Pool.sync exec;
      let vs = Frame.values_of_lanes lanes in
      fill_v (fun f -> f 0 0 (Array.length vs)) bp vs (rv_lane rhs);
      Frame.set frame si (Frame.Plural (Frame.lanes_of_values vs))

(** First assignment to an unbound name: the tree-walker binds a scalar,
    a global, or a fresh plural whose inactive lanes are [VInt 0] (copied
    on the control thread, after a join). *)
let bind_fresh exec frame si p (m : Frame.Mask.t) rhs =
  let run f = f 0 0 p in
  match rhs with
  | RS v -> Frame.set frame si (Frame.Scalar (ref v))
  | RA a -> Frame.set frame si (Frame.Global a)
  | _ ->
      Pool.sync exec;
      let full = Frame.Mask.active m = p in
      let lanes =
        match rhs with
        | RI a when full -> Frame.LInt (Array.copy a)
        | RR a when full -> Frame.LReal (Array.copy a)
        | RB a when full -> Frame.LBool (Array.copy a)
        | RI a ->
            let d = Array.make p 0 in
            map1_i run m.Frame.Mask.bits None d a;
            Frame.LInt d
        | _ ->
            let fresh = Array.make p (VInt 0) in
            fill_v run m.Frame.Mask.bits fresh (rv_lane rhs);
            Frame.lanes_of_values fresh
      in
      Frame.set frame si (Frame.Plural lanes)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type env = {
  host : host;
  frame : Frame.t;
  p : int;
  exec : Pool.exec;  (** lane-loop dispatcher: serial or pool-sharded *)
  serial : (int -> int -> int -> unit) -> unit;
      (** one pass over all lanes in lane order, whatever [exec] is *)
  mutable cur_loc : Errors.pos;
      (** location of the [SLoc] wrapper being compiled; every tick site
          captures it at compile time, so the run-time closures carry
          their source attribution for free *)
  opt : int;  (** optimizer level; gates the [-O1]-only emitter paths *)
  mutable entry_ok : bool;
      (** set by the [-O2] entry prologue, once per application of the
          compiled body: the frame's [iproc] binding is the canonical
          lane vector [1..P] this run.  Every interval claim may descend
          from the analysis' [iproc] seed, so no claim-gated fast path
          fires while this is [false] *)
}
type cexpr = Frame.Mask.t -> rv
type cstmt = Frame.Mask.t -> unit

let observe env (m : Frame.Mask.t) s =
  match env.host.h_observer () with
  | None -> ()
  | Some f ->
      (* observers read VM state (the state probes of the tests): join,
         then expose it *)
      Pool.sync env.exec;
      env.host.h_flush ();
      f ~mask:(Frame.Mask.to_bool_array m) s

(** Result buffers for a buffer-owning site: at [-O1] the scratch-pool
    vectors of the site's [Opt.plan_scratch] group ([Ir.x_scr]); fresh
    per-site arrays at [-O0] or for a site the planner did not reach. *)
let site_buffers env (scr : int) : bufs =
  if env.opt >= 1 && scr >= 0 then
    bufs
      (Frame.scr_int env.frame scr)
      (Frame.scr_real env.frame scr)
      (Frame.scr_bool env.frame scr)
  else bufs (Array.make env.p 0) (Array.make env.p 0.0) (Array.make env.p false)

(* ------------------------------------------------------------------ *)
(* -O2 claim discharge                                                 *)
(* ------------------------------------------------------------------ *)

(** Resolve one symbolic claim bound against the live frame.
    [Sym (v, c)] means "value of front-end scalar [v] at the claim
    site, plus [c]" — and the guard runs exactly at the claim site, so
    reading the current binding is the right evaluation. *)
let resolve_bound env (b : Range.bound) : int option =
  match b with
  | Range.Fin n -> Some n
  | Range.Sym (v, c) -> (
      match Frame.slot_index env.frame v with
      | None -> None
      | Some si -> (
          match Frame.get env.frame si with
          | Frame.Scalar { contents = VInt n } -> Some (Range.sat_add n c)
          | _ -> None))
  | Range.NegInf | Range.PosInf -> None

(** Per-execution discharge test for one subscript dimension: the
    optimizer's interval claim, resolved now, must sit inside [1..dn],
    and the entry prologue must have validated [iproc] this run.  The
    claim is advisory — an unresolvable bound just keeps the checked
    loop, never changes behaviour. *)
let discharges env (claim : Range.iv option) (dn : int) : bool =
  env.entry_ok
  &&
  match claim with
  | None -> false
  | Some iv ->
      (match resolve_bound env iv.Range.lo with
      | Some l -> l >= 1
      | None -> false)
      && (match resolve_bound env iv.Range.hi with
         | Some h -> h <= dn
         | None -> false)

let nocheck_stats m ndims =
  if Stats.enabled () then begin
    Stats.incr st_nocheck_runs;
    Stats.add st_checks_discharged (ndims * Frame.Mask.active m)
  end

(** Whether a typed gather or scatter pass over [d] keeps its per-lane
    bounds checks.  All or nothing: every dimension's claim must
    discharge, or the checked loop keeps its dimension-ordered error
    contract. *)
let bounds_checked env (m : Frame.Mask.t) (d : _ Nd.t) claim0 claim1 =
  let nochk =
    discharges env claim0 (extent d 0)
    && (Nd.rank d = 1 || discharges env claim1 (extent d 1))
  in
  if nochk then nocheck_stats m (Nd.rank d);
  not nochk

(** The lane runner of a typed store pass into global storage.  Several
    lanes may store to the {e same} element of a global array, and the
    machine model resolves the collision in lane order (last active lane
    wins), so the pass runs serially on the control thread, after a
    join.  Pending region entries therefore never write global storage,
    and a gather never has to join before it reads. *)
let store_run env =
  Pool.sync env.exec;
  env.serial

(* ------------------------------------------------------------------ *)
(* Fused-reduction regions (-O1)                                       *)
(* ------------------------------------------------------------------ *)

exception Not_fusible

(** Specialize a region against the current frame bindings.  Returns the
    validation pins and — when the region is fusible under those
    bindings — the root's per-lane closure plus whether the loop must
    run masked (a raising class is present).

    Pins are closures re-checked before every execution: a plural leaf
    pins its binding's physical identity (in-place stores keep it;
    renormalizing or rebinding writes replace it), a scalar leaf
    additionally re-checks the value's type and refreshes the cached
    cell, an intrinsic pins that no user function shadows the name.
    When a pin fails the plan is rebuilt; an unfusible result is cached
    the same way, pinned by the bindings that made it unfusible, so the
    fallback closures run without re-planning until something changes.
    A scalar cell is read when the lane loop runs, so a refresh that
    changes it joins first.

    Operators apply through the operator table, so a cell computes what
    the unfused kernel computes.  A combination is only admitted when
    the [-O0] engine would take a total (exception-free) typed path for
    it, every type mismatch the [-O0] boxed paths would fault on falls
    back, and a raising op whose operands are all front-end scalars
    falls back (the [-O0] scalar path raises unconditionally, even under
    an empty mask, which a masked fused loop would not replicate). *)
let region_plan env (rg : Ir.region) :
    (unit -> bool) array * (fcell * bool) option =
  let frame = env.frame in
  let exec = env.exec in
  let host = env.host in
  let ops = rg.Ir.rg_ops in
  let nops = Array.length ops in
  let cells = Array.make nops (FI (fun _ -> 0)) in
  let plural = Array.make nops false in
  let checks = ref [] in
  let note c = checks := c :: !checks in
  let classes = ref [] in
  let add_class c =
    if not (List.mem c !classes) then classes := c :: !classes
  in
  let pin_bad slot b0 =
    note (fun () -> Frame.get frame slot == b0);
    raise Not_fusible
  in
  let as_f = function
    | FI f -> Some (fun i -> float_of_int (f i))
    | FR f -> Some f
    | FB _ -> None
  in
  (* a changed scalar cell joins first: pending loops of this site still
     read the old value *)
  let set c x same =
    if not (same x !c) then begin
      Pool.sync exec;
      c := x
    end;
    true
  in
  let same_bits x y = x = y && Float.sign_bit x = Float.sign_bit y in
  let var_leaf slot =
    match Frame.get frame slot with
    | Frame.Scalar r as b0 -> (
        (* the cell re-reads the binding's current value when the pin
           accepts it *)
        let pin refresh =
          note (fun () -> Frame.get frame slot == b0 && refresh !r)
        in
        match !r with
        | VInt x ->
            let c = ref x in
            pin (function VInt x -> set c x Int.equal | _ -> false);
            (FI (fun _ -> !c), false)
        | VReal x ->
            let c = ref x in
            pin (function VReal x -> set c x same_bits | _ -> false);
            (FR (fun _ -> !c), false)
        | VBool x ->
            let c = ref x in
            pin (function VBool x -> set c x Bool.equal | _ -> false);
            (FB (fun _ -> !c), false)
        | VArr _ ->
            pin (function VArr _ -> true | _ -> false);
            raise Not_fusible)
    | Frame.Plural (Frame.LInt a) as b0 ->
        note (fun () -> Frame.get frame slot == b0);
        (FI (fun i -> Array.unsafe_get a i), true)
    | Frame.Plural (Frame.LReal a) as b0 ->
        note (fun () -> Frame.get frame slot == b0);
        (FR (fun i -> Array.unsafe_get a i), true)
    | Frame.Plural (Frame.LBool a) as b0 ->
        note (fun () -> Frame.get frame slot == b0);
        (FB (fun i -> Array.unsafe_get a i), true)
    | (Frame.Plural (Frame.LBox _) | Frame.Global _ | Frame.PluralArr _
      | Frame.Unbound) as b0 ->
        pin_bad slot b0
  in
  let bin_cell op a b =
    let ca = cells.(a) and cb = cells.(b) in
    let pl = plural.(a) || plural.(b) in
    let reals k =
      match (as_f ca, as_f cb) with
      | Some fa, Some fb -> k fa fb
      | _ -> raise Not_fusible
    in
    let cell =
      match (kind op, ca, cb) with
      | Arith, FI fa, FI fb -> FI (fun i -> int_lane op (fa i) (fb i))
      | Raising cls, FI fa, FI fb ->
          if not pl then raise Not_fusible;
          add_class cls;
          FI (fun i -> int_lane op (fa i) (fb i))
      | (Arith | Raising _), _, _ ->
          reals (fun fa fb -> FR (fun i -> real_lane op (fa i) (fb i)))
      | Cmp, FI fa, FI fb ->
          FB (fun i -> cmp_lane op (Int.compare (fa i) (fb i)))
      | (Cmp | Logic), FB fa, FB fb -> FB (fun i -> bool_lane op (fa i) (fb i))
      | Cmp, _, _ ->
          reals (fun fa fb ->
              FB (fun i -> cmp_lane op (Float.compare (fa i) (fb i))))
      | (Logic | Boxed), _, _ -> raise Not_fusible
    in
    (cell, pl)
  in
  let un_cell op a =
    let u = Some op in
    let cell =
      match (op, cells.(a)) with
      | Neg, FI f -> FI (fun i -> int_un u (f i))
      | Neg, FR f -> FR (fun i -> real_un u (f i))
      | Not, FB f -> FB (fun i -> bool_un u (f i))
      | _ -> raise Not_fusible
    in
    (cell, plural.(a))
  in
  let intr_cell key a =
    let shadowed () = Option.is_some (host.h_find_func key) in
    let s0 = shadowed () in
    note (fun () -> shadowed () = s0);
    if s0 then raise Not_fusible;
    let c = cells.(a) in
    let real k = match as_f c with Some f -> k f | None -> raise Not_fusible in
    let cell =
      match (key, c) with
      | "abs", FI f -> FI (fun i -> abs (f i))
      | "abs", FR f -> FR (fun i -> Float.abs (f i))
      | _, FB _ -> raise Not_fusible
      | "sqrt", _ -> real (fun f -> FR (fun i -> Float.sqrt (f i)))
      | "exp", _ -> real (fun f -> FR (fun i -> Float.exp (f i)))
      | "real", _ -> real (fun f -> FR f)
      (* [-O0] round-trips through float even for INTEGER operands *)
      | "int", _ ->
          real (fun f -> FI (fun i -> int_of_float (Float.trunc (f i))))
      | "nint", _ ->
          real (fun f -> FI (fun i -> int_of_float (Float.round (f i))))
      | _ -> raise Not_fusible
    in
    (cell, plural.(a))
  in
  (* a rank-1 or rank-2 gather, checked like the unfused gather kernel *)
  let gather_cell k slot ixs =
    let fis =
      Array.map
        (fun j ->
          match cells.(j) with FI f -> f | _ -> raise Not_fusible)
        ixs
    in
    let pl = Array.exists (fun j -> plural.(j)) ixs in
    let nix = Array.length ixs in
    let offset_of b0 d =
      note (fun () -> Frame.get frame slot == b0);
      if Nd.rank d <> nix || not pl then raise Not_fusible;
      add_class (CGather k);
      let f1 = fis.(0) and d1 = extent d 0 and d2 = extent d 1 in
      if nix = 1 then fun i -> offset ~check:true d1 d2 (f1 i) 1
      else
        let f2 = fis.(1) in
        fun i ->
          let j1 = f1 i in
          let j2 = f2 i in
          offset ~check:true d1 d2 j1 j2
    in
    match Frame.get frame slot with
    | Frame.Global (AInt d) as b0 when nix <= 2 ->
        let off = offset_of b0 d and data = d.Nd.data in
        (FI (fun i -> data.(off i)), true)
    | Frame.Global (AReal d) as b0 when nix <= 2 ->
        let off = offset_of b0 d and data = d.Nd.data in
        (FR (fun i -> data.(off i)), true)
    | b0 -> pin_bad slot b0
  in
  let go () =
    for k = 0 to nops - 1 do
      let cell, pl =
        match ops.(k) with
        | Ir.OConst (VInt n) -> (FI (fun _ -> n), false)
        | Ir.OConst (VReal x) -> (FR (fun _ -> x), false)
        | Ir.OConst (VBool b) -> (FB (fun _ -> b), false)
        | Ir.OConst (VArr _) -> raise Not_fusible
        | Ir.OVar (slot, _) -> var_leaf slot
        | Ir.OUn (op, a) -> un_cell op a
        | Ir.OBin (op, a, b) -> bin_cell op a b
        | Ir.OIntr (key, a) -> intr_cell key a
        | Ir.OGather (slot, _, ixs) -> gather_cell k slot ixs
      in
      cells.(k) <- cell;
      plural.(k) <- pl
    done;
    if List.length !classes > 1 then raise Not_fusible;
    (* a front-end-scalar root means the [-O0] result is an [RS] (one
       [h_tick_frontend] instead of a vector tick downstream) *)
    if not plural.(nops - 1) then raise Not_fusible;
    (cells.(nops - 1), !classes <> [])
  in
  let res = try Some (go ()) with Not_fusible -> None in
  (Array.of_list !checks, res)

(* an operand [compile_store_fused] reads straight from the frame *)
let is_leaf (x : Ir.expr) =
  match x.Ir.x_node with Ir.XConst _ | Ir.XVar (Some _, _) -> true | _ -> false

(* an assignment's step: a vector step for a plural value, a
   control-unit step for a front-end one *)
let tick_assign host loc m rhs =
  if rv_is_plural rhs then host.h_tick_vector ~loc ~kind:Lf_obs.Trace.Assign m
  else host.h_tick_frontend ()

let rec compile_expr env (e : Ir.expr) : cexpr =
  match e.Ir.x_fused with
  | Some (Ir.FReduce (key, rg)) -> compile_fused_reduction env e key rg
  | None -> compile_expr_node env e

(** A reduction over a fused region folds the per-lane closure straight
    into the canonical chunk fold ([fold_i]/[fold_r]) — the argument
    vector is never materialized — so the result (including
    non-associative float SUM) stays bitwise identical to the unfused
    reduction at any shard count. *)
and compile_fused_reduction env (e : Ir.expr) key rg : cexpr =
  let name, arg =
    match e.Ir.x_node with
    | Ir.XCall (n, [ a ]) -> (n, a)
    | _ -> assert false
  in
  let carg = compile_expr env arg in
  let host = env.host in
  let loc = env.cur_loc in
  let exec = env.exec in
  let rs = red_scratch exec in
  (* regions are never bare variable reads, so the empty-mask witness
     is the tree-walker's inert [VInt 0] (lane 0 is inactive there) *)
  let empty () = Pval.reduction_identity key (VInt 0) in
  let fb m = RS (reduce_rv exec rs ~is_var:false m name key (carg m)) in
  let checks = ref [||] in
  let runner = ref None in
  let sc_eligible = ref false in
  let fresh = ref true in
  fun m ->
    host.h_reduction ~loc m;
    if !fresh || not (Array.for_all (fun c -> c ()) !checks) then begin
      let cks, plan = region_plan env rg in
      checks := cks;
      runner :=
        Option.bind plan (fun (root, raising) ->
            lane_reduction exec rs ~raising key root);
      sc_eligible :=
        Option.is_some !runner
        && (match plan with
           | Some (_, raising) ->
               (not raising) && (key = "any" || key = "all")
           | None -> false);
      fresh := false
    end;
    (match !runner with
    | Some r ->
        Stats.incr st_reduce_runs;
        if !sc_eligible then Stats.incr st_short_circuits;
        RS (r m.Frame.Mask.bits empty)
    | None -> fb m)

and compile_expr_node env (e : Ir.expr) : cexpr =
  match e.Ir.x_node with
  | Ir.XConst v ->
      let v = RS v in
      fun _ -> v
  | Ir.XRange (lo, hi) ->
      let clo = compile_expr env lo and chi = compile_expr env hi in
      let p = env.p in
      fun m ->
        let lo = rv_front_int (clo m) in
        let hi = rv_front_int (chi m) in
        let n = max 0 (hi - lo + 1) in
        if n = p then RI (Array.init n (fun i -> lo + i))
        else RA (AInt (Nd.of_array (Array.init n (fun i -> lo + i))))
  | Ir.XVar (slot, v) -> (
      let frame = env.frame in
      match slot with
      | None -> fun _ -> Errors.runtime_error "undefined variable %s" v
      | Some si -> (
          fun _ ->
            match Frame.get frame si with
            | Frame.Unbound -> Errors.runtime_error "undefined variable %s" v
            | Frame.Scalar r -> RS !r
            | Frame.Plural (Frame.LInt a) -> RI a
            | Frame.Plural (Frame.LReal a) -> RR a
            | Frame.Plural (Frame.LBool a) -> RB a
            | Frame.Plural (Frame.LBox a) ->
                Pool.sync env.exec;
                RP (Array.copy a)
            | Frame.Global a | Frame.PluralArr a -> RA a))
  | Ir.XUn (op, a) -> compile_unop env e.Ir.x_scr op (compile_expr env a)
  | Ir.XBin (op, a, b) ->
      let ca = compile_expr env a and cb = compile_expr env b in
      let apply = binop_rv env.exec (site_buffers env e.Ir.x_scr) op in
      fun m ->
        let a = ca m in
        let b = cb m in
        apply m a b
  | Ir.XCall (name, args) -> compile_call env e.Ir.x_scr name args
  | Ir.XIdx (si, name, args) -> compile_index env e.Ir.x_scr si name args

and compile_unop env scr op ca : cexpr =
  let gen = Scalar_ops.apply_unop op in
  let run = env.exec.Pool.x_run in
  let b = site_buffers env scr in
  let u = Some op in
  fun m ->
    match (op, ca m) with
    | _, RS x -> RS (gen x)
    | Neg, RI a ->
        map1_i run all_lanes u b.ri a;
        b.res_i
    | Neg, RR a ->
        map1_r run all_lanes u b.rr a;
        b.res_r
    | Not, RB a ->
        map1_b run all_lanes u b.rb a;
        b.res_b
    | _, RA _ -> Errors.runtime_error "array operand in a lane-wise operation"
    | _, v -> renorm env.exec m (box_lift1 env.exec m gen v)

and compile_call env scr name args : cexpr =
  let key = String.lowercase_ascii name in
  if Ir.is_reduction key then compile_reduction env name key args
  else
    let cargs = List.map (compile_expr env) args in
    let p = env.p in
    let host = env.host in
    let exec = env.exec in
    let run = exec.Pool.x_run in
    (* [-O1]: results of a plural call are almost always one scalar type
       across the active lanes — store them straight into per-site
       unboxed buffers, skipping the boxed staging vector and the
       [renorm] pass.  Each shard's first active lane picks its buffer; a
       shard that meets a second type re-boxes what it stored (value
       boxes carry no identity) and stages the rest boxed in [side].
       After the join the control thread takes the typed buffer when
       every shard agrees, else renormalizes the boxed vector — what the
       boxed path computes.  Still exactly one call per active lane,
       ascending within a shard, and over all lanes for an impure callee
       (one serial pass). *)
    let typed = env.opt >= 1 in
    let intr = intr_of_key key in
    let b =
      if typed || Option.is_some intr then site_buffers env scr
      else bufs [||] [||] [||]
    in
    let tags = Array.make (Pool.nshards exec) 0 in
    let side = lazy (Array.make p (VInt 0)) in
    let typed_lane t i =
      match t with 1 -> VInt b.ri.(i) | 2 -> VReal b.rr.(i) | _ -> VBool b.rb.(i)
    in
    let call_typed ~pure (call : int -> value) (m : Frame.Mask.t) : rv =
      let bp = m.Frame.Mask.bits and side = Lazy.force side in
      let run, ranges =
        if pure then (run, exec.Pool.x_ranges) else (env.serial, [| (0, p) |])
      in
      Array.fill tags 0 (Array.length tags) 0;
      run (fun s lo hi ->
          let tag = ref 0 in
          for i = lo to hi - 1 do
            if Bytes.unsafe_get bp i <> '\000' then
              match (call i, !tag) with
              | VInt x, (0 | 1) ->
                  tag := 1;
                  Array.unsafe_set b.ri i x
              | VReal x, (0 | 2) ->
                  tag := 2;
                  Array.unsafe_set b.rr i x
              | VBool x, (0 | 3) ->
                  tag := 3;
                  Array.unsafe_set b.rb i x
              | v, 4 -> side.(i) <- v
              | v, t ->
                  for k = lo to i - 1 do
                    if Bytes.unsafe_get bp k <> '\000' then
                      side.(k) <- typed_lane t k
                  done;
                  side.(i) <- v;
                  tag := 4
          done;
          tags.(s) <- !tag);
      Pool.sync exec;
      (* 0: no active lane; 1-3: one scalar type everywhere; 4: mixed *)
      let agreed t x = if x = 0 || x = t then t else if t = 0 then x else 4 in
      match Array.fold_left agreed 0 tags with
      | 0 -> RP (Array.make p (VInt 0))
      | 1 -> b.res_i
      | 2 -> b.res_r
      | 3 -> b.res_b
      | _ ->
          let vs = Array.make p (VInt 0) in
          Array.iteri
            (fun s (lo, hi) ->
              for i = lo to hi - 1 do
                if Bytes.unsafe_get bp i <> '\000' then
                  vs.(i) <-
                    (if tags.(s) = 4 then side.(i) else typed_lane tags.(s) i)
              done)
            ranges;
          renorm exec m vs
    in
    fun m ->
      match host.h_find_func key with
      | Some (f, pure) ->
          let vargs = List.map (fun c -> c m) cargs in
          (* an impure callee may observe any state: it runs after a
             join; a pure one depends on its arguments alone *)
          if not pure then Pool.sync exec;
          if List.exists rv_is_plural vargs then begin
            (* exactly one call per active lane (callees may count
               invocations); inactive lanes keep the static [VInt 0].
               Only [pure] functions may run lane-parallel — an impure
               callee observes the serial ascending application order. *)
            let call =
              match vargs with
              | [ a; b ] -> fun i -> f [ rv_lane a i; rv_lane b i ]
              | _ -> fun i -> f (List.map (fun v -> rv_lane v i) vargs)
            in
            if typed then call_typed ~pure call m
            else begin
              let vs = Array.make p (VInt 0) in
              let run = if pure then run else env.serial in
              fill_v run m.Frame.Mask.bits vs call;
              renorm exec m vs
            end
          end
          else RS (f (List.map rv_front_scalar vargs))
      | None -> (
          let vargs = List.map (fun c -> c m) cargs in
          if List.exists rv_is_plural vargs then (
            (* an empty mask keeps the boxed path's all-[VInt 0] result *)
            let typed_result =
              match intr with
              | Some k when Frame.Mask.active m > 0 ->
                  intrinsic_kernel run b k vargs
              | _ -> None
            in
            match typed_result with
            | Some r -> r
            | None ->
                (* intrinsics are pure by construction: shardable *)
                let vs = Array.make p (VInt 0) in
                fill_v run m.Frame.Mask.bits vs (fun i ->
                    match
                      Intrinsics.apply key
                        (List.map (fun v -> rv_lane v i) vargs)
                    with
                    | Some r -> r
                    | None -> Errors.runtime_error "unknown function %s" name);
                renorm exec m vs)
          else
            (* a front-end array argument is read on the control thread *)
            let () =
              if List.exists (function RA _ -> true | _ -> false) vargs then
                Pool.sync exec
            in
            let scalar_args =
              List.map
                (function
                  | RS v -> v
                  | RA a -> VArr a
                  | RI _ | RR _ | RB _ | RP _ -> assert false)
                vargs
            in
            match Intrinsics.apply key scalar_args with
            | Some r -> RS r
            | None -> Errors.runtime_error "unknown function %s" name)

and compile_reduction env name key args : cexpr =
  let host = env.host in
  let loc = env.cur_loc in
  let rs = red_scratch env.exec in
  let carg =
    match args with [ a ] -> Some (compile_expr env a) | _ -> None
  in
  let is_var =
    match args with [ { Ir.x_ast = Ast.EVar _; _ } ] -> true | _ -> false
  in
  fun m ->
    host.h_reduction ~loc m;
    let v =
      match carg with
      | Some c -> c m
      | None -> Errors.runtime_error "%s expects one argument" name
    in
    RS (reduce_rv env.exec rs ~is_var m name key v)

(** Reduction over a broadcast front-end scalar — [Pval.reduce]'s
    [FScalar] case: the scalar itself if any lane is active, the identity
    otherwise. *)
and reduce_scalar (m : Frame.Mask.t) name key s =
  let some_active = Frame.Mask.active m > 0 in
  match key with
  | "count" -> VInt (if as_bool s then Frame.Mask.active m else 0)
  | "any" -> if some_active then s else VBool false
  | "all" -> if some_active then s else VBool true
  | "maxval" | "minval" | "sum" ->
      if some_active then s else Pval.reduction_identity key s
  | _ -> Errors.runtime_error "unknown reduction %s" name

(** Reduction of an evaluated argument: a front-end array through the
    intrinsic, a broadcast scalar through [reduce_scalar]; typed plural
    lanes fold through the [lane_reduction] kernels (the canonical chunk
    grid), other plurals through the boxed fold below over the same
    grid. *)
and reduce_rv (exec : Pool.exec) rs ~is_var (m : Frame.Mask.t) name key v =
  let p = Frame.Mask.length m in
  (* The tree-walker's witness reads lane 0 of the evaluated argument
     regardless of activity.  A plural-variable read ([is_var]) exposes
     the stored lane 0; any computed temporary holds the inert [VInt 0]
     in lanes that were masked off during its evaluation.  The witness
     only reaches the result on the empty-mask path (where lane 0 is
     necessarily inactive), so for temporaries that path must yield the
     integer identity even when the register is statically REAL. *)
  let witness () =
    if p = 0 then VInt 0
    else if (not is_var) && not (Frame.Mask.get m 0) then VInt 0
    else rv_lane v 0
  in
  let empty () = Pval.reduction_identity key (witness ()) in
  let cell =
    match v with
    | RI a -> Some (FI (fun i -> Array.unsafe_get a i))
    | RR a -> Some (FR (fun i -> Array.unsafe_get a i))
    | RB a -> Some (FB (fun i -> Array.unsafe_get a i))
    | _ -> None
  in
  match (v, Option.bind cell (lane_reduction exec rs ~raising:false key)) with
  | RA a, _ -> (
      Pool.sync exec;
      match Intrinsics.apply key [ VArr a ] with
      | Some r -> r
      | None -> Errors.runtime_error "bad reduction %s" name)
  | RS s, _ -> reduce_scalar m name key s
  | _, Some r -> r m.Frame.Mask.bits empty
  | _, None -> (
      (* Boxed fallback: the same chunk grid, folded serially on the
         control thread after a join (mixed-type lanes are the slow path
         already) — bit-identical to [Pval.reduce]'s grouping. *)
      Pool.sync exec;
      let generic f empty =
        let acc = ref None in
        for c = 0 to Pool.nchunks p - 1 do
          let l = c * Pool.chunk and h = min p ((c + 1) * Pool.chunk) in
          let part = ref None in
          for i = l to h - 1 do
            if Frame.Mask.get m i then
              let x = rv_lane v i in
              part := Some (match !part with None -> x | Some a -> f a x)
          done;
          match !part with
          | None -> ()
          | Some pv ->
              acc := Some (match !acc with None -> pv | Some a -> f a pv)
        done;
        match !acc with Some r -> r | None -> empty
      in
      match key with
      | "count" ->
          let n = ref 0 in
          for i = 0 to p - 1 do
            if Frame.Mask.get m i && as_bool (rv_lane v i) then incr n
          done;
          VInt !n
      | "any" ->
          generic (fun a b -> VBool (as_bool a || as_bool b)) (VBool false)
      | "all" ->
          generic (fun a b -> VBool (as_bool a && as_bool b)) (VBool true)
      | "maxval" ->
          generic
            (fun a b ->
              if as_bool (Scalar_ops.apply_binop Gt a b) then a else b)
            (empty ())
      | "minval" ->
          generic
            (fun a b ->
              if as_bool (Scalar_ops.apply_binop Lt a b) then a else b)
            (empty ())
      | "sum" -> generic (fun a b -> Scalar_ops.apply_binop Add a b) (empty ())
      | _ -> Errors.runtime_error "unknown reduction %s" name)

and compile_index env scr si name args : cexpr =
  let frame = env.frame in
  let cargs = List.map (compile_expr env) args in
  let nargs = List.length args in
  (* [-O2] interval claims on the subscripts ([Opt.annotate_ranges]),
     captured at compile time; [discharges] re-resolves them per
     execution against the live frame *)
  let claim0 =
    match args with a :: _ -> a.Ir.x_range | [] -> None
  and claim1 =
    match args with _ :: a :: _ -> a.Ir.x_range | _ -> None
  in
  let scratch = Array.make nargs 0 in
  let scratch1 = Array.make (nargs + 1) 0 in
  (* the name may turn out to be a function at run time (tree-walker
     falls back to the call path when the slot is unbound) *)
  let ccall = compile_call env scr name args in
  let exec = env.exec in
  let run = exec.Pool.x_run in
  let b = site_buffers env scr in
  let checked m d = bounds_checked env m d claim0 claim1 in
  (* The generic gather: each lane's subscript vector is staged in a
     scratch buffer (the compile-time one serially, a fresh shard-local
     one per shard under the pool) and read through [Nd.get].  A plural
     array's leading subscript is the lane itself: it reads its own
     lanes' elements only. *)
  let gather_boxed m a ~lane fs =
    let go set =
      run (fun _ lo hi ->
          let sc =
            if Pool.nshards exec > 1 then
              Array.make (nargs + Bool.to_int lane) 0
            else if lane then scratch1
            else scratch
          in
          for i = lo to hi - 1 do
            if Frame.Mask.get m i then set i (stage sc ~lane fs i)
          done)
    in
    match a with
    | AInt d ->
        go (fun i sc -> b.ri.(i) <- Nd.get d sc);
        b.res_i
    | AReal d ->
        go (fun i sc -> b.rr.(i) <- Nd.get d sc);
        b.res_r
    | ABool d ->
        go (fun i sc -> b.rb.(i) <- Nd.get d sc);
        b.res_b
  in
  fun m ->
    match Frame.get frame si with
    | Frame.Scalar _ | Frame.Plural _ ->
        Errors.runtime_error "%s is a scalar but is indexed" name
    | Frame.Unbound -> ccall m
    | Frame.Global a -> (
        let ivs = List.map (fun c -> c m) cargs in
        match (ivs, a) with
        | ([ RI ix ] | [ RI ix; RI _ ]), AInt d when Nd.rank d = nargs ->
            gather_i run m.Frame.Mask.bits ~check:(checked m d) b.ri d ix
              (subscript2 ivs);
            b.res_i
        | ([ RI ix ] | [ RI ix; RI _ ]), AReal d when Nd.rank d = nargs ->
            gather_r run m.Frame.Mask.bits ~check:(checked m d) b.rr d ix
              (subscript2 ivs);
            b.res_r
        | _ ->
            let sels = List.map rv_sel ivs in
            if List.exists snd sels then
              gather_boxed m a ~lane:false (Array.of_list (List.map fst sels))
            else begin
              (* a scalar read of global storage *)
              Pool.sync exec;
              List.iteri (fun k (f, _) -> scratch.(k) <- f 0) sels;
              RS (arr_get a scratch)
            end)
    | Frame.PluralArr a ->
        let sels = List.map (fun c -> rv_sel (c m)) cargs in
        gather_boxed m a ~lane:true (Array.of_list (List.map fst sels))

(* ------------------------------------------------------------------ *)
(* Assignment                                                          *)
(* ------------------------------------------------------------------ *)

and compile_assign env (l : Ir.lv) : Frame.Mask.t -> rv -> unit =
  let frame = env.frame in
  let si = l.Ir.l_slot in
  let name = l.Ir.l_name in
  match l.Ir.l_index with
  | [] ->
      let p = env.p in
      fun m rhs -> (
        match Frame.get frame si with
        | Frame.Scalar r -> r := rv_front_scalar rhs
        | Frame.Plural lanes -> write_plural env.exec frame si lanes m rhs
        | Frame.Global a -> (
            (* whole-array stores run on the control thread *)
            Pool.sync env.exec;
            match rhs with
            | RS v -> arr_fill a v
            | RA src ->
                if arr_size src <> arr_size a then
                  Errors.runtime_error "shape mismatch assigning to %s" name;
                for i = 0 to arr_size a - 1 do
                  arr_set_flat a i (arr_get_flat src i)
                done
            | RI _ | RR _ | RB _ | RP _ ->
                Errors.runtime_error "plural value assigned to whole array %s"
                  name)
        | Frame.PluralArr a -> (
            Pool.sync env.exec;
            match rhs with
            | RS v -> arr_fill a v
            | _ ->
                Errors.runtime_error
                  "unsupported whole-plural-array assignment to %s" name)
        | Frame.Unbound -> bind_fresh env.exec frame si p m rhs)
  | idxs ->
      let cidx = List.map (compile_expr env) idxs in
      let nargs = List.length idxs in
      let scratch = Array.make nargs 0 in
      let scratch1 = Array.make (nargs + 1) 0 in
      let exec = env.exec in
      let run = exec.Pool.x_run in
      (* [-O2] interval claim on the store subscript, gated by the
         entry prologue per execution *)
      let claim0 = match idxs with ix :: _ -> ix.Ir.x_range | [] -> None in
      (* typed stores; claims are kept for the first subscript only, so
         a rank-2 store stays checked like the generic scatter below *)
      let mode m d = (bounds_checked env m d claim0 None, store_run env) in
      let scatter a m rhs fs ~plural_arr =
        (* The generic scatter: global-array scatters run serially on
           the control thread, after a join (lane-order collisions, see
           [store_run]).  A plural array's leading subscript is the lane
           itself — element sets are shard-disjoint by construction — so
           that scatter is a lane loop, with a fresh subscript buffer per
           shard. *)
        let shard = plural_arr && Pool.nshards exec > 1 in
        if not shard then Pool.sync exec;
        (if shard then run else env.serial) (fun _ lo hi ->
            let sc =
              if shard then Array.make (nargs + 1) 0
              else if plural_arr then scratch1
              else scratch
            in
            for i = lo to hi - 1 do
              if Frame.Mask.get m i then begin
                let v = rv_lane rhs i in
                arr_set a (stage sc ~lane:plural_arr fs i) v
              end
            done)
      in
      fun m rhs -> (
        match Frame.get frame si with
        | Frame.Unbound ->
            Errors.runtime_error "assignment to undeclared array %s" name
        | Frame.Scalar _ | Frame.Plural _ ->
            Errors.runtime_error "%s is scalar but indexed" name
        | Frame.Global a -> (
            let ivs = List.map (fun c -> c m) cidx in
            let bp = m.Frame.Mask.bits in
            match (ivs, a, rhs) with
            | ([ RI ix ] | [ RI ix; RI _ ]), AInt d, (RI _ | RS (VInt _))
              when Nd.rank d = nargs ->
                let check, run = mode m d in
                let x = int_view rhs in
                scatter_i run bp ~check d ix (subscript2 ivs) None x x
            | ( ([ RI ix ] | [ RI ix; RI _ ]),
                AReal d,
                (RR _ | RI _ | RS (VReal _)) )
              when Nd.rank d = nargs ->
                let check, run = mode m d in
                let x = real_view run rhs in
                scatter_r run bp ~check d ix (subscript2 ivs) None x x
            | _ ->
                let sels = List.map rv_sel ivs in
                if List.exists snd sels || rv_is_plural rhs then
                  scatter a m rhs
                    (Array.of_list (List.map fst sels))
                    ~plural_arr:false
                else begin
                  Pool.sync exec;
                  List.iteri (fun k (f, _) -> scratch.(k) <- f 0) sels;
                  arr_set a scratch (rv_front_scalar rhs)
                end)
        | Frame.PluralArr a ->
            let sels = List.map (fun c -> rv_sel (c m)) cidx in
            scatter a m rhs
              (Array.of_list (List.map fst sels))
              ~plural_arr:true)

(** [-O1] fused store: [v = a op b] over variable/literal operands with
    an [Arith] operator, assigned to a typed plural.  The unfused engine
    runs an {e unmasked} compute pass into the operator's buffer and a
    masked copy into the binding; this runs one masked compute-store
    pass ([map2_i]/[map2_r]) straight into the binding's lanes — active
    lanes get the same values, inactive lanes keep their old ones,
    exactly like the copy.  Only total operators are admitted (the
    compute can slide past the tick unobserved), and only operand
    typings the unfused kernels take for that destination type, with at
    least one plural operand; anything else — including a front-end
    scalar result, whose unfused tick is a front-end tick — falls back
    to the factored unfused sequence.  In-place updates ([v = v + 1])
    alias destination and operand, which is safe: the store is
    elementwise at the same lane. *)
and compile_store_fused env ast (l : Ir.lv) e op ea eb : cstmt =
  let host = env.host in
  let loc = env.cur_loc in
  let frame = env.frame in
  let si = l.Ir.l_slot in
  let run = env.exec.Pool.x_run in
  let ce = compile_expr env e in
  let casgn = compile_assign env l in
  (* the leaves are pure reads: a fallback may evaluate them again *)
  let ca = compile_expr env ea and cb = compile_expr env eb in
  let lanes = function RI _ | RR _ -> true | _ -> false in
  fun m ->
    observe env m ast;
    let a = ca m in
    let b = cb m in
    (* the tick fires between the decision and the store, exactly where
       the unfused tick sits (a fuel fault at the tick must leave the
       binding untouched) *)
    let tick () = host.h_tick_vector ~loc ~kind:Lf_obs.Trace.Assign m in
    match Frame.get frame si with
    | Frame.Plural (Frame.LInt d)
      when is_int a && is_int b && (lanes a || lanes b) ->
        tick ();
        map2_i run m.Frame.Mask.bits op d (int_view a) (int_view b)
    | Frame.Plural (Frame.LReal d)
      when is_num a && is_num b
           && (lanes a || lanes b)
           && not (is_int a && is_int b) ->
        tick ();
        map2_r run m.Frame.Mask.bits op d (real_view run a) (real_view run b)
    | _ ->
        let rhs = ce m in
        tick_assign host loc m rhs;
        casgn m rhs

(** [-O1] scatter-accumulate ([Ir.s_accum]): [a(ix) = a(ix) + rest] with
    a pure arithmetic subscript.  The gather keeps its own pass (both
    for its error order and because the scatter must see the {e
    pre-statement} values — colliding lanes overwrite, they do not
    accumulate), but the final add is folded into the scatter kernel, so
    the sum is never materialized.  Evaluation order matches the
    unfused statement exactly: gather, rest, tick, subscript, store
    pass (the add is total on the typed shapes admitted here, so moving
    it across the tick is invisible).  Shapes outside the typed rank-1
    kernels — and the scalar-subscript case, whose unfused tick is a
    front-end tick — run the factored unfused sequence. *)
and compile_accum env ast (l : Ir.lv) scr g rest : cstmt =
  let host = env.host in
  let loc = env.cur_loc in
  let frame = env.frame in
  let si = l.Ir.l_slot in
  let cg = compile_expr env g in
  let crest = compile_expr env rest in
  let sub = match l.Ir.l_index with [ ix ] -> ix | _ -> assert false in
  let cix = compile_expr env sub in
  (* the factored unfused add: same dispatch, its own buffer site *)
  let add = binop_rv env.exec (site_buffers env scr) Ast.Add in
  let casgn = compile_assign env l in
  let exec = env.exec in
  fun m ->
    observe env m ast;
    let gv = cg m in
    let rv = crest m in
    let tick () = host.h_tick_vector ~loc ~kind:Lf_obs.Trace.Assign m in
    (* the merged add-and-store pass; each lane adds into its own
       element (the gathered pre-statement values are already
       materialized in [gv]) *)
    let merged d scatter =
      tick ();
      match cix m with
      | RI ix ->
          let check = bounds_checked env m d sub.Ir.x_range None in
          scatter (store_run env) m.Frame.Mask.bits ~check ix;
          Stats.incr st_accum_merged
      | _ ->
          (* non-int-vector subscript: finish unfused (the vector tick
             has fired — the unfused add result is plural) *)
          casgn m (add m gv rv)
    in
    match (Frame.get frame si, gv) with
    | Frame.Global (AReal d), RR x when Nd.rank d = 1 && is_num rv ->
        (* a serial store run joins first, so the promotion loop is
           complete when the store reads it *)
        let y = real_view exec.Pool.x_run rv in
        merged d (fun run bp ~check ix ->
            scatter_r run bp ~check d ix one (Some Add) x y)
    | Frame.Global (AInt d), RI x when Nd.rank d = 1 && is_int rv ->
        let y = int_view rv in
        merged d (fun run bp ~check ix ->
            scatter_i run bp ~check d ix one (Some Add) x y)
    | _ ->
        let rhs = add m gv rv in
        tick_assign host loc m rhs;
        casgn m rhs

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and compile_stmt env (s : Ir.stmt) : cstmt =
  let host = env.host in
  let loc = env.cur_loc in
  let ast = s.Ir.s_ast in
  match s.Ir.s_node with
  | Ir.LLoc (loc, s) ->
      (* compile the wrapped statement under its location; annotate
         runtime errors escaping the compiled closure (innermost located
         statement wins, already-located errors pass through) *)
      let saved = env.cur_loc in
      env.cur_loc <- loc;
      let cs = compile_stmt env s in
      env.cur_loc <- saved;
      (* the lane loops this statement issues carry its location to the
         join that runs them (an exception leaving it ends the run) *)
      let exec = env.exec and here = Some loc in
      fun m ->
        let outer = Pool.issue_loc exec in
        Pool.set_issue_loc exec here;
        (try cs m
         with Errors.Runtime_error msg ->
           raise (Errors.Runtime_error_at (loc, msg)));
        Pool.set_issue_loc exec outer
  | Ir.LNop -> fun _ -> ()
  | Ir.LAssign (l, e) when s.Ir.s_accum -> (
      match e.Ir.x_node with
      | Ir.XBin (Ast.Add, g, rest) ->
          compile_accum env ast l e.Ir.x_scr g rest
      | _ -> assert false (* [Opt.mark_accum] only marks this shape *))
  | Ir.LAssign (l, ({ Ir.x_node = Ir.XBin (op, a, b); _ } as e))
    when env.opt >= 1 && l.Ir.l_index = [] && kind op = Arith
         && is_leaf a && is_leaf b ->
      compile_store_fused env ast l e op a b
  | Ir.LAssign (l, e) ->
      let ce = compile_expr env e in
      let casgn = compile_assign env l in
      fun m ->
        observe env m ast;
        let rhs = ce m in
        tick_assign host loc m rhs;
        casgn m rhs
  | Ir.LScall (name, args) -> (
      let key = String.lowercase_ascii name in
      let cargs =
        List.map (fun (e, exact) -> (compile_expr env e, exact)) args
      in
      fun m ->
        (* a CALL is a join: the procedure sees the whole state *)
        Pool.sync env.exec;
        observe env m ast;
        match host.h_find_proc key with
        | None -> Errors.runtime_error "unknown subroutine %s" name
        | Some f ->
            host.h_call_metric key;
            host.h_tick_vector ~loc ~kind:Lf_obs.Trace.Call m;
            let vargs =
              List.map (fun (c, exact) -> rv_to_pval ~exact m (c m)) cargs
            in
            host.h_flush ();
            f ~mask:(Frame.Mask.to_bool_array m) vargs;
            host.h_import ())
  | Ir.LIf (c, t, f) | Ir.LWhere (c, t, f) -> (
      let cc = compile_expr env c in
      let ct = compile_block env t and cf = compile_block env f in
      let mt = Frame.Mask.create_empty env.p in
      let mf = Frame.Mask.create_empty env.p in
      let nts = Array.make (Pool.nshards env.exec) 0 in
      let where m =
        let cv = cc m in
        host.h_tick_vector ~loc ~kind:Lf_obs.Trace.Where m;
        split_mask env.exec nts m cv mt mf;
        ct mt;
        cf mf
      in
      match s.Ir.s_node with
      | Ir.LWhere _ -> where
      | _ -> (
          fun m ->
            match cc m with
            | RS v ->
                host.h_tick_frontend ();
                if as_bool v then ct m else cf m
            | RA _ -> Errors.runtime_error "array condition"
            | _ ->
                (* plural IF runs as WHERE, and like the tree-walker's
                   [SWhere] dispatch it re-evaluates the condition *)
                where m))
  | Ir.LWhile (c, body) ->
      let cc = compile_expr env c in
      let cb = compile_block env body in
      let p = env.p in
      fun m ->
        let continue_ () =
          match cc m with
          | RS v ->
              host.h_tick_frontend ();
              as_bool v
          | RA _ -> Errors.runtime_error "array condition"
          | RB a ->
              (* vector-controlled WHILE (§2): active lanes must agree;
                 unboxed comparison, no per-lane boxing, after a join *)
              host.h_tick_vector ~loc ~kind:Lf_obs.Trace.While m;
              Pool.sync env.exec;
              let seen = ref false and v0 = ref false in
              for i = 0 to p - 1 do
                if Frame.Mask.get m i then
                  if not !seen then begin
                    v0 := Array.unsafe_get a i;
                    seen := true
                  end
                  else if Array.unsafe_get a i <> !v0 then
                    Errors.runtime_error
                      "vector-controlled WHILE with divergent lane values"
              done;
              !seen && !v0
          | cv ->
              host.h_tick_vector ~loc ~kind:Lf_obs.Trace.While m;
              Pool.sync env.exec;
              let first = ref None in
              for i = 0 to p - 1 do
                if Frame.Mask.get m i then
                  let x = rv_lane cv i in
                  match !first with
                  | None -> first := Some x
                  | Some v0 ->
                      if not (Values.equal_value v0 x) then
                        Errors.runtime_error
                          "vector-controlled WHILE with divergent lane values"
              done;
              (match !first with None -> false | Some v0 -> as_bool v0)
        in
        while continue_ () do
          cb m
        done
  | Ir.LDoWhile (body, c) ->
      let cc = compile_expr env c in
      let cb = compile_block env body in
      fun m ->
        let go = ref true in
        while !go do
          cb m;
          go :=
            (match cc m with
            | RS v ->
                host.h_tick_frontend ();
                as_bool v
            | _ ->
                Errors.runtime_error "DO WHILE condition must be front-end")
        done
  | Ir.LDo (si, vname, lo_e, hi_e, step_e, body) ->
      let clo = compile_expr env lo_e in
      let chi = compile_expr env hi_e in
      let cstep = Option.map (compile_expr env) step_e in
      let cb = compile_block env body in
      let frame = env.frame in
      let set_var v =
        match Frame.get frame si with
        | Frame.Scalar r -> r := v
        | Frame.Unbound -> Frame.set frame si (Frame.Scalar (ref v))
        | _ -> Errors.runtime_error "%s is not a front-end scalar" vname
      in
      fun m ->
        let lo = rv_front_int (clo m) in
        let hi = rv_front_int (chi m) in
        let step =
          match cstep with Some cs -> rv_front_int (cs m) | None -> 1
        in
        if step = 0 then Errors.runtime_error "DO loop with zero step";
        host.h_tick_frontend ();
        let i = ref lo in
        let cont () = if step > 0 then !i <= hi else !i >= hi in
        while cont () do
          set_var (VInt !i);
          cb m;
          host.h_tick_frontend ();
          i := !i + step
        done;
        (* Fortran: the DO variable keeps the first failing value *)
        set_var (VInt !i)
  | Ir.LGoto -> fun _ -> Errors.runtime_error "GOTO is not part of F90simd"

and compile_block env (b : Ir.block) : cstmt =
  let cs = Array.map (compile_stmt env) b in
  let n = Array.length cs in
  fun m ->
    for i = 0 to n - 1 do
      (Array.unsafe_get cs i) m
    done

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Every name a program can bind or reference as a variable, in first-use
    order: declarations, lvalues, DO variables, [EVar] and [EIdx] heads
    (an [EIdx] head that is really a function keeps an unbound slot and
    falls back to the call path at run time). *)
let var_names (prog : program) : string list =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  let add n =
    if not (Hashtbl.mem tbl n) then begin
      Hashtbl.replace tbl n ();
      order := n :: !order
    end
  in
  add "iproc";
  List.iter (fun d -> add d.dc_name) prog.p_decls;
  (* outside-in, left to right *)
  let ex =
    Ast_util.fold_expr
      (fun () -> function EVar v | EIdx (v, _) -> add v | _ -> ())
      ()
  in
  let rec st = function
    | SLoc (_, s) -> st s
    | SComment _ | SLabel _ | SGoto _ -> ()
    | SCondGoto (e, _) -> ex e
    | SAssign (l, e) ->
        add l.lv_name;
        List.iter ex l.lv_index;
        ex e
    | SCall (_, es) -> List.iter ex es
    | SIf (e, t, f) | SWhere (e, t, f) ->
        ex e;
        blk t;
        blk f
    | SWhile (e, b) ->
        ex e;
        blk b
    | SDoWhile (b, e) ->
        blk b;
        ex e
    | SDo (c, b) | SForall (c, b) ->
        add c.d_var;
        ex c.d_lo;
        ex c.d_hi;
        Option.iter ex c.d_step;
        blk b
  and blk b = List.iter st b in
  blk prog.p_body;
  List.rev !order

(* The front half of [compile]: lower to slot-resolved IR and run the
   optimizer/verifier.  Split out so the program cache can pay this once
   per (source, opt, verify, p) and feed the annotated IR back through
   [emit] on every warm run — emission never mutates the IR (annotation
   writes live in [Opt] only), so one lowered block may be re-emitted
   against any frame sharing the layout it was lowered with. *)
let lower ~frame ?(opt = 1) ?(verify = false) (body : block) : Ir.block =
  Opt.run ~level:opt ~frame ~verify (Ir.of_block frame body)

(* The back half: emit OCaml closures from an already-lowered IR. *)
let emit ~host ~frame ~exec ?(opt = 1) (ir : Ir.block) :
    Frame.Mask.t -> unit =
  assert (exec.Pool.x_p = host.h_p);
  let env =
    {
      host;
      frame;
      p = host.h_p;
      exec;
      serial = (Pool.serial_exec ~p:host.h_p).Pool.x_run;
      cur_loc = Errors.no_pos;
      opt;
      entry_ok = false;
    }
  in
  let cbody =
    let body = compile_block env ir in
    (* the end of the run is a join; so is an exception leaving it *)
    fun m -> Pool.settle exec body m
  in
  if opt < 2 then cbody
  else begin
    (* [-O2] entry prologue: every interval claim may descend from the
       analysis' [iproc = 1..P] seed, so each application of the
       compiled body revalidates that the frame's [iproc] binding is
       still the canonical lane vector before any claim-gated fast path
       may fire.  The engines import the VM's
       variable table before applying the body, so a caller-rebound
       [iproc] is visible here; within a run, claims downstream of a
       CALL never rely on [iproc] (the analysis havocs at calls). *)
    let iproc = Frame.slot_index frame "iproc" in
    fun m ->
      env.entry_ok <-
        (match iproc with
        | None -> false
        | Some si -> (
            match Frame.get frame si with
            | Frame.Plural (Frame.LInt a) ->
                Array.length a = env.p
                &&
                let ok = ref true in
                for i = 0 to env.p - 1 do
                  if Array.unsafe_get a i <> i + 1 then ok := false
                done;
                !ok
            | _ -> false));
      cbody m
  end

let compile ~host ~frame ~exec ?(opt = 1) ?(verify = false)
    (body : block) : Frame.Mask.t -> unit =
  emit ~host ~frame ~exec ~opt (lower ~frame ~opt ~verify body)
