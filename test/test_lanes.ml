(** The lane kernels of [Scalar_ops] and [Intrinsics] against the boxed
    semantics, lane by lane.  The SIMD engine runs these kernels at
    every [-O] level, so comparing levels checks no arithmetic; these
    properties do, against [Scalar_ops.apply_binop] / [apply_unop],
    [Intrinsics.apply], [Nd.get] / [Nd.set] and [Pval.boxed_reduction].

    Each case draws a lane count (across the 64-lane chunk boundary), an
    empty, full or sparse mask (or [Scalar_ops.all_lanes]), operands
    that are lane vectors or one-cell broadcasts, and a result that may
    alias an operand.
    A raising lane must raise the boxed path's message for the first
    failing active lane.  A deterministic sweep then runs every operator
    arm of every kernel that matches its operator once per call, and one
    case checks that a kernel call allocates nothing per lane. *)

open Helpers
open Lf_lang
open Values
module Frame = Lf_simd.Frame
module Pval = Lf_simd.Pval
module S = Scalar_ops

type case = {
  p : int;
  bits : Bytes.t option;  (** [None]: [Scalar_ops.all_lanes] *)
}

let pick st l = List.nth l (Random.State.int st (List.length l))

let draw_case ~masked st =
  let p = pick st [ 1; 2; 3; 7; 64; 65; 130 ] in
  let bits =
    match Random.State.int st (if masked then 3 else 4) with
    | 0 -> Some (Bytes.make p '\000')
    | 1 -> Some (Bytes.make p '\001')
    | 2 ->
        let d = Random.State.float st 1.0 in
        Some
          (Bytes.init p (fun _ ->
               if Random.State.float st 1.0 < d then '\001' else '\000'))
    | _ -> None
  in
  { p; bits }

let bp c = match c.bits with Some b -> b | None -> S.all_lanes

let active c i =
  match c.bits with Some b -> Bytes.get b i <> '\000' | None -> true

let mask c = Frame.Mask.of_bool_array (Array.init c.p (active c))

let describe c =
  Fmt.str "p=%d mask=%s" c.p
    (match c.bits with
    | None -> "all_lanes"
    | Some b ->
        String.map
          (fun ch -> if ch = '\000' then '0' else '1')
          (Bytes.to_string b))

(* operands: a lane vector, or a one-cell broadcast a quarter of the time *)
let vec st c gen =
  if Random.State.int st 4 = 0 then [| gen st |]
  else Array.init c.p (fun _ -> gen st)

let small_int st =
  if Random.State.int st 10 = 0 then pick st [ max_int; min_int; -1 ]
  else Random.State.int st 7 - 3

let real st =
  if Random.State.int st 4 = 0 then
    pick st [ 0.0; -0.0; nan; infinity; neg_infinity; 1e300; -2.5 ]
  else Float.round (Random.State.float st 20.0 -. 10.0) /. 2.0

let bool st = Random.State.bool st
let at (a : _ array) i = a.(if Array.length a = 1 then 0 else i)

(* -- comparing outcomes -------------------------------------------- *)

let same_real x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  || (Float.is_nan x && Float.is_nan y)

let same_value a b =
  match (a, b) with VReal x, VReal y -> same_real x y | _ -> a = b

let outcome f =
  match f () with v -> Ok v | exception Errors.Runtime_error m -> Error m

let shown show = function
  | Ok a -> String.concat "," (Array.to_list (Array.map show a))
  | Error m -> "error: " ^ m

(* [kernel target] against the oracle: lane [i] of the result is [lane i]
   on every lane [on i] marks, in ascending order (the first raising
   lane's message otherwise); every other lane keeps what [target]
   held.  The oracle reads the operands before the kernel runs, so
   [target] may alias one. *)
let agree ?(on = fun _ -> true) ~eq ~show c what ~target kernel lane =
  let init = Array.copy target in
  let expected =
    outcome (fun () ->
        let r = Array.copy init in
        for i = 0 to c.p - 1 do
          if on i then r.(i) <- lane i
        done;
        r)
  in
  let got = outcome (fun () -> kernel target; target) in
  let ok =
    match (expected, got) with
    | Error m, Error m' -> String.equal m m'
    | Ok e, Ok g -> Array.length e = Array.length g && Array.for_all2 eq e g
    | _ -> false
  in
  ok
  || QCheck.Test.fail_reportf "%s, %s:@ expected %s@ got %s" what (describe c)
       (shown show expected) (shown show got)

let unexpected v = Errors.runtime_error "unexpected %s" (Values.to_string v)
let as_i = function VInt n -> n | v -> unexpected v
let as_r = function VReal x -> x | v -> unexpected v
let as_b = function VBool b -> b | v -> unexpected v

(* a result target: a copy of [init], or [x] itself when it is a whole
   lane vector *)
let target st c init x =
  if Array.length x = c.p && Random.State.bool st then x else Array.copy init

let prop ?(count = 200) name f =
  qcheck_case ~count name QCheck.Gen.int (fun seed ->
      f (Random.State.make [| seed |]))

let op_name op =
  Pretty.expr_to_string (Ast.EBin (op, Ast.EVar "x", Ast.EVar "y"))

let arith = [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod ]
let cmps = [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ]

(* -- operators ----------------------------------------------------- *)

let prop_map2_i =
  prop "map2_i equals apply_binop on int lanes" (fun st ->
      let c = draw_case ~masked:false st and op = pick st arith in
      let x = vec st c small_int and y = vec st c small_int in
      let init = Array.init c.p (fun _ -> small_int st) in
      agree ~on:(active c) ~eq:Int.equal ~show:string_of_int c
        (op_name op) ~target:(target st c init x)
        (fun r -> S.map2_i c.p (bp c) op r x y)
        (fun i -> as_i (S.apply_binop op (VInt (at x i)) (VInt (at y i)))))

let prop_map2_r =
  prop "map2_r equals apply_binop on real lanes" (fun st ->
      let c = draw_case ~masked:false st and op = pick st arith in
      let x = vec st c real and y = vec st c real in
      let init = Array.init c.p (fun _ -> real st) in
      agree ~on:(active c) ~eq:same_real ~show:string_of_float c
        (op_name op) ~target:(target st c init x)
        (fun r -> S.map2_r c.p (bp c) op r x y)
        (fun i -> as_r (S.apply_binop op (VReal (at x i)) (VReal (at y i)))))

let prop_cmp =
  prop "cmp_i, cmp_r and map2_b equal apply_binop" (fun st ->
      let c = draw_case ~masked:false st in
      let init = Array.init c.p (fun _ -> bool st) in
      let check what kernel lane =
        agree ~eq:Bool.equal ~show:string_of_bool c what
          ~target:(Array.copy init) kernel lane
      in
      let op = pick st cmps in
      let xi = vec st c small_int and yi = vec st c small_int in
      let xr = vec st c real and yr = vec st c real in
      let lop = pick st (Ast.And :: Ast.Or :: cmps) in
      let xb = vec st c bool and yb = vec st c bool in
      check "cmp_i"
        (fun r -> S.cmp_i c.p op r xi yi)
        (fun i -> as_b (S.apply_binop op (VInt (at xi i)) (VInt (at yi i))))
      && check "cmp_r"
           (fun r -> S.cmp_r c.p op r xr yr)
           (fun i ->
             as_b (S.apply_binop op (VReal (at xr i)) (VReal (at yr i))))
      && agree ~eq:Bool.equal ~show:string_of_bool c "map2_b"
           ~target:(target st c init xb)
           (fun r -> S.map2_b c.p lop r xb yb)
           (fun i ->
             as_b (S.apply_binop lop (VBool (at xb i)) (VBool (at yb i)))))

let prop_map1 =
  prop "map1_i, map1_r, map1_b and to_real equal apply_unop" (fun st ->
      let c = draw_case ~masked:false st in
      let copy = Random.State.bool st in
      let un op v = if copy then v else S.apply_unop op v in
      let u op = if copy then None else Some op in
      let xi = vec st c small_int and xr = vec st c real in
      let xb = vec st c bool in
      let ii = Array.init c.p (fun _ -> small_int st) in
      let ir = Array.init c.p (fun _ -> real st) in
      let ib = Array.init c.p (fun _ -> bool st) in
      let xf = Array.init c.p (fun _ -> small_int st) in
      agree ~on:(active c) ~eq:Int.equal ~show:string_of_int c "map1_i"
        ~target:(target st c ii xi)
        (fun r -> S.map1_i c.p (bp c) (u Ast.Neg) r xi)
        (fun i -> as_i (un Ast.Neg (VInt (at xi i))))
      && agree ~on:(active c) ~eq:same_real ~show:string_of_float c "map1_r"
           ~target:(target st c ir xr)
           (fun r -> S.map1_r c.p (bp c) (u Ast.Neg) r xr)
           (fun i -> as_r (un Ast.Neg (VReal (at xr i))))
      && agree ~on:(active c) ~eq:Bool.equal ~show:string_of_bool c "map1_b"
           ~target:(target st c ib xb)
           (fun r -> S.map1_b c.p (bp c) (u Ast.Not) r xb)
           (fun i -> as_b (un Ast.Not (VBool (at xb i))))
      && agree ~eq:same_real ~show:string_of_float c "to_real"
           ~target:(Array.copy ir)
           (fun r -> Array.blit (S.to_real xf) 0 r 0 c.p)
           (fun i -> float_of_int xf.(i)))

let prop_fill =
  prop "fill_v writes f on the marked lanes" (fun st ->
      let c = draw_case ~masked:false st in
      let raise_at = Random.State.int st (c.p + 1) in
      let f i =
        if i = raise_at then Errors.runtime_error "lane %d" i else VInt (i - 7)
      in
      agree ~on:(active c) ~eq:same_value ~show:Values.to_string c "fill_v"
        ~target:(Array.init c.p (fun i -> VInt i))
        (fun r -> S.fill_v c.p (bp c) r f)
        f)

(* -- gathers and scatters ------------------------------------------ *)

(* a rank-1 or rank-2 array and subscripts, some out of range; [ix2] is
   [[| 1 |]] for rank 1 *)
let draw_access st c make =
  let d1 = 1 + Random.State.int st 5 and rank2 = Random.State.bool st in
  let d2 = if rank2 then 1 + Random.State.int st 4 else 1 in
  let dims = if rank2 then [| d1; d2 |] else [| d1 |] in
  let d = Nd.init dims (fun _ -> make st) in
  let ix1 = Array.init c.p (fun _ -> Random.State.int st (d1 + 2)) in
  let ix2 =
    if rank2 then vec st c (fun st -> Random.State.int st (d2 + 2)) else [| 1 |]
  in
  let idx i = if rank2 then [| ix1.(i); at ix2 i |] else [| ix1.(i) |] in
  (d, ix1, ix2, idx)

let prop_gather =
  prop "gather_i and gather_r equal Nd.get" (fun st ->
      let c = draw_case ~masked:false st in
      let di, i1, i2, idx_i = draw_access st c small_int in
      let dr, r1, r2, idx_r = draw_access st c real in
      let ii = Array.init c.p (fun _ -> small_int st) in
      let ir = Array.init c.p (fun _ -> real st) in
      agree ~on:(active c) ~eq:Int.equal ~show:string_of_int c "gather_i"
        ~target:(Array.copy ii)
        (fun r -> S.gather_i c.p (bp c) r di i1 i2)
        (fun i -> Nd.get di (idx_i i))
      && agree ~on:(active c) ~eq:same_real ~show:string_of_float c "gather_r"
           ~target:(Array.copy ir)
           (fun r -> S.gather_r c.p (bp c) r dr r1 r2)
           (fun i -> Nd.get dr (idx_r i)))

(* The scatter against a serial boxed store: the subscript is checked,
   then the value computed and stored, lane by lane in ascending order;
   the array (also the part a failing lane leaves) and the error must
   agree. *)
let scatter_agree ~eq c what d idx kernel value =
  let d' = Nd.copy d in
  let expected =
    outcome (fun () ->
        for i = 0 to c.p - 1 do
          if active c i then begin
            let o = Nd.linear_index d' (idx i) in
            d'.Nd.data.(o) <- value i
          end
        done)
  in
  let got = outcome (fun () -> kernel ()) in
  (match (expected, got) with
  | Ok (), Ok () -> true
  | Error m, Error m' -> String.equal m m'
  | _ -> false)
  && Array.for_all2 eq d.Nd.data d'.Nd.data
  || QCheck.Test.fail_reportf "%s, %s: outcomes differ" what (describe c)

let prop_scatter =
  prop "scatter_i and scatter_r equal boxed stores" (fun st ->
      let c = draw_case ~masked:false st in
      let op = if Random.State.bool st then None else Some (pick st arith) in
      let di, i1, i2, idx_i = draw_access st c small_int in
      let dr, r1, r2, idx_r = draw_access st c real in
      let xi = vec st c small_int and yi = vec st c small_int in
      let xr = vec st c real and yr = vec st c real in
      let boxed x y =
        match op with None -> x | Some op -> S.apply_binop op x y
      in
      scatter_agree ~eq:Int.equal c "scatter_i" di idx_i
        (fun () -> S.scatter_i c.p (bp c) di i1 i2 op xi yi)
        (fun i -> as_i (boxed (VInt (at xi i)) (VInt (at yi i))))
      && scatter_agree ~eq:same_real c "scatter_r" dr idx_r
           (fun () -> S.scatter_r c.p (bp c) dr r1 r2 op xr yr)
           (fun i -> as_r (boxed (VReal (at xr i)) (VReal (at yr i)))))

(* -- reductions ---------------------------------------------------- *)

let prop_reduce =
  prop "lane_reduce equals Pval.boxed_reduction" (fun st ->
      let c = draw_case ~masked:true st in
      let kind = Random.State.int st 3 in
      let key =
        if kind = 2 then pick st [ "any"; "all"; "count" ]
        else pick st [ "sum"; "maxval"; "minval" ]
      in
      let cell, lanes =
        match kind with
        | 0 ->
            let a = Array.init c.p (fun _ -> small_int st) in
            (S.FI (Array.get a), Frame.LInt a)
        | 1 ->
            (* ties that [compare] equates but the bits tell apart *)
            let ties st = pick st [ 0.0; -0.0; nan; -1.0 ] in
            let gen = if Random.State.bool st then real else ties in
            let a = Array.init c.p (fun _ -> gen st) in
            (S.FR (Array.get a), Frame.LReal a)
        | _ ->
            let a = Array.init c.p (fun _ -> bool st) in
            (S.FB (Array.get a), Frame.LBool a)
      in
      let empty () = Pval.reduction_identity key (Frame.lane_value lanes 0) in
      let m = mask c in
      let want =
        Pval.boxed_reduction ~mask:m ~empty ~name:key key (Pval.Plural lanes)
      in
      let got =
        S.lane_reduce ~raising:(Random.State.bool st) key cell
          m.Frame.Mask.bits empty
      in
      S.reduces key cell && same_value want got
      || QCheck.Test.fail_reportf "%s, %s: expected %s got %s" key (describe c)
           (Values.to_string want) (Values.to_string got))

(* -- cells --------------------------------------------------------- *)

(* A cell against the boxed lane function on every lane, raising or
   not. *)
let cell_agree c what cell lane =
  let value = function
    | S.FI f -> fun i -> VInt (f i)
    | S.FR f -> fun i -> VReal (f i)
    | S.FB f -> fun i -> VBool (f i)
  in
  let f = value cell in
  let rec go i =
    i >= c.p
    ||
    match (outcome (fun () -> lane i), outcome (fun () -> f i)) with
    | Ok a, Ok b when same_value a b -> go (i + 1)
    | Error m, Error m' when String.equal m m' -> go (i + 1)
    | _ ->
        QCheck.Test.fail_reportf "%s, %s: lane %d differs" what (describe c) i
  in
  go 0

let draw_cell st c =
  match Random.State.int st 3 with
  | 0 ->
      let a = Array.init c.p (fun _ -> small_int st) in
      (S.FI (Array.get a), fun i -> VInt a.(i))
  | 1 ->
      let a = Array.init c.p (fun _ -> real st) in
      (S.FR (Array.get a), fun i -> VReal a.(i))
  | _ ->
      let a = Array.init c.p (fun _ -> bool st) in
      (S.FB (Array.get a), fun i -> VBool a.(i))

let prop_cells =
  prop "binop_cell, unop_cell and Intrinsics.cell equal the boxed path"
    (fun st ->
      let c = draw_case ~masked:false st in
      let (x, vx), (y, vy) = (draw_cell st c, draw_cell st c) in
      let op = pick st (Ast.Pow :: Ast.And :: Ast.Or :: (arith @ cmps)) in
      let uop = pick st [ Ast.Neg; Ast.Not ] in
      let key =
        pick st [ "sqrt"; "exp"; "abs"; "real"; "int"; "nint"; "mod" ]
      in
      let typed = function S.FB _ -> false | _ -> true in
      let logic = op = Ast.And || op = Ast.Or in
      let has_kernel =
        match (x, y) with
        | S.FB _, S.FB _ -> logic || List.mem op cmps
        | _ -> typed x && typed y && op <> Ast.Pow && not logic
      in
      (match S.binop_cell op x y with
      | Some cell ->
          has_kernel
          && cell_agree c "binop_cell" cell (fun i ->
                 S.apply_binop op (vx i) (vy i))
      | None -> not has_kernel)
      && (match S.unop_cell uop x with
         | Some cell ->
             cell_agree c "unop_cell" cell (fun i -> S.apply_unop uop (vx i))
         | None -> (uop = Ast.Neg) <> typed x)
      &&
      match Intrinsics.cell key x with
      | Some cell ->
          typed x && key <> "mod"
          && cell_agree c "Intrinsics.cell" cell (fun i ->
                 Option.get (Intrinsics.apply key [ vx i ]))
      | None -> key = "mod" || not (typed x))

let prop_gather_cell =
  prop "gather_cell equals Nd.get" (fun st ->
      let c = draw_case ~masked:false st in
      let di, i1, i2, idx = draw_access st c small_int in
      let dr = Nd.init (Nd.dims di) (fun _ -> real st) in
      let rank2 = Nd.rank di = 2 in
      let f2 = if rank2 then Some (at i2) else None in
      let cell a = Option.get (S.gather_cell a (Array.get i1) f2) in
      cell_agree c "gather_cell int" (cell (AInt di)) (fun i ->
          VInt (Nd.get di (idx i)))
      && cell_agree c "gather_cell real" (cell (AReal dr)) (fun i ->
             VReal (Nd.get dr (idx i))))

(* -- intrinsics ---------------------------------------------------- *)

let prop_intrinsics =
  prop "Intrinsics lane kernels equal Intrinsics.apply" (fun st ->
      let c = draw_case ~masked:false st in
      let on = active c and bp = bp c in
      let apply key args = Option.get (Intrinsics.apply key args) in
      let xi = vec st c small_int and yi = vec st c small_int in
      let xr = vec st c real and yr = vec st c real in
      let ii = Array.init c.p (fun _ -> small_int st) in
      let ir = Array.init c.p (fun _ -> real st) in
      let k1, key1 =
        pick st
          Intrinsics.
            [ (Sqrt, "sqrt"); (Exp, "exp"); (Abs, "abs"); (Real, "real") ]
      in
      let k2, key2 = pick st Intrinsics.[ (Max, "max"); (Min, "min") ] in
      let round = Random.State.bool st in
      let int_key = if round then "nint" else "int" in
      agree ~on ~eq:same_real ~show:string_of_float c key1
        ~target:(target st c ir xr)
        (fun r -> Intrinsics.real_map1 c.p bp k1 r xr)
        (fun i -> as_r (apply key1 [ VReal (at xr i) ]))
      && agree ~on ~eq:Int.equal ~show:string_of_int c "abs"
           ~target:(target st c ii xi)
           (fun r -> Intrinsics.int_abs c.p bp r xi)
           (fun i -> as_i (apply "abs" [ VInt (at xi i) ]))
      && agree ~on ~eq:Int.equal ~show:string_of_int c int_key
           ~target:(Array.copy ii)
           (fun r -> Intrinsics.to_int c.p bp ~round r xr)
           (fun i -> as_i (apply int_key [ VReal (at xr i) ]))
      && agree ~on ~eq:Int.equal ~show:string_of_int c key2
           ~target:(target st c ii xi)
           (fun r -> Intrinsics.int_map2 c.p bp k2 r xi yi)
           (fun i -> as_i (apply key2 [ VInt (at xi i); VInt (at yi i) ]))
      && agree ~on ~eq:same_real ~show:string_of_float c key2
           ~target:(target st c ir xr)
           (fun r -> Intrinsics.real_map2 c.p bp k2 r xr yr)
           (fun i -> as_r (apply key2 [ VReal (at xr i); VReal (at yr i) ])))

(* -- every operator arm, deterministically ------------------------- *)

(* A kernel matches its operator once, outside the loop, and runs one
   loop per operator, so an arm wired to the wrong operator shows only
   on that operator's lanes.  This sweep runs every arm of every
   specialised kernel on fixed operands, under every mask kind (all
   lanes, empty, full, sparse), operand shape (vec/vec, broadcast/vec,
   vec/broadcast) and a result that aliases an operand. *)

let sweep_p = 65

let sweep_cases =
  let sparse =
    Bytes.init sweep_p (fun i -> if i mod 3 = 1 then '\000' else '\001')
  in
  List.map
    (fun bits -> { p = sweep_p; bits })
    [
      None;
      Some (Bytes.make sweep_p '\000');
      Some (Bytes.make sweep_p '\001');
      Some sparse;
    ]

(* operands cycling with the coprime periods 9 and 7, so that vec/vec
   lanes meet every pair of values; the int divisor is zero only on the
   last lane, which raises after every other lane has run *)
let cycle l =
  let a = Array.of_list l in
  Array.init sweep_p (fun i -> a.(i mod Array.length a))

let ints_x = cycle [ -3; -1; 0; 1; 2; 5; max_int; min_int; 2 ]

let ints_y =
  let y = cycle [ 2; -1; 1; 7; 5; -3; 2 ] in
  y.(sweep_p - 1) <- 0;
  y

let reals_x =
  cycle [ 0.0; -0.0; nan; infinity; neg_infinity; 1.5; -2.5; 3.0; 1.5 ]

let reals_y = cycle [ -0.0; 1.5; nan; 0.0; neg_infinity; infinity; 3.0 ]
let shapes x y = [ (x, y); ([| x.(5) |], y); (x, [| y.(5) |]) ]

(* [kernel c op r x y] against [lane op x y i] on every case, operator
   and shape; [alias] also runs it with the result aliasing [x]. *)
let sweep ?alias ?(total = false) ~eq ~show what ops xs ys ~init kernel lane =
  List.for_all
    (fun c ->
      List.for_all
        (fun op ->
          List.for_all
            (fun (x, y) ->
              let x = Array.copy x in
              let aliased =
                match alias with
                | Some f when Array.length x = c.p -> [ f x ]
                | _ -> []
              in
              List.for_all
                (fun target ->
                  agree
                    ~on:(if total then fun _ -> true else active c)
                    ~eq ~show c (what op) ~target
                    (fun r -> kernel c op r x y)
                    (lane op x y))
                (Array.copy init :: aliased))
            (shapes xs ys))
        ops)
    sweep_cases

let num1s =
  Intrinsics.[ (Sqrt, "sqrt"); (Exp, "exp"); (Abs, "abs"); (Real, "real") ]

let num2s = Intrinsics.[ (Max, "max"); (Min, "min"); (Mod, "mod") ]

let t_arm_sweep () =
  let boxed_i x y f i = f (VInt (at x i)) (VInt (at y i)) in
  let boxed_r x y f i = f (VReal (at x i)) (VReal (at y i)) in
  let name k op = k ^ " " ^ op_name op in
  let un_name k = function
    | None -> k ^ " copy"
    | Some op -> k ^ " " ^ Pretty.expr_to_string (Ast.EUn (op, Ast.EVar "x"))
  in
  let un op v = match op with None -> v | Some op -> S.apply_unop op v in
  let ii = cycle [ 11; 12; 13 ] and ir = cycle [ 0.25; -0.5 ] in
  let ib = cycle [ true; false; false ] in
  let apply key args = Option.get (Intrinsics.apply key args) in
  let checks =
    [
      ( "map2_i",
        sweep ~alias:Fun.id ~eq:Int.equal ~show:string_of_int (name "map2_i")
          arith ints_x ints_y ~init:ii
          (fun c op r x y -> S.map2_i c.p (bp c) op r x y)
          (fun op x y i -> as_i (boxed_i x y (S.apply_binop op) i)) );
      ( "map2_r",
        sweep ~alias:Fun.id ~eq:same_real ~show:string_of_float
          (name "map2_r") arith reals_x reals_y ~init:ir
          (fun c op r x y -> S.map2_r c.p (bp c) op r x y)
          (fun op x y i -> as_r (boxed_r x y (S.apply_binop op) i)) );
      ( "cmp_i",
        sweep ~total:true ~eq:Bool.equal ~show:string_of_bool (name "cmp_i")
          cmps ints_x ints_y ~init:ib
          (fun c op r x y -> S.cmp_i c.p op r x y)
          (fun op x y i -> as_b (boxed_i x y (S.apply_binop op) i)) );
      ( "cmp_r",
        sweep ~total:true ~eq:Bool.equal ~show:string_of_bool (name "cmp_r")
          cmps reals_x reals_y ~init:ib
          (fun c op r x y -> S.cmp_r c.p op r x y)
          (fun op x y i -> as_b (boxed_r x y (S.apply_binop op) i)) );
      ( "map1_i",
        sweep ~alias:Fun.id ~eq:Int.equal ~show:string_of_int (un_name "map1_i")
          [ None; Some Ast.Neg ] ints_x ints_y ~init:ii
          (fun c op r x _ -> S.map1_i c.p (bp c) op r x)
          (fun op x _ i -> as_i (un op (VInt (at x i)))) );
      ( "map1_r",
        sweep ~alias:Fun.id ~eq:same_real ~show:string_of_float
          (un_name "map1_r") [ None; Some Ast.Neg ] reals_x reals_y ~init:ir
          (fun c op r x _ -> S.map1_r c.p (bp c) op r x)
          (fun op x _ i -> as_r (un op (VReal (at x i)))) );
      ( "Intrinsics.real_map1",
        sweep ~alias:Fun.id ~eq:same_real ~show:string_of_float snd num1s
          reals_x reals_y ~init:ir
          (fun c (k, _) r x _ -> Intrinsics.real_map1 c.p (bp c) k r x)
          (fun (_, key) x _ i -> as_r (apply key [ VReal (at x i) ])) );
      ( "Intrinsics.real_map2",
        sweep ~alias:Fun.id ~eq:same_real ~show:string_of_float snd num2s
          reals_x reals_y ~init:ir
          (fun c (k, _) r x y -> Intrinsics.real_map2 c.p (bp c) k r x y)
          (fun (_, key) x y i ->
            as_r (apply key [ VReal (at x i); VReal (at y i) ])) );
    ]
  in
  List.iter (fun (what, ok) -> checkb what ok) checks

(* The scatters' arms: a plain store and each accumulating operator, on
   rank-1 subscripts that collide (so the lanes must store in ascending
   order), the last one out of range. *)
let t_scatter_arm_sweep () =
  let ix = Array.init sweep_p (fun i -> 1 + (i * 7 mod 13)) in
  ix.(sweep_p - 1) <- 14;
  let idx i = [| ix.(i) |] in
  let ops = None :: List.map Option.some arith in
  let op_label = function None -> "store" | Some op -> op_name op in
  let stores ~eq name (d : _ Nd.t) xs ys kernel value =
    List.for_all
      (fun c ->
        List.for_all
          (fun op ->
            List.for_all
              (fun (x, y) ->
                let d = Nd.copy d in
                scatter_agree ~eq c
                  (name ^ " " ^ op_label op)
                  d idx
                  (fun () -> kernel c d op x y)
                  (value op x y))
              (shapes xs ys))
          ops)
      sweep_cases
  in
  let boxed op v w =
    match op with None -> v | Some op -> S.apply_binop op v w
  in
  checkb "scatter_i"
    (stores ~eq:Int.equal "scatter_i"
       (Nd.init [| 13 |] (fun j -> j.(0)))
       ints_x ints_y
       (fun c d op x y -> S.scatter_i c.p (bp c) d ix [| 1 |] op x y)
       (fun op x y i -> as_i (boxed op (VInt (at x i)) (VInt (at y i)))));
  checkb "scatter_r"
    (stores ~eq:same_real "scatter_r"
       (Nd.init [| 13 |] (fun j -> float_of_int j.(0) /. 4.0))
       reals_x reals_y
       (fun c d op x y -> S.scatter_r c.p (bp c) d ix [| 1 |] op x y)
       (fun op x y i -> as_r (boxed op (VReal (at x i)) (VReal (at y i)))))

(* MAX and MIN on reals are written out in [Intrinsics] rather than
   calling [Float.max] / [Float.min]; every ordered pair of special
   values must give Stdlib's result bit for bit, NaN signs and payloads
   included (which [same_real] would not see). *)
let t_max_min_bits () =
  let specials =
    [ 0.0; -0.0; nan; -.nan; Int64.float_of_bits 0x7ff0_0000_0000_0001L;
      Int64.float_of_bits 0xfff8_0000_0000_0002L; infinity; neg_infinity;
      1.5; -2.5; 1.5; 4.9e-324; -4.9e-324 ]
  in
  let pairs = List.concat_map (fun x -> List.map (fun y -> (x, y)) specials) specials in
  let x = Array.of_list (List.map fst pairs) in
  let y = Array.of_list (List.map snd pairs) in
  let n = Array.length x in
  let bits = Int64.bits_of_float in
  List.iter
    (fun (op, name, f) ->
      let r = Array.make n 0.0 in
      Intrinsics.real_map2 n S.all_lanes op r x y;
      Array.iteri
        (fun i got ->
          let want = f x.(i) y.(i) in
          if not (Int64.equal (bits got) (bits want)) then
            Alcotest.failf "%s %Lx %Lx: got %Lx, Stdlib gives %Lx" name
              (bits x.(i)) (bits y.(i)) (bits got) (bits want))
        r)
    [ (Intrinsics.Max, "max", Float.max); (Intrinsics.Min, "min", Float.min) ]

(* -- allocation ---------------------------------------------------- *)

(* One call of a typed kernel allocates nothing per lane, so it
   allocates the same minor words at 64 lanes as at 4096: a
   float boxed per lane fails this (read in the dev profile, where a
   lane function called across modules would box). *)
let kernel_calls p =
  let ri = Array.make p 0 and rr = Array.make p 0.0 in
  let rb = Array.make p false in
  let xi = Array.init p (fun i -> 1 + (i mod 5)) in
  let xr = Array.init p (fun i -> 0.5 +. float_of_int (i mod 5)) in
  let xb = Array.init p (fun i -> i land 1 = 0) in
  let di = Nd.init [| 5; 2 |] (fun _ -> 3) in
  let dr = Nd.init [| 5; 2 |] (fun _ -> 0.5) in
  let one = [| 1 |] and two = [| 2 |] in
  let sparse =
    Bytes.init p (fun i -> if i land 1 = 0 then '\001' else '\000')
  in
  let per_mask name f =
    [
      (name ^ " all_lanes", fun () -> f S.all_lanes);
      (name ^ " sparse", fun () -> f sparse);
    ]
  in
  let arms name ops f =
    List.concat_map (fun op -> per_mask (name ^ " " ^ op_name op) (f op)) ops
  in
  let un_ops = [ None; Some Ast.Neg ] in
  let label = function None -> "copy" | Some _ -> "neg" in
  List.concat
    [
      arms "map2_i" arith (fun op bp -> S.map2_i p bp op ri xi xi);
      arms "map2_r" arith (fun op bp -> S.map2_r p bp op rr xr xr);
      arms "cmp_i" cmps (fun op _ -> S.cmp_i p op rb xi xi);
      arms "cmp_r" cmps (fun op _ -> S.cmp_r p op rb xr xr);
      arms "map2_b" [ Ast.And; Ast.Eq ] (fun op _ -> S.map2_b p op rb xb xb);
      List.concat_map
        (fun op ->
          per_mask ("map1 " ^ label op) (fun bp ->
              S.map1_i p bp op ri xi;
              S.map1_r p bp op rr xr))
        un_ops;
      per_mask "map1_b" (fun bp -> S.map1_b p bp (Some Ast.Not) rb xb);
      per_mask "gathers" (fun bp ->
          S.gather_i p bp ri di xi two;
          S.gather_r p bp rr dr xi one);
      List.concat_map
        (fun op ->
          per_mask
            ("scatters "
            ^ match op with None -> "store" | Some op -> op_name op)
            (fun bp ->
              S.scatter_i p bp di xi two op xi xi;
              S.scatter_r p bp dr xi one op xr xr))
        (None :: List.map Option.some arith);
      List.concat_map
        (fun (k, key) ->
          per_mask key (fun bp -> Intrinsics.real_map1 p bp k rr xr))
        num1s;
      List.concat_map
        (fun (k, key) ->
          per_mask key (fun bp -> Intrinsics.real_map2 p bp k rr xr xr))
        num2s;
      per_mask "Intrinsics int kernels" (fun bp ->
          Intrinsics.int_abs p bp ri xi;
          Intrinsics.to_int p bp ~round:true ri xr;
          Intrinsics.int_map2 p bp Intrinsics.Max ri xi xi);
    ]

let minor_words f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let t_kernel_alloc () =
  List.iter2
    (fun (name, small) (_, large) ->
      Alcotest.(check (float 0.))
        (name ^ ": minor words at p = 4096 as at p = 64")
        (minor_words small) (minor_words large))
    (kernel_calls 64) (kernel_calls 4096)

(* A gather [v = h(s)] converts each lane's subscript to an index; a
   REAL subscript must convert without boxing a value per lane.  Lane
   vectors are in the minor heap at p = 64 and in the major heap at
   p = 4096, so the check reads what a run with the REAL subscript
   allocates beyond the same run with an INTEGER one (same program
   otherwise, same frame), which must not grow with p. *)
let gather_words p sub =
  let src =
    Printf.sprintf
      "PROGRAM t\n  PLURAL REAL r, v\n  PLURAL INTEGER k\n  REAL h(%d)\n\
      \  r = iproc * 1.0\n  k = iproc\n  v = h(%s)\nEND\n" p sub
  in
  let prog = Parser.program_of_string src in
  minor_words (fun () -> ignore (Lf_simd.Vm.run ~p prog))

let t_real_subscript_alloc () =
  let extra p = gather_words p "r" -. gather_words p "k" in
  Alcotest.(check (float 0.))
    "REAL-subscript gather: extra minor words at p = 4096 as at p = 64"
    (extra 64) (extra 4096)

let suite =
  [
    prop_map2_i;
    prop_map2_r;
    prop_cmp;
    prop_map1;
    prop_fill;
    prop_gather;
    prop_scatter;
    prop_reduce;
    prop_cells;
    prop_gather_cell;
    prop_intrinsics;
    case "every operator arm of every specialised kernel" t_arm_sweep;
    case "every scatter arm" t_scatter_arm_sweep;
    case "real MAX and MIN equal Float.max and Float.min bit for bit"
      t_max_min_bits;
    case "a kernel call allocates nothing per lane" t_kernel_alloc;
    case "a REAL subscript converts without allocating per lane"
      t_real_subscript_alloc;
  ]
