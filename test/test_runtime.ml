(** Unit tests for the runtime substrate: [Nd] arrays, [Pval] plural
    values, [Fresh] names, [Validate] reports, and intrinsic edge cases. *)

open Helpers
open Lf_lang
open Values

(* ------------------------------------------------------------------ *)
(* Nd                                                                  *)
(* ------------------------------------------------------------------ *)

let t_nd_basics () =
  let a = Nd.create [| 3; 2 |] 0 in
  checki "size" 6 (Nd.size a);
  checki "rank" 2 (Nd.rank a);
  Nd.set a [| 2; 1 |] 7;
  checki "get" 7 (Nd.get a [| 2; 1 |]);
  (* column-major: (2,1) is flat index 1 *)
  checki "column-major layout" 7 (Nd.get_flat a 1);
  (match Nd.get a [| 4; 1 |] with
  | exception Errors.Runtime_error _ -> ()
  | _ -> Alcotest.fail "bounds");
  (match Nd.get a [| 1 |] with
  | exception Errors.Runtime_error _ -> ()
  | _ -> Alcotest.fail "rank mismatch")

let t_nd_init_order () =
  (* init enumerates indices column-major, first index fastest *)
  let a = Nd.init [| 2; 2 |] (fun idx -> (10 * idx.(0)) + idx.(1)) in
  checkb "order" (Nd.to_array a = [| 11; 21; 12; 22 |])

let t_nd_slice () =
  let a = Nd.init [| 4; 3 |] (fun idx -> (10 * idx.(0)) + idx.(1)) in
  let row = Nd.slice a [ `One 2; `Range (1, 3) ] in
  checkb "row slice" (Nd.to_array row = [| 21; 22; 23 |]);
  let col = Nd.slice a [ `Range (2, 4); `One 3 ] in
  checkb "column slice" (Nd.to_array col = [| 23; 33; 43 |]);
  Nd.blit_slice a [ `Range (1, 2); `One 1 ] (`Scalar 0);
  checki "blit scalar" 0 (Nd.get a [| 1; 1 |]);
  checki "blit leaves rest" 31 (Nd.get a [| 3; 1 |])

let t_nd_map2 () =
  let a = Nd.of_array [| 1; 2; 3 |] and b = Nd.of_array [| 10; 20; 30 |] in
  checkb "map2" (Nd.to_array (Nd.map2 ( + ) a b) = [| 11; 22; 33 |]);
  let c = Nd.of_array [| 1; 2 |] in
  match Nd.map2 ( + ) a c with
  | exception Errors.Runtime_error _ -> ()
  | _ -> Alcotest.fail "shape mismatch"

(* ------------------------------------------------------------------ *)
(* Pval                                                                *)
(* ------------------------------------------------------------------ *)

module Pv = Lf_simd.Pval
module Frame = Lf_simd.Frame

let boxed = function
  | Pv.Plural l -> Some (Frame.values_of_lanes l)
  | _ -> None

let mask = Frame.Mask.of_bool_array [| true; false; true |]

(* [Pval.map_active], the boxed lift of the engine's fallbacks *)
let t_pval_lift () =
  let a = Pv.Plural (Frame.LBox [| VInt 1; VInt 2; VInt 3 |]) in
  let v =
    Pv.Plural
      (Pv.map_active ~mask (fun i ->
           Interp.apply_binop Ast.Add (Pv.lane a i) (VInt 10)))
  in
  (match boxed v with
  | Some [| VInt 11; _; VInt 13 |] -> ()
  | _ -> Alcotest.failf "map_active: %s" (Pv.to_string v));
  (* uniform active lanes re-specialize to unboxed ones *)
  match v with
  | Pv.Plural (Frame.LInt _) -> ()
  | v -> Alcotest.failf "not re-specialized: %s" (Pv.to_string v)

let t_pval_masked_lanes_untouched () =
  (* the inactive lane must not be evaluated: pass a poison value that
     would raise *)
  let a = Pv.Plural (Frame.LBox [| VInt 1; VBool true; VInt 3 |]) in
  let v =
    Pv.Plural (Pv.map_active ~mask (fun i -> VInt (as_int (Pv.lane a i) * 2)))
  in
  match boxed v with
  | Some [| VInt 2; _; VInt 6 |] -> ()
  | _ -> Alcotest.failf "map_active: %s" (Pv.to_string v)

let t_pval_reduce () =
  let a = Pv.Plural (Frame.LBox [| VInt 5; VInt 100; VInt 3 |]) in
  let m =
    Pv.reduce ~mask ~empty:(VInt min_int)
      (fun x y -> if as_int x >= as_int y then x else y)
      a
  in
  checki "masked max skips lane 2" 5 (as_int m);
  let none = Frame.Mask.create_empty 3 in
  checki "empty mask yields empty value" 42
    (as_int (Pv.reduce ~mask:none ~empty:(VInt 42) (fun x _ -> x) a))

let t_pval_broadcast () =
  match Pv.broadcast 4 (VInt 9) with
  | Pv.Plural vs ->
      checki "length" 4 (Frame.lanes_length vs);
      checki "lane" 9 (as_int (Pv.lane (Pv.Plural vs) 3))
  | _ -> Alcotest.fail "broadcast"

(* ------------------------------------------------------------------ *)
(* Fresh                                                               *)
(* ------------------------------------------------------------------ *)

let t_fresh () =
  let f = Lf_core.Fresh.of_names [ "t1"; "i" ] in
  checks "avoids taken" "t1_1" (Lf_core.Fresh.fresh f "t1");
  checks "second collision" "t1_2" (Lf_core.Fresh.fresh f "t1");
  checks "free name unchanged" "j" (Lf_core.Fresh.fresh f "j");
  checks "now taken" "j_1" (Lf_core.Fresh.fresh f "j");
  Lf_core.Fresh.reserve f "q";
  checks "reserved" "q_1" (Lf_core.Fresh.fresh f "q");
  let g = Lf_core.Fresh.of_block (parse_block "x(i) = y + 1") in
  checks "block names seen" "x_1" (Lf_core.Fresh.fresh g "x")

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)
(* ------------------------------------------------------------------ *)

let t_validate_catches_divergence () =
  let a = parse_block "s = 1" and b = parse_block "s = 2" in
  let r = Lf_core.Validate.compare_runs ~vars:[ "s" ] a b in
  checkb "mismatch detected" (not r.Lf_core.Validate.ok);
  (match r.Lf_core.Validate.mismatches with
  | [ Lf_core.Validate.Var_differs ("s", Some (VInt 1), Some (VInt 2)) ] -> ()
  | _ -> Alcotest.fail "mismatch shape");
  (* observation divergence *)
  let setup ctx = Interp.register_proc ctx "obs" (fun _ _ -> ()) in
  let a = parse_block "CALL obs(1)" and b = parse_block "CALL obs(2)" in
  let r = Lf_core.Validate.compare_runs ~setup ~vars:[] a b in
  checkb "observation mismatch" (not r.Lf_core.Validate.ok);
  let c = parse_block "CALL obs(1)\nCALL obs(1)" in
  let r2 = Lf_core.Validate.compare_runs ~setup ~vars:[] a c in
  checkb "length mismatch"
    (List.exists
       (function Lf_core.Validate.Obs_length _ -> true | _ -> false)
       r2.Lf_core.Validate.mismatches)

let t_validate_accepts_equal () =
  let a = parse_block "s = 2 + 3" and b = parse_block "s = 5" in
  let r = Lf_core.Validate.compare_runs ~vars:[ "s" ] a b in
  checkb "equal runs accepted" r.Lf_core.Validate.ok

(* ------------------------------------------------------------------ *)
(* Intrinsics edge cases                                               *)
(* ------------------------------------------------------------------ *)

let t_intrinsics_edges () =
  checkb "not an intrinsic" (Intrinsics.apply "force" [ VInt 1 ] = None);
  (match Intrinsics.apply "maxval" [ VArr (AInt (Nd.of_array [||])) ] with
  | exception Errors.Runtime_error _ -> ()
  | _ -> Alcotest.fail "maxval of empty");
  (match Intrinsics.apply "mod" [ VInt 5; VInt 0 ] with
  | exception Errors.Runtime_error _ -> ()
  | _ -> Alcotest.fail "mod by zero");
  checkb "merge true"
    (Intrinsics.apply "merge" [ VInt 1; VInt 2; VBool true ] = Some (VInt 1));
  checkb "size dim"
    (Intrinsics.apply "size"
       [ VArr (AInt (Nd.create [| 3; 5 |] 0)); VInt 2 ]
    = Some (VInt 5));
  (match Intrinsics.apply "size"
           [ VArr (AInt (Nd.create [| 3 |] 0)); VInt 9 ]
   with
  | exception Errors.Runtime_error _ -> ()
  | _ -> Alcotest.fail "size out of range");
  checkb "mixed max promotes"
    (match Intrinsics.apply "max" [ VInt 1; VReal 2.5 ] with
    | Some (VReal f) -> Float.abs (f -. 2.5) < 1e-12
    | _ -> false)

let suite =
  [
    case "nd basics" t_nd_basics;
    case "nd init order" t_nd_init_order;
    case "nd slicing" t_nd_slice;
    case "nd map2" t_nd_map2;
    case "pval lifting" t_pval_lift;
    case "pval masked lanes untouched" t_pval_masked_lanes_untouched;
    case "pval reductions" t_pval_reduce;
    case "pval broadcast" t_pval_broadcast;
    case "fresh names" t_fresh;
    case "validate catches divergence" t_validate_catches_divergence;
    case "validate accepts equality" t_validate_accepts_equal;
    case "intrinsic edge cases" t_intrinsics_edges;
  ]
