(** Execution frame of the SIMD engine, and the lane vectors it stores
    plural scalars in.

    The VM's variable table is a [(string, entry) Hashtbl.t]; the engine
    resolves each name {e once}, at compile time, to a dense integer slot
    in a frame.  Both store plural int/real/logical scalars unboxed as
    [int array] / [float array] / [bool array] lane vectors ([lanes]).
    A boxed [LBox] fallback keeps the data model permissive: a plural
    scalar whose lanes hold mixed types (e.g. a REAL written under a
    partial mask over an INTEGER-initialized variable) degrades to the
    boxed representation and re-specializes when it becomes uniform
    again.

    [Mask] is the activity mask of the lockstep machine: a reusable
    byte-per-lane bitset with a cached active count, so WHERE nesting and
    [tick_vector] accounting allocate nothing per step. *)

open Lf_lang

(** Unboxed plural-scalar storage; the boxed view of lane [i] of [LInt a]
    is [VInt a.(i)], etc. — conversions are value-preserving, so two
    lane vectors with equal boxed views are interchangeable. *)
type lanes =
  | LInt of int array
  | LReal of float array
  | LBool of bool array
  | LBox of Values.value array  (** mixed-type fallback *)

type slot =
  | Unbound  (** name seen in the program but not (yet) bound *)
  | Scalar of Values.value ref  (** front-end scalar (ref shared with the VM) *)
  | Plural of lanes  (** plural scalar, one component per lane *)
  | Global of Values.arr  (** global (distributed) array; storage shared *)
  | PluralArr of Values.arr  (** per-lane array; leading dim is the lane *)

type t = {
  p : int;
  names : string array;  (** slot index -> variable name *)
  slots : slot array;  (** mutable per-element; kinds may change at run time *)
  index : (string, int) Hashtbl.t;  (** compile-time name resolution *)
  mutable scr_i : int array array;  (** scratch pool, one lane vector per group *)
  mutable scr_r : float array array;
  mutable scr_b : bool array array;
}

let create ~p names =
  let names = Array.of_list names in
  let index = Hashtbl.create (Array.length names * 2) in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  {
    p;
    names;
    slots = Array.make (Array.length names) Unbound;
    index;
    scr_i = [||];
    scr_r = [||];
    scr_b = [||];
  }

(* Return a frame to its just-created slot state while keeping the name
   table and the lazily-grown scratch pools.  The program cache reuses
   frames across warm runs: slots must be re-imported per run (they
   alias VM storage), but scratch lane vectors may keep stale garbage —
   the engine's documented relaxation already allows computed-temporary
   lanes to hold garbage until (re)written, so reuse cannot change
   observable results. *)
let reset f = Array.fill f.slots 0 (Array.length f.slots) Unbound

let slot_index f name = Hashtbl.find_opt f.index name
let name_of f i = f.names.(i)
let n_slots f = Array.length f.slots
let get f i = f.slots.(i)
let set f i s = f.slots.(i) <- s

(* ------------------------------------------------------------------ *)
(* Scratch pool                                                        *)
(* ------------------------------------------------------------------ *)

(* The optimizer's liveness pass ([Opt.plan_scratch]) proves which
   operator result buffers are never simultaneously live and colors them
   into groups; sites in the same group share one lane vector per
   element type.  Vectors are allocated on first demand and live for the
   frame's lifetime, so steady-state execution allocates nothing. *)

let scr_int f g =
  let n = Array.length f.scr_i in
  if g >= n then begin
    let t = Array.make (g + 1) [||] in
    Array.blit f.scr_i 0 t 0 n;
    f.scr_i <- t
  end;
  if Array.length f.scr_i.(g) <> f.p then f.scr_i.(g) <- Array.make f.p 0;
  f.scr_i.(g)

let scr_real f g =
  let n = Array.length f.scr_r in
  if g >= n then begin
    let t = Array.make (g + 1) [||] in
    Array.blit f.scr_r 0 t 0 n;
    f.scr_r <- t
  end;
  if Array.length f.scr_r.(g) <> f.p then f.scr_r.(g) <- Array.make f.p 0.0;
  f.scr_r.(g)

let scr_bool f g =
  let n = Array.length f.scr_b in
  if g >= n then begin
    let t = Array.make (g + 1) [||] in
    Array.blit f.scr_b 0 t 0 n;
    f.scr_b <- t
  end;
  if Array.length f.scr_b.(g) <> f.p then f.scr_b.(g) <- Array.make f.p false;
  f.scr_b.(g)

(* ------------------------------------------------------------------ *)
(* Lane-vector conversions                                             *)
(* ------------------------------------------------------------------ *)

(** Unbox a [value array] when its lanes are type-uniform; keep the boxed
    array (shared, not copied) otherwise. *)
let lanes_of_values (vs : Values.value array) : lanes =
  let n = Array.length vs in
  if n = 0 then LBox vs
  else
    let uniform tag =
      let ok = ref true in
      for i = 0 to n - 1 do
        ok := !ok && tag vs.(i)
      done;
      !ok
    in
    match vs.(0) with
    | Values.VInt _ when uniform (function Values.VInt _ -> true | _ -> false)
      ->
        LInt (Array.map (function Values.VInt x -> x | _ -> 0) vs)
    | Values.VReal _
      when uniform (function Values.VReal _ -> true | _ -> false) ->
        LReal (Array.map (function Values.VReal x -> x | _ -> 0.0) vs)
    | Values.VBool _
      when uniform (function Values.VBool _ -> true | _ -> false) ->
        LBool (Array.map (function Values.VBool x -> x | _ -> false) vs)
    | _ -> LBox vs

(** Boxed view of a lane vector (fresh array). *)
let values_of_lanes (l : lanes) : Values.value array =
  match l with
  | LInt a -> Array.map (fun x -> Values.VInt x) a
  | LReal a -> Array.map (fun x -> Values.VReal x) a
  | LBool a -> Array.map (fun x -> Values.VBool x) a
  | LBox a -> Array.copy a

(** A private copy. *)
let copy_lanes (l : lanes) : lanes =
  match l with
  | LInt a -> LInt (Array.copy a)
  | LReal a -> LReal (Array.copy a)
  | LBool a -> LBool (Array.copy a)
  | LBox a -> LBox (Array.copy a)

(** [p] lanes holding [v]: unboxed for a scalar. *)
let make_lanes p (v : Values.value) : lanes =
  match v with
  | Values.VInt n -> LInt (Array.make p n)
  | Values.VReal x -> LReal (Array.make p x)
  | Values.VBool b -> LBool (Array.make p b)
  | Values.VArr _ -> LBox (Array.make p v)

let lanes_length = function
  | LInt a -> Array.length a
  | LReal a -> Array.length a
  | LBool a -> Array.length a
  | LBox a -> Array.length a

(** Boxed view of one lane (allocates for int/real). *)
let lane_value (l : lanes) i : Values.value =
  match l with
  | LInt a -> Values.VInt a.(i)
  | LReal a -> Values.VReal a.(i)
  | LBool a -> Values.VBool a.(i)
  | LBox a -> a.(i)

(* ------------------------------------------------------------------ *)
(* Activity masks                                                      *)
(* ------------------------------------------------------------------ *)

module Mask = struct
  (** One byte per lane plus a cached population count, the SIMD
      engine's mask: [bits] is what the lane kernels of [Scalar_ops] and
      [Intrinsics] read, and [active m] is O(1), so a step's accounting
      never scans the mask.  The engine reuses per-site buffers for
      WHERE nesting, so its masking allocates nothing per step. *)
  type t = {
    bits : Bytes.t;
    mutable active_n : int;
  }

  let create_full p = { bits = Bytes.make p '\001'; active_n = p }
  let create_empty p = { bits = Bytes.make p '\000'; active_n = 0 }
  let length m = Bytes.length m.bits
  let active m = m.active_n
  let get m i = Bytes.unsafe_get m.bits i <> '\000'

  (** Reset to all-inactive without reallocating. *)
  let clear m =
    Bytes.fill m.bits 0 (Bytes.length m.bits) '\000';
    m.active_n <- 0

  let to_bool_array m = Array.init (length m) (fun i -> get m i)

  let of_bool_array (a : bool array) =
    {
      bits =
        Bytes.init (Array.length a) (fun i -> Char.chr (Bool.to_int a.(i)));
      active_n = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a;
    }
end
