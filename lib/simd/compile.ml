(** The execution engine of the SIMD VM.

    [lower] and [emit] turn an F90simd block into a tree of OCaml
    closures, resolving every variable reference to a dense [Frame] slot
    at compile time (no hashtable lookups on the hot path), keeping plural int/real
    scalars unboxed, and threading the activity mask as a reusable
    [Frame.Mask] bitset with a cached active count, so WHERE nesting and
    step accounting allocate nothing per vector instruction.

    The contract is {e bit identity} with the boxed reference machine
    ([Lf_testgen.Ref_vm]) at every [-O] level: the same final variable
    state, the same [Metrics] counters, the same error messages raised
    at the same program points.  That includes the reference's quirks:
    - a plural [IF] is executed as [WHERE] {e after} evaluating its
      condition once for dispatch, so the condition is evaluated twice and
      any reductions inside it are counted twice;
    - inactive lanes of freshly bound plurals are inert [VInt 0];
    - scalar subscripts are converted with [as_int] eagerly, per-lane
      subscripts lazily per active lane;
    - user functions are looked up before intrinsics, reductions before
      both.

    One relaxation: the inactive lanes of a {e computed} temporary are
    unspecified (the unboxed fast paths here may compute all lanes, the
    reference leaves an inert zero).  Every
    point where they can escape — fresh binds, external-procedure
    arguments, a reduction's witness — reads them as the inert
    [VInt 0].

    The emitted closures read the run's VM state ([Vmstate]: procedures,
    functions, observer, the variable table behind the frame) directly,
    and charge every step through [Vmstate]'s accounting.  [Vmstate]
    sits below this module and [Vm] above it. *)

open Lf_lang
open Lf_lang.Ast
open Values

(* Runtime optimizer telemetry (section [Opt]).  The counters tick
   once per fused construct {e executed} (not per lane), so they vary
   with [-O] by construction.  [opt.short_circuits] counts executions
   of short-circuit-{e eligible} fused any/all plans (raise-free
   boolean regions) rather than lanes actually skipped. *)
module Stats = Lf_obs.Stats

(* No elementwise region runs any more, so this key always reads 0.  It
   stays registered because perfbench's [--trace 1] mode reads it from
   the stats dump and sums it into [fused_runs]. *)
let _ = Stats.counter ~section:Stats.Opt "opt.fused_region_runs"

let st_reduce_runs = Stats.counter ~section:Stats.Opt "opt.fused_reduce_runs"
let st_short_circuits = Stats.counter ~section:Stats.Opt "opt.short_circuits"

let st_accum_merged =
  Stats.counter ~section:Stats.Opt "opt.accum_merged_runs"

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

let lanes_of_rv = function
  | RI a -> Frame.LInt a
  | RR a -> Frame.LReal a
  | RB a -> Frame.LBool a
  | RP a -> Frame.LBox a
  | RS _ | RA _ -> invalid_arg "lanes_of_rv"

let rv_of_lanes = function
  | Frame.LInt a -> RI a
  | Frame.LReal a -> RR a
  | Frame.LBool a -> RB a
  | Frame.LBox a -> RP a

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

let pval_of_rv = function
  | RS s -> Pval.FScalar s
  | RA a -> Pval.FArr a
  | v -> Pval.Plural (lanes_of_rv v)

(** Boxed [Pval] view of a procedure argument ([Pval.expose]): [exact]
    plurals (variable references, ranges) expose their true lane
    contents, computed plurals the inert [VInt 0] outside the mask. *)
let rv_to_pval ~exact (m : Frame.Mask.t) v =
  match v with
  | RS s -> Pval.FScalar s
  | RA a -> Pval.FArr a
  | _ -> Pval.Plural (Pval.expose ~exact ~mask:m (lanes_of_rv v))

(* The boxed fallbacks: [f] on every active lane
   through the boxed view ([Pval.map_active]), and the re-specialization
   of a boxed vector by its active lanes ([Pval.specialize]), so
   downstream operators stay on their typed paths.  Inactive lanes of
   computed temporaries are unobservable (every escape point launders
   them to inert [VInt 0]). *)

let box_lift (m : Frame.Mask.t) f = rv_of_lanes (Pval.map_active ~mask:m f)
let box_lift2 m f x y = box_lift m (fun i -> f (rv_lane x i) (rv_lane y i))

let renorm (m : Frame.Mask.t) (vs : value array) : rv =
  rv_of_lanes (Pval.specialize ~mask:m vs)

(* ------------------------------------------------------------------ *)
(* The operator table                                                  *)
(* ------------------------------------------------------------------ *)

(** A lane operation that can raise, by error identity.  A fused plan
    admits at most one distinct class: every instance of the same class
    raises the same message for the same lane inputs, so the fused
    per-lane order hits the same first failing lane as the unfused
    per-operator passes.  Two
    distinct classes could surface the {e other} error first, so such
    regions fall back. *)
type rclass =
  | CDiv  (** integer division by zero *)
  | CMod  (** MOD by zero *)
  | CGather of int  (** bounds check of the gather op at this index *)

(** How the typed paths treat a binary operator.  Every typed path — the
    per-operator kernels, fused reductions, fused stores and merged
    scatter-accumulates — picks its [Scalar_ops] kernel or cell by
    [kind], so the fused paths type and compute exactly like the
    unfused dispatch.  Whatever the table does not cover (mismatched
    operand types, [**]) runs through the boxed [Scalar_ops] path. *)
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

(* ------------------------------------------------------------------ *)
(* Lane kernels                                                        *)
(* ------------------------------------------------------------------ *)

(* The typed lane loops are [Scalar_ops]' and [Intrinsics]' kernels;
   this module only picks one per operand shape, and each is one loop
   over the [p] lanes.  Control (masks, order, accounting) and the
   arithmetic are checked against the boxed reference machine
   ([Lf_testgen.Ref_vm]), which computes lane by lane through
   [Scalar_ops.apply_binop], and against [Interp]. *)

let all_lanes = Scalar_ops.all_lanes
let is_int = function RI _ | RS (VInt _) -> true | _ -> false
let is_num = function RI _ | RR _ | RS (VInt _ | VReal _) -> true | _ -> false
let is_bool = function RB _ | RS (VBool _) -> true | _ -> false

(* A kernel operand: a lane vector, or a one-cell array broadcasting a
   front-end scalar. *)
let int_view = function
  | RI a -> a
  | RS (VInt n) -> [| n |]
  | _ -> invalid_arg "int_view"

(* int lanes promote into a fresh vector, a lane loop of its own: an
   operand of a mixed int/real operation *)
let real_view = function
  | RR a -> a
  | RI a -> Scalar_ops.to_real a
  | RS (VReal x) -> [| x |]
  | RS (VInt n) -> [| float_of_int n |]
  | _ -> invalid_arg "real_view"

let bool_view = function
  | RB a -> a
  | RS (VBool b) -> [| b |]
  | _ -> invalid_arg "bool_view"

let one = [| 1 |]

(* the second subscript vector of a rank-2 typed access, [one] for rank 1 *)
let subscript2 = function [ _; RI ix2 ] -> ix2 | _ -> one

(** Typed per-lane closure over a fused region's postorder program: the
    whole elementwise chain collapses into one [int -> _] evaluated once
    per lane, with no intermediate plural temporaries.  Plain plural
    operands are cells too, when they reach a reduction. *)
type fcell = Scalar_ops.cell =
  | FI of (int -> int)
  | FR of (int -> float)
  | FB of (int -> bool)

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

(* ------------------------------------------------------------------ *)
(* Operator dispatch                                                   *)
(* ------------------------------------------------------------------ *)

(** A numeric intrinsic over plural operands on unboxed lanes, or [None]
    when [k] and the operand shapes have no kernel.  Every active lane
    holds the value the boxed path computes, and the result has the one
    type the boxed path's [renorm] picks for a non-empty mask.  All
    these kernels are total, so they compute every lane. *)
let intrinsic_kernel p b (k : Intrinsics.lane_fn) (args : rv list) :
    rv option =
  let bp = all_lanes in
  match (k, args) with
  | Num1 Abs, [ RI a ] ->
      Intrinsics.int_abs p bp b.ri a;
      Some b.res_i
  | Num1 k, [ ((RI _ | RR _) as a) ] ->
      Intrinsics.real_map1 p bp k b.rr (real_view a);
      Some b.res_r
  | To_int round, [ ((RI _ | RR _) as a) ] ->
      Intrinsics.to_int p bp ~round b.ri (real_view a);
      Some b.res_i
  | Num2 k, [ x; y ] when is_int x && is_int y ->
      Intrinsics.int_map2 p bp k b.ri (int_view x) (int_view y);
      Some b.res_i
  | Num2 k, [ x; y ] when is_num x && is_num y ->
      Intrinsics.real_map2 p bp k b.rr (real_view x) (real_view y);
      Some b.res_r
  | _ -> None

(** A binary operator over two compiled values: front-end scalars fold
    through [Scalar_ops], plural operands run the typed kernel their
    [kind] and lane types select, anything else the boxed path.
    Division and MOD by zero are only checked on active lanes (the
    reference never computes inactive lanes); every other kernel is
    exception-free, so it computes all lanes.  The result lands in the
    site's buffers [b] — per-site by default, or the site's scratch-pool
    vectors at [-O1]: a site's previous result is always consumed
    (copied into frame storage, a mask, a Pval, ...) before the site can
    evaluate again, so reusing them is invisible. *)
let binop_rv p b op : Frame.Mask.t -> rv -> rv -> rv =
  let app = Scalar_ops.apply_binop op in
  let typed =
    match kind op with
    | (Arith | Raising _) as k ->
        let raising = k <> Arith in
        fun m x y ->
          if is_int x && is_int y then begin
            let bp = if raising then m.Frame.Mask.bits else all_lanes in
            Scalar_ops.map2_i p bp op b.ri (int_view x) (int_view y);
            b.res_i
          end
          else if is_num x && is_num y then begin
            Scalar_ops.map2_r p all_lanes op b.rr (real_view x) (real_view y);
            b.res_r
          end
          else box_lift2 m app x y
    | (Cmp | Logic) as k ->
        fun m x y ->
          if is_bool x && is_bool y then begin
            Scalar_ops.map2_b p op b.rb (bool_view x) (bool_view y);
            b.res_b
          end
          else if k = Logic then box_lift2 m app x y
          else if is_int x && is_int y then begin
            Scalar_ops.cmp_i p op b.rb (int_view x) (int_view y);
            b.res_b
          end
          else if is_num x && is_num y then begin
            Scalar_ops.cmp_r p op b.rb (real_view x) (real_view y);
            b.res_b
          end
          else box_lift2 m app x y
    | Boxed -> fun m x y -> box_lift2 m app x y
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
  | RR a ->
      (* [as_int]'s test ([Float.is_integer]) written out, so that only
         its error boxes *)
      ( (fun i ->
          let f = a.(i) in
          if Float.trunc f = f && f -. f = 0.0 then int_of_float f
          else as_int (VReal f)),
        true )
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
    evaluate the condition, exactly like [Pval.split].
    The unboxed [RB] split is one lane loop that clears and fills both
    masks and counts the lanes it sends to [mt]; [mf] gets the rest.
    Every other split is [Pval.split]. *)
let split_mask (parent : Frame.Mask.t) cv (mt : Frame.Mask.t)
    (mf : Frame.Mask.t) =
  match cv with
  | RB a ->
      let bp = parent.Frame.Mask.bits in
      let bt = mt.Frame.Mask.bits and bf = mf.Frame.Mask.bits in
      let p = Bytes.length bp in
      Bytes.fill bt 0 p '\000';
      Bytes.fill bf 0 p '\000';
      let nt = ref 0 in
      for i = 0 to p - 1 do
        if Bytes.unsafe_get bp i <> '\000' then
          if Array.unsafe_get a i then begin
            Bytes.unsafe_set bt i '\001';
            incr nt
          end
          else Bytes.unsafe_set bf i '\001'
      done;
      mt.Frame.Mask.active_n <- !nt;
      mf.Frame.Mask.active_n <- Frame.Mask.active parent - !nt
  | _ -> Pval.split ~mask:parent (pval_of_rv cv) mt mf

(* ------------------------------------------------------------------ *)
(* Variable writes                                                     *)
(* ------------------------------------------------------------------ *)

(** Masked store into an existing plural slot.  Type-matched writes go
    straight into the unboxed storage (a masked copy); a type-changing
    write renormalizes through the boxed view (producing exactly the
    mixed array the reference would hold, modulo re-specialization). *)
let write_plural p frame si lanes (m : Frame.Mask.t) rhs =
  let bp = m.Frame.Mask.bits in
  match (lanes, rhs) with
  | Frame.LInt d, (RI _ | RS (VInt _)) ->
      Scalar_ops.map1_i p bp None d (int_view rhs)
  | Frame.LReal d, (RR _ | RS (VReal _)) ->
      Scalar_ops.map1_r p bp None d (real_view rhs)
  | Frame.LBool d, (RB _ | RS (VBool _)) ->
      Scalar_ops.map1_b p bp None d (bool_view rhs)
  | _ ->
      let vs = Frame.values_of_lanes lanes in
      Scalar_ops.fill_v p bp vs (rv_lane rhs);
      Frame.set frame si (Frame.Plural (Frame.lanes_of_values vs))

(** First assignment to an unbound name binds a scalar,
    a global, or a fresh plural whose inactive lanes are [VInt 0]
    ([Pval.expose]). *)
let bind_fresh frame si (m : Frame.Mask.t) rhs =
  match rhs with
  | RS v -> Frame.set frame si (Frame.Scalar (ref v))
  | RA a -> Frame.set frame si (Frame.Global a)
  | _ ->
      Frame.set frame si
        (Frame.Plural (Pval.expose ~exact:false ~mask:m (lanes_of_rv rhs)))

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type env = {
  vm : Vmstate.t;  (** the run's VM: procedures, functions, accounting *)
  frame : Frame.t;
  p : int;  (** number of lanes *)
  mutable cur_loc : Errors.pos;
      (** location of the [SLoc] wrapper being compiled; every tick site
          captures it at compile time, so the run-time closures carry
          their source attribution for free *)
  opt : int;  (** optimizer level; gates the [-O1]-only emitter paths *)
}
type cexpr = Frame.Mask.t -> rv
type cstmt = Frame.Mask.t -> unit

let observe env (m : Frame.Mask.t) s =
  match env.vm.Vmstate.observer with
  | None -> ()
  | Some f ->
      (* observers read VM state (the state probes of the tests) *)
      Vmstate.flush_frame env.vm env.frame;
      f env.vm ~mask:(Frame.Mask.to_bool_array m) s

let tick_vector env ~loc ~kind (m : Frame.Mask.t) =
  Vmstate.tick_vector env.vm ~loc ~kind m

let reduction env ~loc (m : Frame.Mask.t) = Vmstate.reduction env.vm ~loc m

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
  let set c x =
    c := x;
    true
  in
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
            pin (function VInt x -> set c x | _ -> false);
            (FI (fun _ -> !c), false)
        | VReal x ->
            let c = ref x in
            pin (function VReal x -> set c x | _ -> false);
            (FR (fun _ -> !c), false)
        | VBool x ->
            let c = ref x in
            pin (function VBool x -> set c x | _ -> false);
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
  let typed = function Some c -> c | None -> raise Not_fusible in
  let bin_cell op a b =
    let pl = plural.(a) || plural.(b) in
    (match (kind op, cells.(a), cells.(b)) with
    | Raising cls, FI _, FI _ ->
        if not pl then raise Not_fusible;
        add_class cls
    | _ -> ());
    (typed (Scalar_ops.binop_cell op cells.(a) cells.(b)), pl)
  in
  let un_cell op a = (typed (Scalar_ops.unop_cell op cells.(a)), plural.(a)) in
  let intr_cell key a =
    let shadowed () = Hashtbl.mem env.vm.Vmstate.funcs key in
    let s0 = shadowed () in
    note (fun () -> shadowed () = s0);
    if s0 then raise Not_fusible;
    (typed (Intrinsics.cell key cells.(a)), plural.(a))
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
    match Frame.get frame slot with
    | Frame.Global ((AInt _ | AReal _) as a) as b0 when nix <= 2 ->
        note (fun () -> Frame.get frame slot == b0);
        if Array.length (arr_dims a) <> nix || not pl then raise Not_fusible;
        add_class (CGather k);
        let f2 = if nix = 1 then None else Some fis.(1) in
        (typed (Scalar_ops.gather_cell a fis.(0) f2), true)
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
       front-end tick instead of a vector tick downstream) *)
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
let tick_assign env loc m rhs =
  if rv_is_plural rhs then tick_vector env ~loc ~kind:Lf_obs.Trace.Assign m
  else Vmstate.tick_frontend env.vm

let rec compile_expr env (e : Ir.expr) : cexpr =
  match e.Ir.x_fused with
  | Some (Ir.FReduce (key, rg)) -> compile_fused_reduction env e key rg
  | None -> compile_expr_node env e

(** A reduction over a fused region folds the per-lane closure straight
    into the canonical chunk fold ([Scalar_ops.lane_reduce]) — the argument
    vector is never materialized — so the result (including
    non-associative float SUM) stays bitwise identical to the unfused
    reduction. *)
and compile_fused_reduction env (e : Ir.expr) key rg : cexpr =
  let name, arg =
    match e.Ir.x_node with
    | Ir.XCall (n, [ a ]) -> (n, a)
    | _ -> assert false
  in
  let carg = compile_expr env arg in
  let loc = env.cur_loc in
  (* regions are never bare variable reads, so the empty-mask witness
     is the inert [VInt 0] (lane 0 is inactive there) *)
  let empty () = Pval.reduction_identity key (VInt 0) in
  let fb m = RS (reduce_rv ~is_var:false m name key (carg m)) in
  let checks = ref [||] in
  let runner = ref None in
  let sc_eligible = ref false in
  let fresh = ref true in
  fun m ->
    reduction env ~loc m;
    if !fresh || not (Array.for_all (fun c -> c ()) !checks) then begin
      let cks, plan = region_plan env rg in
      checks := cks;
      runner :=
        (match plan with
        | Some (root, _) when Scalar_ops.reduces key root -> plan
        | _ -> None);
      sc_eligible :=
        Option.is_some !runner
        && (match plan with
           | Some (_, raising) ->
               (not raising) && (key = "any" || key = "all")
           | None -> false);
      fresh := false
    end;
    (match !runner with
    | Some (root, raising) ->
        Stats.incr st_reduce_runs;
        if !sc_eligible then Stats.incr st_short_circuits;
        RS (Scalar_ops.lane_reduce ~raising key root m.Frame.Mask.bits empty)
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
            | Frame.Plural (Frame.LBox a) -> RP (Array.copy a)
            | Frame.Global a | Frame.PluralArr a -> RA a))
  | Ir.XUn (op, a) -> compile_unop env e.Ir.x_scr op (compile_expr env a)
  | Ir.XBin (op, a, b) ->
      let ca = compile_expr env a and cb = compile_expr env b in
      let apply = binop_rv env.p (site_buffers env e.Ir.x_scr) op in
      fun m ->
        let a = ca m in
        let b = cb m in
        apply m a b
  | Ir.XCall (name, args) -> compile_call env e.Ir.x_scr name args
  | Ir.XIdx (si, name, args) -> compile_index env e.Ir.x_scr si name args

and compile_unop env scr op ca : cexpr =
  let gen = Scalar_ops.apply_unop op in
  let p = env.p in
  let b = site_buffers env scr in
  let u = Some op in
  fun m ->
    match (op, ca m) with
    | _, RS x -> RS (gen x)
    | Neg, RI a ->
        Scalar_ops.map1_i p all_lanes u b.ri a;
        b.res_i
    | Neg, RR a ->
        Scalar_ops.map1_r p all_lanes u b.rr a;
        b.res_r
    | Not, RB a ->
        Scalar_ops.map1_b p all_lanes u b.rb a;
        b.res_b
    | _, RA _ -> Errors.runtime_error "array operand in a lane-wise operation"
    | _, v -> box_lift m (fun i -> gen (rv_lane v i))

and compile_call env scr name args : cexpr =
  let key = Intrinsics.key name in
  if Intrinsics.is_reduction key then compile_reduction env name key args
  else
    let cargs = List.map (compile_expr env) args in
    let p = env.p in
    (* [-O1]: results of a plural call are almost always one scalar type
       across the active lanes — store them straight into per-site
       unboxed buffers, skipping the boxed staging vector and the
       [renorm] pass.  The first active lane picks the buffer; at the
       first lane of a second type the pass re-boxes what it stored
       (value boxes carry no identity) and stages the rest boxed in
       [side], which is then renormalized — what the boxed path
       computes.  Still exactly one call per active lane, ascending. *)
    let typed = env.opt >= 1 in
    let intr = Intrinsics.lane_fn key in
    let b =
      if typed || Option.is_some intr then site_buffers env scr
      else bufs [||] [||] [||]
    in
    let side = lazy (Array.make p (VInt 0)) in
    let typed_lane t i =
      match t with 1 -> VInt b.ri.(i) | 2 -> VReal b.rr.(i) | _ -> VBool b.rb.(i)
    in
    let call_typed (call : int -> value) (m : Frame.Mask.t) : rv =
      let bp = m.Frame.Mask.bits and side = Lazy.force side in
      let tag = ref 0 in
      for i = 0 to p - 1 do
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
              for k = 0 to i - 1 do
                if Bytes.unsafe_get bp k <> '\000' then
                  side.(k) <- typed_lane t k
              done;
              side.(i) <- v;
              tag := 4
      done;
      (* 0: no active lane; 1-3: one scalar type everywhere; 4: mixed *)
      match !tag with
      | 0 -> RP (Array.make p (VInt 0))
      | 1 -> b.res_i
      | 2 -> b.res_r
      | 3 -> b.res_b
      | _ ->
          let vs = Array.make p (VInt 0) in
          for i = 0 to p - 1 do
            if Bytes.unsafe_get bp i <> '\000' then vs.(i) <- side.(i)
          done;
          renorm m vs
    in
    fun m ->
      match Hashtbl.find_opt env.vm.Vmstate.funcs key with
      | Some f ->
          let vargs = List.map (fun c -> c m) cargs in
          if List.exists rv_is_plural vargs then begin
            (* exactly one call per active lane, ascending (callees may
               count invocations or record their order); inactive lanes
               keep the static [VInt 0] *)
            let call =
              match vargs with
              | [ a; b ] -> fun i -> f [ rv_lane a i; rv_lane b i ]
              | _ -> fun i -> f (List.map (fun v -> rv_lane v i) vargs)
            in
            if typed then call_typed call m
            else begin
              let vs = Array.make p (VInt 0) in
              Scalar_ops.fill_v p m.Frame.Mask.bits vs call;
              renorm m vs
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
                  intrinsic_kernel p b k vargs
              | _ -> None
            in
            match typed_result with
            | Some r -> r
            | None ->
                let vs = Array.make p (VInt 0) in
                Scalar_ops.fill_v p m.Frame.Mask.bits vs (fun i ->
                    match
                      Intrinsics.apply key
                        (List.map (fun v -> rv_lane v i) vargs)
                    with
                    | Some r -> r
                    | None -> Errors.runtime_error "unknown function %s" name);
                renorm m vs)
          else
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
  let loc = env.cur_loc in
  let carg =
    match args with [ a ] -> Some (compile_expr env a) | _ -> None
  in
  let is_var =
    match args with [ { Ir.x_ast = Ast.EVar _; _ } ] -> true | _ -> false
  in
  fun m ->
    reduction env ~loc m;
    let v =
      match carg with
      | Some c -> c m
      | None -> Errors.runtime_error "%s expects one argument" name
    in
    RS (reduce_rv ~is_var m name key v)

(** Reduction of an evaluated argument: [Pval.reduction].  The witness
    of a plural-variable read ([is_var]) is its stored lane 0, that of a
    computed temporary the inert [VInt 0] when lane 0 is inactive. *)
and reduce_rv ~is_var (m : Frame.Mask.t) name key v =
  Pval.reduction ~mask:m ~exact:is_var ~name key (pval_of_rv v)

and compile_index env scr si name args : cexpr =
  let frame = env.frame in
  let cargs = List.map (compile_expr env) args in
  let nargs = List.length args in
  let scratch = Array.make nargs 0 in
  let scratch1 = Array.make (nargs + 1) 0 in
  (* the name may turn out to be a function at run time (it falls back
     to the call path when the slot is unbound) *)
  let ccall = compile_call env scr name args in
  let p = env.p in
  let b = site_buffers env scr in
  (* The generic gather: each lane's subscript vector is staged in the
     site's scratch buffer and read through [Nd.get].  A plural array's
     leading subscript is the lane itself: it reads its own lanes'
     elements only. *)
  let gather_boxed m a ~lane fs =
    let go set =
      let sc = if lane then scratch1 else scratch in
      for i = 0 to p - 1 do
        if Frame.Mask.get m i then set i (stage sc ~lane fs i)
      done
    in
    match a with
    | AInt d ->
        go (fun i sc -> b.ri.(i) <- Nd.get d sc);
        b.res_i
    | AReal d ->
        (* [Nd.get] written out: through the polymorphic one each lane's
           float would be boxed *)
        go (fun i sc -> b.rr.(i) <- d.Nd.data.(Nd.linear_index d sc));
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
            Scalar_ops.gather_i p m.Frame.Mask.bits b.ri d ix (subscript2 ivs);
            b.res_i
        | ([ RI ix ] | [ RI ix; RI _ ]), AReal d when Nd.rank d = nargs ->
            Scalar_ops.gather_r p m.Frame.Mask.bits b.rr d ix (subscript2 ivs);
            b.res_r
        | _ ->
            let sels = List.map rv_sel ivs in
            if List.exists snd sels then
              gather_boxed m a ~lane:false (Array.of_list (List.map fst sels))
            else begin
              (* a scalar read of global storage *)
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
      fun m rhs -> (
        match Frame.get frame si with
        | Frame.Scalar r -> r := rv_front_scalar rhs
        | Frame.Plural lanes -> write_plural env.p frame si lanes m rhs
        | Frame.Global a -> (
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
            match rhs with
            | RS v -> arr_fill a v
            | _ ->
                Errors.runtime_error
                  "unsupported whole-plural-array assignment to %s" name)
        | Frame.Unbound -> bind_fresh frame si m rhs)
  | idxs ->
      let cidx = List.map (compile_expr env) idxs in
      let nargs = List.length idxs in
      let scratch = Array.make nargs 0 in
      let scratch1 = Array.make (nargs + 1) 0 in
      let p = env.p in
      let scatter a m rhs fs ~plural_arr =
        (* The generic scatter, in ascending lane order: several lanes
           may store to the same element of a global array, and the last
           active lane wins.  A plural array's leading subscript is the
           lane itself. *)
        let sc = if plural_arr then scratch1 else scratch in
        for i = 0 to p - 1 do
          if Frame.Mask.get m i then begin
            let v = rv_lane rhs i in
            arr_set a (stage sc ~lane:plural_arr fs i) v
          end
        done
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
                let x = int_view rhs in
                Scalar_ops.scatter_i p bp d ix (subscript2 ivs) None x x
            | ( ([ RI ix ] | [ RI ix; RI _ ]),
                AReal d,
                (RR _ | RI _ | RS (VReal _)) )
              when Nd.rank d = nargs ->
                let x = real_view rhs in
                Scalar_ops.scatter_r p bp d ix (subscript2 ivs) None x x
            | _ ->
                let sels = List.map rv_sel ivs in
                if List.exists snd sels || rv_is_plural rhs then
                  scatter a m rhs
                    (Array.of_list (List.map fst sels))
                    ~plural_arr:false
                else begin
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
  let loc = env.cur_loc in
  let frame = env.frame in
  let si = l.Ir.l_slot in
  let p = env.p in
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
    let tick () = tick_vector env ~loc ~kind:Lf_obs.Trace.Assign m in
    match Frame.get frame si with
    | Frame.Plural (Frame.LInt d)
      when is_int a && is_int b && (lanes a || lanes b) ->
        tick ();
        Scalar_ops.map2_i p m.Frame.Mask.bits op d (int_view a) (int_view b)
    | Frame.Plural (Frame.LReal d)
      when is_num a && is_num b
           && (lanes a || lanes b)
           && not (is_int a && is_int b) ->
        tick ();
        Scalar_ops.map2_r p m.Frame.Mask.bits op d (real_view a) (real_view b)
    | _ ->
        let rhs = ce m in
        tick_assign env loc m rhs;
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
  let loc = env.cur_loc in
  let frame = env.frame in
  let si = l.Ir.l_slot in
  let cg = compile_expr env g in
  let crest = compile_expr env rest in
  let sub = match l.Ir.l_index with [ ix ] -> ix | _ -> assert false in
  let cix = compile_expr env sub in
  (* the factored unfused add: same dispatch, its own buffer site *)
  let add = binop_rv env.p (site_buffers env scr) Ast.Add in
  let casgn = compile_assign env l in
  let p = env.p in
  (* a non-int-vector subscript finishes unfused (the vector tick has
     fired — the unfused add result is plural) *)
  let unfused m gv rv = casgn m (add m gv rv) in
  (* The merged add-and-store pass: each lane adds into its own element
     (the gathered pre-statement values are already materialized in
     [gv]).  Both arms call their kernel directly, so an execution
     builds no closure. *)
  fun m ->
    observe env m ast;
    let gv = cg m in
    let rv = crest m in
    match (Frame.get frame si, gv) with
    | Frame.Global (AReal d), RR x when Nd.rank d = 1 && is_num rv -> (
        let y = real_view rv in
        tick_vector env ~loc ~kind:Lf_obs.Trace.Assign m;
        match cix m with
        | RI ix ->
            Scalar_ops.scatter_r p m.Frame.Mask.bits d ix one (Some Add) x y;
            Stats.incr st_accum_merged
        | _ -> unfused m gv rv)
    | Frame.Global (AInt d), RI x when Nd.rank d = 1 && is_int rv -> (
        let y = int_view rv in
        tick_vector env ~loc ~kind:Lf_obs.Trace.Assign m;
        match cix m with
        | RI ix ->
            Scalar_ops.scatter_i p m.Frame.Mask.bits d ix one (Some Add) x y;
            Stats.incr st_accum_merged
        | _ -> unfused m gv rv)
    | _ ->
        let rhs = add m gv rv in
        tick_assign env loc m rhs;
        casgn m rhs

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and compile_stmt env (s : Ir.stmt) : cstmt =
  let loc = env.cur_loc in
  let ast = s.Ir.s_ast in
  match s.Ir.s_node with
  | Ir.LLoc (loc, s) -> (
      (* compile the wrapped statement under its location; annotate
         runtime errors escaping the compiled closure (innermost located
         statement wins, already-located errors pass through) *)
      let saved = env.cur_loc in
      env.cur_loc <- loc;
      let cs = compile_stmt env s in
      env.cur_loc <- saved;
      fun m ->
        try cs m
        with Errors.Runtime_error msg ->
          raise (Errors.Runtime_error_at (loc, msg)))
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
        tick_assign env loc m rhs;
        casgn m rhs
  | Ir.LScall (name, args) -> (
      let key = Intrinsics.key name in
      let cargs =
        List.map (fun (e, exact) -> (compile_expr env e, exact)) args
      in
      fun m ->
        observe env m ast;
        let vm = env.vm in
        match Hashtbl.find_opt vm.Vmstate.procs key with
        | None -> Errors.runtime_error "unknown subroutine %s" name
        | Some f ->
            Vmstate.call vm key ~loc m;
            let vargs =
              List.map (fun (c, exact) -> rv_to_pval ~exact m (c m)) cargs
            in
            Vmstate.flush_frame vm env.frame;
            f vm ~mask:(Frame.Mask.to_bool_array m) vargs;
            Vmstate.import_frame vm env.frame)
  | Ir.LIf (c, t, f) | Ir.LWhere (c, t, f) -> (
      let cc = compile_expr env c in
      let ct = compile_block env t and cf = compile_block env f in
      let mt = Frame.Mask.create_empty env.p in
      let mf = Frame.Mask.create_empty env.p in
      let where m =
        let cv = cc m in
        tick_vector env ~loc ~kind:Lf_obs.Trace.Where m;
        split_mask m cv mt mf;
        ct mt;
        cf mf
      in
      match s.Ir.s_node with
      | Ir.LWhere _ -> where
      | _ -> (
          fun m ->
            match cc m with
            | RS v ->
                Vmstate.tick_frontend env.vm;
                if as_bool v then ct m else cf m
            | RA _ -> Errors.runtime_error "array condition"
            | _ ->
                (* plural IF runs as WHERE, and like the reference's
                   [SWhere] dispatch it re-evaluates the condition *)
                where m))
  | Ir.LWhile (c, body) ->
      let cc = compile_expr env c in
      let cb = compile_block env body in
      fun m ->
        let continue_ () =
          match cc m with
          | RS v ->
              Vmstate.tick_frontend env.vm;
              as_bool v
          | RA _ -> Errors.runtime_error "array condition"
          | cv ->
              (* vector-controlled WHILE (§2): active lanes must agree *)
              tick_vector env ~loc ~kind:Lf_obs.Trace.While m;
              Pval.while_test ~mask:m (lanes_of_rv cv)
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
                Vmstate.tick_frontend env.vm;
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
        Vmstate.tick_frontend env.vm;
        let i = ref lo in
        let cont () = if step > 0 then !i <= hi else !i >= hi in
        while cont () do
          set_var (VInt !i);
          cb m;
          Vmstate.tick_frontend env.vm;
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

(* The front half of a compiled run: lower to slot-resolved IR and run
   the optimizer/verifier.  The program cache pays this once per
   (source, opt, verify, p) and feeds the annotated IR back through
   [emit] on every warm run — emission never mutates the IR (annotation
   writes live in [Opt] only), so one lowered block may be re-emitted
   against any frame sharing the layout it was lowered with. *)
let lower ~frame ?(opt = 1) ?(verify = false) (body : block) : Ir.block =
  Opt.run ~level:opt ~frame ~verify (Ir.of_block frame body)

(* The back half: emit OCaml closures from an already-lowered IR. *)
let emit ~vm ~frame ?(opt = 1) (ir : Ir.block) : Frame.Mask.t -> unit =
  compile_block
    { vm; frame; p = vm.Vmstate.p; cur_loc = Errors.no_pos; opt }
    ir
