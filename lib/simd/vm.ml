(** The SIMD virtual machine: a lockstep interpreter for F90simd programs.

    One control unit issues every instruction; [p] lanes execute it under
    the current activity mask (the WHERE mask stack).  This reproduces the
    paper's execution model exactly: a masked-out processor still "steps
    through the operation ... in an idle state until all processors have
    completed the operation" — which is why [Metrics.steps] counts every
    vector instruction once regardless of how many lanes are active, and
    why the unflattened and flattened versions of a program differ in
    step count exactly as Equations 2 and 1′ predict.

    Data model:
    - plural scalars: one typed lane vector per variable ([Frame.lanes]:
      unboxed int/real/logical lanes, boxed when their types are mixed),
      so each vector instruction is one monomorphic lane loop;
    - plural arrays (declared [PLURAL t a(d)]): per-lane storage, realized
      as a global array with a leading lane dimension;
    - front-end scalars and global (distributed) arrays: shared storage;
      a reference through a plural subscript is a gather, an assignment a
      scatter.

    The predefined plural variable [iproc] holds 1..P. *)

open Lf_lang
open Lf_lang.Ast
open Values

type entry =
  | VScalar of value ref
  | VPlural of Frame.lanes
  | VGlobal of arr
  | VPluralArr of arr  (** leading dimension is the lane index *)

type proc = t -> mask:bool array -> Pval.t list -> unit

and t = {
  p : int;  (** number of lanes *)
  vars : (string, entry) Hashtbl.t;
  metrics : Metrics.t;
  mutable fuel : int;
  procs : (string, proc) Hashtbl.t;
  funcs : (string, (value list -> value) * bool) Hashtbl.t;
      (** per-lane functions, with a purity flag: only functions
          registered [~pure:true] may be applied lane-parallel *)
  mutable observer : (t -> mask:bool array -> Ast.stmt -> unit) option;
      (** called before every vector-step statement with its mask *)
  mutable deadline : (int * string) option;
      (** monotonic-clock cutoff (ns) and the error a step past it
          raises; checked where fuel is charged *)
  trace : Lf_obs.Trace.t;
      (** per-vector-step event collector; disabled (one flat branch per
          step, no allocation) until a sink is attached *)
  mutable cur_loc : Errors.pos;
      (** source location of the innermost [SLoc]-wrapped statement *)
}

let default_fuel = 50_000_000

let create ?(fuel = default_fuel) ~p () =
  let vm =
    {
      p;
      vars = Hashtbl.create 64;
      metrics = Metrics.create ();
      fuel;
      procs = Hashtbl.create 8;
      funcs = Hashtbl.create 8;
      observer = None;
      deadline = None;
      trace = Lf_obs.Trace.create ();
      cur_loc = Errors.no_pos;
    }
  in
  (* the predefined plural processor index, matching Lf_core.Simdize.iproc *)
  Hashtbl.replace vm.vars "iproc"
    (VPlural (Frame.LInt (Array.init p (fun i -> i + 1))));
  vm

let register_proc vm name f =
  Hashtbl.replace vm.procs (String.lowercase_ascii name) f

(** Install a per-statement observer (tracing, occupancy measurements). *)
let set_observer vm f = vm.observer <- Some f

let observe vm ~mask s =
  match vm.observer with Some f -> f vm ~mask s | None -> ()

let register_func vm ?(pure = false) name f =
  Hashtbl.replace vm.funcs (String.lowercase_ascii name) (f, pure)

let full_mask vm = Array.make vm.p true
let active_count mask = Array.fold_left (fun n b -> if b then n + 1 else n) 0 mask

(** Attach a trace sink (see [Lf_obs.Trace]); arms event emission. *)
let add_trace_sink vm sink = Lf_obs.Trace.attach vm.trace sink

(* Telemetry handles (all recording is behind one flat [Stats.enabled]
   branch, mirroring the trace sinks).  Dispatch counts and mask-density
   buckets are [Counters] — stable across engines, jobs and opt levels
   by the Metrics fusion-invariance contract; GC deltas and run timers
   are [Volatile]. *)
module Stats = Lf_obs.Stats

let st_run_wall = Stats.timer "vm.run_wall"
let st_run_cpu = Stats.gauge "vm.run_cpu_s"
let st_minor_words = Stats.gauge "gc.minor_words"
let st_promoted_words = Stats.gauge "gc.promoted_words"
let st_major_words = Stats.gauge "gc.major_words"
let st_minor_colls = Stats.counter ~section:Stats.Volatile "gc.minor_collections"
let st_major_colls = Stats.counter ~section:Stats.Volatile "gc.major_collections"

let stats_vector_step ~active ~p ~kind =
  if Stats.enabled () then begin
    Stats.incr (Stats.dispatch_counter kind);
    Stats.incr (Stats.mask_counter ~active ~p)
  end

let stats_reduction () =
  if Stats.enabled () then
    Stats.incr (Stats.dispatch_counter Lf_obs.Trace.Reduce)

exception Timed_out of string

let set_deadline vm ~at_ns msg =
  vm.deadline <- Some (Int64.to_int at_ns, msg)

(* The clock is read only while a deadline is armed.  [Timed_out] is not
   a [Runtime_error], so no statement wrapper locates it. *)
let check_deadline vm =
  match vm.deadline with
  | None -> ()
  | Some (at_ns, msg) ->
      if Int64.to_int (Stats.now_ns ()) > at_ns then raise (Timed_out msg)

let tick_vector vm ~mask ~kind =
  let active = active_count mask in
  Metrics.vector_step vm.metrics ~active ~p:vm.p;
  stats_vector_step ~active ~p:vm.p ~kind;
  if vm.trace.Lf_obs.Trace.enabled then
    Lf_obs.Trace.emit vm.trace
      {
        loc = vm.cur_loc;
        step = vm.metrics.Metrics.steps;
        active;
        p = vm.p;
        kind;
        mask = Array.copy mask;
      };
  vm.fuel <- vm.fuel - 1;
  if vm.fuel <= 0 then Errors.runtime_error "SIMD VM fuel exhausted";
  check_deadline vm

(** Emit a [Reduce] trace event (reductions do not consume a step). *)
let trace_reduction vm ~mask =
  if vm.trace.Lf_obs.Trace.enabled then
    Lf_obs.Trace.emit vm.trace
      {
        loc = vm.cur_loc;
        step = vm.metrics.Metrics.steps;
        active = active_count mask;
        p = vm.p;
        kind = Lf_obs.Trace.Reduce;
        mask = Array.copy mask;
      }

let tick_frontend vm =
  Metrics.frontend_step vm.metrics;
  if Stats.enabled () then Stats.incr Stats.frontend_counter;
  vm.fuel <- vm.fuel - 1;
  if vm.fuel <= 0 then Errors.runtime_error "SIMD VM fuel exhausted";
  check_deadline vm

(* ------------------------------------------------------------------ *)
(* Variable binding                                                    *)
(* ------------------------------------------------------------------ *)

let bind_scalar vm name v = Hashtbl.replace vm.vars name (VScalar (ref v))

let bind_global vm name a = Hashtbl.replace vm.vars name (VGlobal a)

let bind_plural_arr vm name ty dims =
  let dims = Array.append [| vm.p |] dims in
  Hashtbl.replace vm.vars name (VPluralArr (alloc_arr ty dims))

let find vm name =
  match Hashtbl.find_opt vm.vars name with
  | Some e -> e
  | None -> Errors.runtime_error "undefined variable %s" name

let find_opt vm name = Hashtbl.find_opt vm.vars name

(** Read back a plural variable (e.g. for assertions in tests). *)
let read_plural vm name =
  match find vm name with
  | VPlural l -> Frame.values_of_lanes l
  | _ -> Errors.runtime_error "%s is not a plural scalar" name

let read_global vm name =
  match find vm name with
  | VGlobal a -> a
  | VPluralArr a -> a
  | _ -> Errors.runtime_error "%s is not an array" name

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let is_reduction f =
  List.mem (String.lowercase_ascii f)
    [ "any"; "all"; "maxval"; "minval"; "sum"; "count" ]

(* Sharing rule: a [Pval.Plural] returned by [eval] may be a variable's
   own lane vector (an [EVar] read does not copy it), so values returned
   by [eval] are read-only.  Variable storage is written only by
   [assign], which reads its right-hand side completely before the
   lanes it writes can alias it (lane [i] reads lane [i]); a write that
   changes a lane's type replaces the variable's vector instead.  Fresh
   bindings and external procedures get private copies ([Pval.expose]).

   Typed lanes: every vector instruction whose operands have unboxed
   lanes runs one monomorphic loop from [Scalar_ops] / [Intrinsics];
   anything else goes through the boxed view and re-specializes its
   active lanes ([Pval.map_active]).  Inactive lanes of a computed
   plural hold an inert zero: nothing reads them except the reduction
   witness, fresh bindings and procedure arguments, which see them as
   the inert [VInt 0] unless the plural is [exact]. *)

(* A variable read or a range: a plural whose every lane holds real
   contents, not a temporary computed under the mask. *)
let is_exact = function EVar _ | ERange _ -> true | _ -> false

(* The unboxed view of an operand: its lane vector, or a one-cell array
   broadcasting a front-end scalar (the loops' operand convention). *)
type view = VI of int array | VR of float array | VB of bool array | Other

let view = function
  | Pval.Plural (Frame.LInt a) -> VI a
  | Pval.Plural (Frame.LReal a) -> VR a
  | Pval.Plural (Frame.LBool a) -> VB a
  | Pval.FScalar (VInt n) -> VI [| n |]
  | Pval.FScalar (VReal x) -> VR [| x |]
  | Pval.FScalar (VBool b) -> VB [| b |]
  | _ -> Other

(* a numeric view promoted to real lanes *)
let real_of = function
  | VR a -> a
  | VI a -> Scalar_ops.to_real a
  | VB _ | Other -> invalid_arg "Vm.real_of"

let int_lanes mask f =
  let r = Array.make (Array.length mask) 0 in
  f r;
  Pval.Plural (Frame.LInt r)

let real_lanes mask f =
  let r = Array.make (Array.length mask) 0.0 in
  f r;
  Pval.Plural (Frame.LReal r)

let bool_lanes mask f =
  let r = Array.make (Array.length mask) false in
  f r;
  Pval.Plural (Frame.LBool r)

(** A binary operator, lane-wise under the mask.  Int, real and mixed
    arithmetic and comparisons, and LOGICAL comparisons and [.AND.] /
    [.OR.], run as unboxed loops; the rest ([**], type errors, boxed
    lanes) per lane through [Scalar_ops.apply_binop]. *)
let binop ~mask op va vb =
  match (va, vb) with
  | Pval.FScalar x, Pval.FScalar y ->
      Pval.FScalar (Scalar_ops.apply_binop op x y)
  | Pval.FArr _, _ | _, Pval.FArr _ ->
      Errors.runtime_error "array operand in a lane-wise operation"
  | _ -> (
      let arith = Scalar_ops.is_arith op and cmp = Scalar_ops.is_cmp op in
      match (view va, view vb) with
      | VI x, VI y when arith ->
          int_lanes mask (fun r -> Scalar_ops.int_map2 ~mask op r x y)
      | VI x, VI y when cmp ->
          bool_lanes mask (fun r -> Scalar_ops.int_cmp2 ~mask op r x y)
      | ((VI _ | VR _) as x), ((VI _ | VR _) as y) when arith ->
          let x = real_of x and y = real_of y in
          real_lanes mask (fun r -> Scalar_ops.real_map2 ~mask op r x y)
      | ((VI _ | VR _) as x), ((VI _ | VR _) as y) when cmp ->
          let x = real_of x and y = real_of y in
          bool_lanes mask (fun r -> Scalar_ops.real_cmp2 ~mask op r x y)
      | VB x, VB y when cmp || op = And || op = Or ->
          bool_lanes mask (fun r -> Scalar_ops.bool_map2 ~mask op r x y)
      | _ -> Pval.lift2 ~mask (Scalar_ops.apply_binop op) va vb)

let unop ~mask op v =
  match (op, v) with
  | _, Pval.FScalar x -> Pval.FScalar (Scalar_ops.apply_unop op x)
  | Neg, Pval.Plural (Frame.LInt x) ->
      int_lanes mask (fun r -> Scalar_ops.int_neg ~mask r x)
  | Neg, Pval.Plural (Frame.LReal x) ->
      real_lanes mask (fun r -> Scalar_ops.real_neg ~mask r x)
  | Not, Pval.Plural (Frame.LBool x) ->
      bool_lanes mask (fun r -> Scalar_ops.bool_not ~mask r x)
  | _ -> Pval.lift1 ~mask (Scalar_ops.apply_unop op) v

(** SQRT / EXP / ABS of one numeric plural, MAX / MIN of two numeric
    operands, as unboxed loops; [None] for every other call. *)
let lane_intrinsic ~mask key vargs =
  match (Intrinsics.lane_fn key, List.map view vargs) with
  | Some (Intrinsics.Num1 Intrinsics.Abs), [ VI x ] ->
      Some (int_lanes mask (fun r -> Intrinsics.int_abs ~mask r x))
  | Some (Intrinsics.Num1 k), [ ((VI _ | VR _) as x) ] ->
      let x = real_of x in
      Some (real_lanes mask (fun r -> Intrinsics.real_map1 ~mask k r x))
  | Some (Intrinsics.Num2 k), [ VI x; VI y ] ->
      Some (int_lanes mask (fun r -> Intrinsics.int_map2 ~mask k r x y))
  | Some (Intrinsics.Num2 k), [ ((VI _ | VR _) as x); ((VI _ | VR _) as y) ]
    ->
      let x = real_of x and y = real_of y in
      Some (real_lanes mask (fun r -> Intrinsics.real_map2 ~mask k r x y))
  | _ -> None

(* A subscript resolved once per vector instruction: a front-end scalar
   already converted to an index, or the lanes of a plural. *)
type sub = Const of int | Lanes of Frame.lanes

(* Index buffer for lane [i]: the leading lane index [i + 1] when [lead],
   then the subscripts in order — each lane converts its subscripts left
   to right, so the first failing lane reports the same error as before. *)
let fill_index idx ~lead (subs : sub array) i =
  let off = if lead then 1 else 0 in
  if lead then idx.(0) <- i + 1;
  for k = 0 to Array.length subs - 1 do
    idx.(off + k) <-
      (match subs.(k) with
      | Const n -> n
      | Lanes (Frame.LInt a) -> a.(i)
      | Lanes l -> as_int (Frame.lane_value l i))
  done

let is_lanes = function Lanes _ -> true | Const _ -> false

(* The flat offset of each lane's element, resolved once per
   instruction: a rank-1 access by one unboxed subscript checks its
   bound inline, with [Nd.linear_index]'s message; any other fills the
   index buffer and goes through [Nd.linear_index]. *)
let offsets (d : _ Nd.t) idx ~lead subs : int -> int =
  match subs with
  | [| Lanes (Frame.LInt ix) |] when (not lead) && Array.length d.Nd.dims = 1
    ->
      let n = d.Nd.dims.(0) in
      fun i ->
        let j = ix.(i) in
        if j < 1 || j > n then Nd.index_error j n 1 else j - 1
  | _ ->
      fun i ->
        fill_index idx ~lead subs i;
        Nd.linear_index d idx

(** Gather one element per active lane into a lane vector of the array's
    element type. *)
let gather ~mask (a : arr) idx ~lead subs : Pval.t =
  let p = Array.length mask in
  match a with
  | AInt d ->
      let data = d.Nd.data and off = offsets d idx ~lead subs in
      int_lanes mask (fun r ->
          for i = 0 to p - 1 do
            if mask.(i) then r.(i) <- data.(off i)
          done)
  | AReal d ->
      let data = d.Nd.data and off = offsets d idx ~lead subs in
      real_lanes mask (fun r ->
          for i = 0 to p - 1 do
            if mask.(i) then r.(i) <- data.(off i)
          done)
  | ABool d ->
      let data = d.Nd.data and off = offsets d idx ~lead subs in
      bool_lanes mask (fun r ->
          for i = 0 to p - 1 do
            if mask.(i) then r.(i) <- data.(off i)
          done)

(** Scatter [rhs] per active lane, ascending: a lane's value is read
    before its subscripts are converted. *)
let scatter ~mask (a : arr) idx ~lead subs rhs =
  let p = Array.length mask in
  match (a, view rhs) with
  | AReal d, VR x ->
      let data = d.Nd.data and off = offsets d idx ~lead subs in
      let kx = if Array.length x = 1 then 0 else -1 in
      for i = 0 to p - 1 do
        if mask.(i) then data.(off i) <- x.(i land kx)
      done
  | AInt d, VI x ->
      let data = d.Nd.data and off = offsets d idx ~lead subs in
      let kx = if Array.length x = 1 then 0 else -1 in
      for i = 0 to p - 1 do
        if mask.(i) then data.(off i) <- x.(i land kx)
      done
  | _ ->
      for i = 0 to p - 1 do
        if mask.(i) then begin
          let v = Pval.lane rhs i in
          fill_index idx ~lead subs i;
          arr_set a idx v
        end
      done

let rec eval vm ~(mask : bool array) (e : expr) : Pval.t =
  match e with
  | EInt n -> Pval.FScalar (VInt n)
  | EReal f -> Pval.FScalar (VReal f)
  | EBool b -> Pval.FScalar (VBool b)
  | ERange (lo, hi) -> (
      let lo = front_int vm ~mask lo in
      let hi = front_int vm ~mask hi in
      (* [1:P]-style ranges of exactly P elements denote plural vectors
         (Figure 7's i = [1,5]); other ranges are front-end arrays *)
      let n = max 0 (hi - lo + 1) in
      if n = vm.p then Pval.Plural (Frame.LInt (Array.init n (fun i -> lo + i)))
      else Pval.FArr (AInt (Nd.of_array (Array.init n (fun i -> lo + i)))))
  | EVar v -> (
      match find vm v with
      | VScalar r -> Pval.FScalar !r
      | VPlural l -> Pval.Plural l (* shared, read-only: see above *)
      | VGlobal a | VPluralArr a -> Pval.FArr a)
  | EUn (op, a) -> unop ~mask op (eval vm ~mask a)
  | EBin (op, a, b) ->
      (* left to right, matching the compiled engine: error order (which
         undefined variable is reported first) is observable *)
      let va = eval vm ~mask a in
      let vb = eval vm ~mask b in
      binop ~mask op va vb
  | ECall (name, args) -> eval_call vm ~mask name args
  | EIdx (name, args) -> (
      match find_opt vm name with
      | Some (VGlobal a) -> index_global vm ~mask a args
      | Some (VPluralArr a) -> index_plural_arr vm ~mask a args
      | Some _ ->
          Errors.runtime_error "%s is a scalar but is indexed" name
      | None -> eval_call vm ~mask name args)

and front_int vm ~mask e = Pval.as_front_int (eval vm ~mask e)

(** Resolve the subscripts of one vector instruction, in order. *)
and subscripts vm ~mask (args : expr list) : sub array =
  Array.of_list
    (List.map
       (fun e ->
         match eval vm ~mask e with
         | Pval.FScalar v -> Const (as_int v)
         | Pval.Plural l -> Lanes l
         | Pval.FArr _ -> Errors.runtime_error "array-valued subscript")
       args)

and index_global vm ~mask (a : arr) (args : expr list) : Pval.t =
  let subs = subscripts vm ~mask args in
  let idx = Array.make (Array.length subs) 0 in
  if Array.exists is_lanes subs then gather ~mask a idx ~lead:false subs
  else begin
    fill_index idx ~lead:false subs 0;
    Pval.FScalar (arr_get a idx)
  end

and index_plural_arr vm ~mask (a : arr) (args : expr list) : Pval.t =
  let subs = subscripts vm ~mask args in
  let idx = Array.make (Array.length subs + 1) 0 in
  gather ~mask a idx ~lead:true subs

and eval_call vm ~mask name args : Pval.t =
  let key = String.lowercase_ascii name in
  if is_reduction key then begin
    Metrics.reduction vm.metrics;
    stats_reduction ();
    trace_reduction vm ~mask;
    let a =
      match args with
      | [ a ] -> a
      | _ -> Errors.runtime_error "%s expects one argument" name
    in
    let v = eval vm ~mask a in
    Pval.FScalar (Pval.reduction ~mask ~exact:(is_exact a) ~name key v)
  end
  else
    let func = Hashtbl.find_opt vm.funcs key in
    let vargs = List.map (eval vm ~mask) args in
    (* one function of the arguments, resolved once per vector: the
       registered per-lane function, else the intrinsic *)
    let f =
      match func with
      | Some (f, _pure) -> fun args -> Some (f args)
      | None -> Intrinsics.resolve key
    in
    let apply args =
      match f args with
      | Some r -> r
      | None -> Errors.runtime_error "unknown function %s" name
    in
    if List.exists Pval.is_plural vargs then
      (* lane-wise call: an intrinsic with a lane loop unless a
         registered function overrides it, else one call per lane *)
      match
        if Option.is_none func then lane_intrinsic ~mask key vargs else None
      with
      | Some r -> r
      | None -> Pval.map_active ~mask (fun i -> apply (lane_args vargs i))
    else
      let front = function
        | Pval.FScalar v -> v
        (* intrinsics (SIZE, SUM, ...) take front-end arrays *)
        | Pval.FArr a when Option.is_none func -> VArr a
        | v -> Pval.as_front_scalar v
      in
      Pval.FScalar (apply (List.map front vargs))

(* the arguments of one lane, in order *)
and lane_args vargs i =
  match vargs with
  | [] -> []
  | v :: rest ->
      let x = Pval.lane v i in
      x :: lane_args rest i

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(** Masked store into a plural variable: in place when the right-hand
    side has the variable's lane type, else through the boxed view into
    a fresh, re-specialized vector. *)
let write_plural vm name (lanes : Frame.lanes) ~mask rhs =
  match (lanes, view rhs) with
  | Frame.LInt d, VI x -> Scalar_ops.int_blit ~mask d x
  | Frame.LReal d, VR x -> Scalar_ops.real_blit ~mask d x
  | Frame.LBool d, VB x -> Scalar_ops.bool_blit ~mask d x
  | _ ->
      if Array.exists Fun.id mask then begin
        let vs = Frame.values_of_lanes lanes in
        Array.iteri
          (fun i active -> if active then vs.(i) <- Pval.lane rhs i)
          mask;
        Hashtbl.replace vm.vars name (VPlural (Frame.lanes_of_values vs))
      end

let assign vm ~mask (l : lvalue) (rhs : Pval.t) =
  match (find_opt vm l.lv_name, l.lv_index) with
  | Some (VScalar r), [] -> r := Pval.as_front_scalar rhs
  | Some (VPlural lanes), [] -> write_plural vm l.lv_name lanes ~mask rhs
  | Some (VGlobal a), [] -> (
      (* whole-array assignment, e.g. F = 0 *)
      match rhs with
      | Pval.FScalar v -> arr_fill a v
      | Pval.FArr src ->
          if arr_size src <> arr_size a then
            Errors.runtime_error "shape mismatch assigning to %s" l.lv_name;
          for i = 0 to arr_size a - 1 do
            arr_set_flat a i (arr_get_flat src i)
          done
      | Pval.Plural _ ->
          Errors.runtime_error "plural value assigned to whole array %s"
            l.lv_name)
  | Some (VPluralArr a), [] -> (
      match rhs with
      | Pval.FScalar v -> arr_fill a v
      | _ ->
          Errors.runtime_error "unsupported whole-plural-array assignment to %s"
            l.lv_name)
  | Some (VGlobal a), idxs ->
      let subs = subscripts vm ~mask idxs in
      let idx = Array.make (Array.length subs) 0 in
      if Array.exists is_lanes subs || Pval.is_plural rhs then
        scatter ~mask a idx ~lead:false subs rhs
      else begin
        let v = Pval.as_front_scalar rhs in
        fill_index idx ~lead:false subs 0;
        arr_set a idx v
      end
  | Some (VPluralArr a), idxs ->
      let subs = subscripts vm ~mask idxs in
      let idx = Array.make (Array.length subs + 1) 0 in
      scatter ~mask a idx ~lead:true subs rhs
  | None, [] ->
      (* implicit front-end scalar, or plural if the value is plural *)
      (match rhs with
      | Pval.FScalar v -> bind_scalar vm l.lv_name v
      | Pval.Plural lanes ->
          (* lanes outside the mask are bound to the inert [VInt 0] *)
          Hashtbl.replace vm.vars l.lv_name
            (VPlural (Pval.expose ~exact:false ~mask lanes))
      | Pval.FArr a -> bind_global vm l.lv_name a)
  | None, _ :: _ ->
      Errors.runtime_error "assignment to undeclared array %s" l.lv_name
  | Some (VScalar _), _ :: _ | Some (VPlural _), _ :: _ ->
      Errors.runtime_error "%s is scalar but indexed" l.lv_name

(* The true- and false-branch masks of a WHERE over condition [cv]: one
   pass, converting each active lane once in ascending order. *)
let where_masks mask cv =
  let p = Array.length mask in
  let mt = Array.make p false and mf = Array.make p false in
  (match cv with
  | Pval.Plural (Frame.LBool a) ->
      for i = 0 to p - 1 do
        if mask.(i) then if a.(i) then mt.(i) <- true else mf.(i) <- true
      done
  | _ ->
      for i = 0 to p - 1 do
        if mask.(i) then
          if as_bool (Pval.lane cv i) then mt.(i) <- true else mf.(i) <- true
      done);
  (mt, mf)

(* A vector-controlled WHILE test (§2): all active lanes must agree. *)
let while_test mask (l : Frame.lanes) =
  let divergent () =
    Errors.runtime_error "vector-controlled WHILE with divergent lane values"
  in
  match l with
  | Frame.LBool a ->
      let first = ref None in
      Array.iteri
        (fun i active ->
          if active then
            match !first with
            | None -> first := Some a.(i)
            | Some b -> if a.(i) <> b then divergent ())
        mask;
      Option.value !first ~default:false
  | _ -> (
      let vals = ref [] in
      for i = Array.length mask - 1 downto 0 do
        if mask.(i) then vals := Frame.lane_value l i :: !vals
      done;
      match !vals with
      | [] -> false
      | v :: rest ->
          if List.for_all (Values.equal_value v) rest then as_bool v
          else divergent ())

let rec exec vm ~(mask : bool array) (s : stmt) : unit =
  match s with
  | SLoc (loc, s) ->
      (* set the location for event attribution; locate runtime errors
         raised inside (innermost located statement wins, [Jump]-free
         engine so nothing else escapes normally) *)
      let saved = vm.cur_loc in
      vm.cur_loc <- loc;
      (try exec vm ~mask s
       with e -> (
         vm.cur_loc <- saved;
         match e with
         | Errors.Runtime_error m -> raise (Errors.Runtime_error_at (loc, m))
         | e -> raise e));
      vm.cur_loc <- saved
  | SComment _ | SLabel _ -> ()
  | SAssign (l, e) ->
      observe vm ~mask s;
      let rhs = eval vm ~mask e in
      (match rhs with
      | Pval.Plural _ -> tick_vector vm ~mask ~kind:Lf_obs.Trace.Assign
      | _ -> tick_frontend vm);
      assign vm ~mask l rhs
  | SCall (name, args) -> (
      observe vm ~mask s;
      let key = String.lowercase_ascii name in
      match Hashtbl.find_opt vm.procs key with
      | Some f ->
          Metrics.call vm.metrics key;
          tick_vector vm ~mask ~kind:Lf_obs.Trace.Call;
          (* the procedure owns its arguments: plurals are copied, since
             an [EVar] read shares the variable's lanes *)
          f vm ~mask
            (List.map
               (fun e ->
                 match eval vm ~mask e with
                 | Pval.Plural l ->
                     Pval.Plural (Pval.expose ~exact:(is_exact e) ~mask l)
                 | v -> v)
               args)
      | None -> Errors.runtime_error "unknown subroutine %s" name)
  | SIf (c, t, f) -> (
      match eval vm ~mask c with
      | Pval.FScalar v ->
          tick_frontend vm;
          exec_block vm ~mask (if as_bool v then t else f)
      | Pval.Plural _ ->
          (* an IF over plural state behaves as WHERE (the paper's
             SIMDizing step replaces IF with WHERE) *)
          exec vm ~mask (SWhere (c, t, f))
      | Pval.FArr _ -> Errors.runtime_error "array condition")
  | SWhere (c, t, f) ->
      let cv = eval vm ~mask c in
      tick_vector vm ~mask ~kind:Lf_obs.Trace.Where;
      let mt, mf = where_masks mask cv in
      if t <> [] then exec_block vm ~mask:mt t;
      if f <> [] then exec_block vm ~mask:mf f
  | SWhile (c, body) ->
      let continue_ () =
        match eval vm ~mask c with
        | Pval.FScalar v ->
            tick_frontend vm;
            as_bool v
        | Pval.Plural l ->
            tick_vector vm ~mask ~kind:Lf_obs.Trace.While;
            while_test mask l
        | Pval.FArr _ -> Errors.runtime_error "array condition"
      in
      while continue_ () do
        exec_block vm ~mask body
      done
  | SDoWhile (body, c) ->
      let go = ref true in
      while !go do
        exec_block vm ~mask body;
        go :=
          (match eval vm ~mask c with
          | Pval.FScalar v ->
              tick_frontend vm;
              as_bool v
          | _ -> Errors.runtime_error "DO WHILE condition must be front-end")
      done
  | SDo (c, body) | SForall (c, body) ->
      let lo = front_int vm ~mask c.d_lo in
      let hi = front_int vm ~mask c.d_hi in
      let step =
        match c.d_step with
        | Some s -> front_int vm ~mask s
        | None -> 1
      in
      if step = 0 then Errors.runtime_error "DO loop with zero step";
      tick_frontend vm;
      let i = ref lo in
      let cont () = if step > 0 then !i <= hi else !i >= hi in
      while cont () do
        bind_scalar_or_update vm c.d_var (VInt !i);
        exec_block vm ~mask body;
        tick_frontend vm;
        i := !i + step
      done;
      bind_scalar_or_update vm c.d_var (VInt !i)
  | SGoto _ | SCondGoto _ ->
      Errors.runtime_error "GOTO is not part of F90simd"

and bind_scalar_or_update vm name v =
  match find_opt vm name with
  | Some (VScalar r) -> r := v
  | Some _ -> Errors.runtime_error "%s is not a front-end scalar" name
  | None -> bind_scalar vm name v

and exec_block vm ~mask (b : block) = List.iter (exec vm ~mask) b

(* ------------------------------------------------------------------ *)
(* Program execution                                                   *)
(* ------------------------------------------------------------------ *)

(** Allocate declared variables; plural scalars get one slot per lane,
    plural arrays a leading lane dimension.  Pre-seeded bindings (via
    [bind_*]) are kept. *)
let declare vm (decls : decl list) =
  List.iter
    (fun d ->
      if not (Hashtbl.mem vm.vars d.dc_name) then
        let mask = full_mask vm in
        let dims () =
          Array.of_list
            (List.map (fun e -> front_int vm ~mask e) d.dc_dims)
        in
        match (d.dc_plural, d.dc_dims) with
        | false, [] -> bind_scalar vm d.dc_name (zero_of d.dc_type)
        | false, _ -> bind_global vm d.dc_name (alloc_arr d.dc_type (dims ()))
        | true, [] ->
            Hashtbl.replace vm.vars d.dc_name
              (VPlural (Frame.make_lanes vm.p (zero_of d.dc_type)))
        | true, _ -> bind_plural_arr vm d.dc_name d.dc_type (dims ()))
    decls

(* ------------------------------------------------------------------ *)
(* The compiled engine                                                 *)
(* ------------------------------------------------------------------ *)

type engine = [ `Tree_walk | `Compiled | `Parallel ]

(** VM variable table -> frame: plural lanes are copied, array and scalar
    storage is shared.  Names absent from the table keep their current
    slot (at run start every slot is [Unbound]). *)
let import_frame vm (frame : Frame.t) =
  for si = 0 to Frame.n_slots frame - 1 do
    match Hashtbl.find_opt vm.vars (Frame.name_of frame si) with
    | None -> ()
    | Some (VScalar r) -> Frame.set frame si (Frame.Scalar r)
    | Some (VPlural l) -> Frame.set frame si (Frame.Plural (Frame.copy_lanes l))
    | Some (VGlobal a) -> Frame.set frame si (Frame.Global a)
    | Some (VPluralArr a) -> Frame.set frame si (Frame.PluralArr a)
  done

(** Frame -> VM variable table: plural lane vectors, array and scalar
    storage are all handed over, not copied.  The frame writes a plural
    slot in place again only until the next flush: a flush before an
    observer exposes each statement's state as it runs, and one before a
    CALL is followed by [import_frame], which gives the frame its own
    copies back. *)
let flush_frame vm (frame : Frame.t) =
  for si = 0 to Frame.n_slots frame - 1 do
    let name = Frame.name_of frame si in
    match Frame.get frame si with
    | Frame.Unbound -> ()
    | Frame.Scalar r -> Hashtbl.replace vm.vars name (VScalar r)
    | Frame.Plural lanes ->
        Hashtbl.replace vm.vars name (VPlural lanes)
    | Frame.Global a -> Hashtbl.replace vm.vars name (VGlobal a)
    | Frame.PluralArr a -> Hashtbl.replace vm.vars name (VPluralArr a)
  done

(** Frame name table: every variable the program mentions ([from_ast],
    which the program cache precomputes so its warm path does not re-walk
    the AST) plus every pre-seeded VM binding (setup-bound globals,
    parameters). *)
let frame_names vm from_ast =
  let seen = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace seen n ()) from_ast;
  let extra =
    Hashtbl.fold
      (fun n _ acc -> if Hashtbl.mem seen n then acc else n :: acc)
      vm.vars []
  in
  from_ast @ List.sort compare extra

(* Compile [prog.p_body] against a frame covering the program's names
   plus anything pre-seeded in [vm.vars] — or, on the cache's warm path
   ([prepared]), re-emit an already-lowered IR against a frame built
   with the layout it was lowered for — then run it under a full mask.
   State is imported at the start and after every external CALL, and
   flushed back at the end (also on the error path, so a failing
   compiled run leaves the same partial state as a failing tree-walk).

   [exec] dispatches the per-lane loops: [Pool.serial_exec] is the
   serial compiled engine, [Pool.parallel_exec] shards the lanes over
   the Domain pool while everything sequential — control flow, metrics,
   fuel, trace emission, front-end state — stays on this thread. *)
(** The host callback record tying a compiled body to this VM and
    [frame] (shared by the cold compile path and the cache's re-emission
    path).  A trace event reads the step's mask and happens at its place
    in program order, so with a sink attached every vector step and
    reduction is a join of [exec]'s pending lane loops: an earlier lane
    error is raised before the event is emitted. *)
let make_host vm (frame : Frame.t) (exec : Pool.exec) =
  {
      Compile.h_p = vm.p;
      h_tick_vector =
        (fun ~loc ~kind m ->
          if vm.trace.Lf_obs.Trace.enabled then Pool.sync exec;
          let active = Frame.Mask.active m in
          Metrics.vector_step vm.metrics ~active ~p:vm.p;
          stats_vector_step ~active ~p:vm.p ~kind;
          if vm.trace.Lf_obs.Trace.enabled then
            Lf_obs.Trace.emit vm.trace
              {
                loc;
                step = vm.metrics.Metrics.steps;
                active;
                p = vm.p;
                kind;
                mask = Frame.Mask.to_bool_array m;
              };
          vm.fuel <- vm.fuel - 1;
          if vm.fuel <= 0 then Errors.runtime_error "SIMD VM fuel exhausted";
          check_deadline vm);
      h_tick_frontend = (fun () -> tick_frontend vm);
      h_reduction =
        (fun ~loc m ->
          if vm.trace.Lf_obs.Trace.enabled then Pool.sync exec;
          Metrics.reduction vm.metrics;
          stats_reduction ();
          if vm.trace.Lf_obs.Trace.enabled then
            Lf_obs.Trace.emit vm.trace
              {
                loc;
                step = vm.metrics.Metrics.steps;
                active = Frame.Mask.active m;
                p = vm.p;
                kind = Lf_obs.Trace.Reduce;
                mask = Frame.Mask.to_bool_array m;
              });
      h_call_metric = (fun name -> Metrics.call vm.metrics name);
      h_find_proc =
        (fun key ->
          match Hashtbl.find_opt vm.procs key with
          | Some f -> Some (fun ~mask args -> f vm ~mask args)
          | None -> None);
      h_find_func = (fun key -> Hashtbl.find_opt vm.funcs key);
      h_observer =
        (fun () ->
          match vm.observer with
          | Some f -> Some (fun ~mask s -> f vm ~mask s)
          | None -> None);
      h_flush = (fun () -> flush_frame vm frame);
      h_import = (fun () -> import_frame vm frame);
  }

let run_compiled vm ~(exec : Pool.exec) ?opt ?verify ?prepared
    (prog : program) =
  let frame, compiled =
    match prepared with
    | Some (frame, ir) ->
        (* Warm path: the front end already ran when the cache entry was
           built; re-emit the cached IR against a (pooled) frame created
           with the exact layout it was lowered for.  [verify] is
           irrelevant here — it gates [Opt.run], which is skipped. *)
        ( frame,
          Compile.emit ~host:(make_host vm frame exec) ~frame ~exec ?opt ir )
    | None ->
        let frame =
          Frame.create ~p:vm.p (frame_names vm (Compile.var_names prog))
        in
        ( frame,
          Compile.compile ~host:(make_host vm frame exec) ~frame ~exec ?opt
            ?verify prog.p_body )
  in
  import_frame vm frame;
  Fun.protect
    ~finally:(fun () -> flush_frame vm frame)
    (fun () -> compiled (Frame.Mask.create_full vm.p))

(* Run a program on the VM.  [setup] may pre-bind globals and parameters
   (problem sizes, input arrays) before declarations are processed.
   [engine] selects the tree-walking interpreter (default), the serial
   compiled closure engine, or the lane-sharded parallel engine; all
   three produce bit-identical state, metrics and errors.  [jobs] (only
   meaningful — and only validated — with [`Parallel]) bounds the shard
   count; it defaults to [Pool.default_jobs ()]. *)
let exec_engine vm engine ~jobs ~opt ~verify ~prepared (prog : program) =
  let p = vm.p in
  match engine with
  | `Tree_walk -> exec_block vm ~mask:(full_mask vm) prog.p_body
  | `Compiled ->
      run_compiled vm ~exec:(Pool.serial_exec ~p) ?opt ?verify ?prepared prog
  | `Parallel ->
      let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
      if jobs < 1 then invalid_arg "Vm.run: jobs must be >= 1";
      run_compiled vm
        ~exec:(Pool.parallel_exec ~p ~jobs)
        ?opt ?verify ?prepared prog

(** Engine dispatch plus the telemetry bracket, on an already-created,
    already-declared VM ([run] and [run_src] both funnel here).  Without
    telemetry the dispatch is a direct call, with no closure. *)
let run_on vm ?(engine = `Tree_walk) ?jobs ?opt ?verify ?prepared
    (prog : program) : unit =
  (if not (Stats.enabled ()) then
     exec_engine vm engine ~jobs ~opt ~verify ~prepared prog
   else
     (* GC and wall/CPU telemetry bracket the whole engine dispatch; the
        [finally] records even when the run dies (fuel, runtime error) so
        manifests of failing runs still carry the cost up to the fault.
        Minor words are the control domain's exact [Gc.minor_words]
        count: [Gc.quick_stat]'s minor count only moves at minor
        collections on OCaml 5. *)
     let dispatch () =
       exec_engine vm engine ~jobs ~opt ~verify ~prepared prog
     in
     let g0 = Gc.quick_stat () in
     let c0 = Sys.time () in
     (* an immediate, so the [finally] closure boxes nothing *)
     let t0 = Int64.to_int (Stats.now_ns ()) in
     let w0 = Gc.minor_words () in
     Fun.protect
       ~finally:(fun () ->
         let w1 = Gc.minor_words () in
         let t1 = Int64.to_int (Stats.now_ns ()) in
         let c1 = Sys.time () in
         let g1 = Gc.quick_stat () in
         Stats.add_span_ns st_run_wall (Int64.of_int (t1 - t0));
         Stats.add_gauge st_run_cpu (c1 -. c0);
         Stats.add_gauge st_minor_words (w1 -. w0);
         Stats.add_gauge st_promoted_words
           (g1.promoted_words -. g0.promoted_words);
         Stats.add_gauge st_major_words (g1.major_words -. g0.major_words);
         Stats.add st_minor_colls
           (g1.minor_collections - g0.minor_collections);
         Stats.add st_major_colls
           (g1.major_collections - g0.major_collections))
       dispatch)

let run ?fuel ?engine ?jobs ?opt ?verify ~p ?(setup = fun _ -> ())
    (prog : program) : t =
  let vm = create ?fuel ~p () in
  setup vm;
  declare vm prog.p_decls;
  run_on vm ?engine ?jobs ?opt ?verify prog;
  vm

(* ------------------------------------------------------------------ *)
(* Source-level entry with the program cache                           *)
(* ------------------------------------------------------------------ *)

let run_src ?fuel ?(engine = `Tree_walk) ?jobs ?(opt = 1) ?(verify = false)
    ?cache ~p ?(setup = fun _ -> ()) (src : string) : t =
  match cache with
  | None ->
      run ?fuel ~engine ?jobs ~opt ~verify ~p ~setup
        (Lf_lang.Parser.program_of_string src)
  | Some cache ->
      let key = Progcache.key ~md5:(Digest.string src) ~opt ~verify ~p in
      let entry, hit =
        match Progcache.find cache key with
        | Some e -> (e, true)
        | None ->
            let t0 = Stats.now_ns () in
            let prog = Lf_lang.Parser.program_of_string src in
            let front_ns = Int64.sub (Stats.now_ns ()) t0 in
            (Progcache.insert cache key ~front_ns prog, false)
      in
      let prog = entry.Progcache.e_prog in
      let vm = create ?fuel ~p () in
      setup vm;
      declare vm prog.p_decls;
      (match engine with
      | `Tree_walk ->
          if hit then Progcache.credit_warm entry;
          run_on vm ~engine ?jobs ~opt ~verify prog
      | `Compiled | `Parallel ->
          let layout = frame_names vm entry.Progcache.e_ast_names in
          let ir, warm =
            match entry.Progcache.e_lowered with
            | Some (lay, ir) when lay = layout -> (ir, true)
            | _ ->
                (* First compiled-engine run under this key (or the
                   setup seeded a different extras set): pay the front
                   end once, against a frame created with this exact
                   layout, and remember it.  A [Verify.Error] or type
                   error propagates before anything is stored, so every
                   warm retry fails with the identical message. *)
                let t0 = Stats.now_ns () in
                let f = Frame.create ~p layout in
                let ir = Compile.lower ~frame:f ~opt ~verify prog.p_body in
                Progcache.add_front_ns entry (Int64.sub (Stats.now_ns ()) t0);
                entry.Progcache.e_lowered <- Some (layout, ir);
                entry.Progcache.e_frames <- [ f ];
                (ir, false)
          in
          if hit && warm then Progcache.credit_warm entry;
          let frame = Progcache.take_frame entry ~p layout in
          Fun.protect
            ~finally:(fun () -> Progcache.release_frame entry frame)
            (fun () ->
              run_on vm ~engine ?jobs ~opt ~verify ~prepared:(frame, ir)
                prog));
      vm

(* The frame and unoptimized IR [run] would lower [prog] to: a fresh VM
   set up and declared as for a run, nothing executed. *)
let lower_standalone ~p ~setup (prog : program) =
  let vm = create ~p () in
  setup vm;
  declare vm prog.p_decls;
  let frame = Frame.create ~p (frame_names vm (Compile.var_names prog)) in
  (frame, Ir.of_block frame prog.p_body)

let dump_ir ?(opt = 1) ~p ?(setup = fun _ -> ()) (prog : program) =
  let frame, ir = lower_standalone ~p ~setup prog in
  let ir = Opt.run ~level:opt ~frame ir in
  fun oc -> Lf_obs.Json.stream oc (fun ~spill b -> Ir.write_json ~spill ~opt b ir)

let dump_ir_phases ?(opt = 1) ~p ?(setup = fun _ -> ()) (prog : program) :
    (string * string) list =
  let frame, ir = lower_standalone ~p ~setup prog in
  let acc = ref [] in
  (* the pipeline annotates one mutable tree in place; writing the JSON
     inside the callback snapshots each phase's state *)
  let snapshot b =
    let buf = Buffer.create 4096 in
    Ir.write_json ~opt buf b;
    Buffer.contents buf
  in
  ignore
    (Opt.run ~level:opt ~frame
       ~dump:(fun name b -> acc := (name, snapshot b) :: !acc)
       ir);
  List.rev !acc

(** Standalone verification without executing: lower against the same
    frame name table [run] would use and run the [Opt] pipeline at [opt]
    with the IR verifier enabled at every phase boundary.
    @raise Verify.Error on a broken invariant. *)
let verify_ir ?(opt = 1) ~p ?(setup = fun _ -> ()) (prog : program) : unit =
  let frame, ir = lower_standalone ~p ~setup prog in
  ignore (Opt.run ~level:opt ~frame ~verify:true ir)

(* ------------------------------------------------------------------ *)
(* Engine-equivalence checks                                           *)
(* ------------------------------------------------------------------ *)

let entry_equal a b =
  match (a, b) with
  | VScalar r1, VScalar r2 -> Values.equal_value !r1 !r2
  | VPlural l1, VPlural l2 ->
      let n = Frame.lanes_length l1 in
      n = Frame.lanes_length l2
      &&
      let rec go i =
        i >= n
        || Values.equal_value (Frame.lane_value l1 i) (Frame.lane_value l2 i)
           && go (i + 1)
      in
      go 0
  | VGlobal a1, VGlobal a2 | VPluralArr a1, VPluralArr a2 ->
      Values.equal_value (VArr a1) (VArr a2)
  | _ -> false

(** Same variable table: same names bound to the same kind of entry with
    equal values (used by the differential tests to prove the two engines
    interchangeable). *)
let state_equal vma vmb =
  Hashtbl.length vma.vars = Hashtbl.length vmb.vars
  && Hashtbl.fold
       (fun k e acc ->
         acc
         &&
         match Hashtbl.find_opt vmb.vars k with
         | Some e' -> entry_equal e e'
         | None -> false)
       vma.vars true
