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

include Vmstate

let full_mask vm = Frame.Mask.create_full vm.p

(* Whether lane [i] of [mask] is active. *)
let[@inline] on (mask : Frame.Mask.t) i =
  Bytes.unsafe_get mask.Frame.Mask.bits i <> '\000'

(* observers and procedures get a fresh [bool array] copy of the mask *)
let observe vm ~mask s =
  match vm.observer with
  | Some f -> f vm ~mask:(Frame.Mask.to_bool_array mask) s
  | None -> ()

(* The tree-walker's charges: the location is the executing
   statement's. *)
let tick vm ~mask ~kind = tick_vector vm ~loc:vm.cur_loc ~kind mask

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

(* Sharing rule: a [Pval.Plural] returned by [eval] may be a variable's
   own lane vector (an [EVar] read does not copy it), so values returned
   by [eval] are read-only.  Variable storage is written only by
   [assign], which reads its right-hand side completely before the
   lanes it writes can alias it (lane [i] reads lane [i]); a write that
   changes a lane's type replaces the variable's vector instead.  Fresh
   bindings and external procedures get private copies ([Pval.expose]).

   Typed lanes: every vector instruction whose operands have unboxed
   lanes runs one lane kernel from [Scalar_ops] / [Intrinsics] — the
   compiled engine's kernels — over the mask's bytes, through the VM's
   serial runner; anything else goes through the boxed view and
   re-specializes its active lanes ([Pval.map_active]).  Inactive lanes
   of a computed plural are unspecified (a total kernel computes every
   lane): nothing reads them except the reduction witness, fresh
   bindings and procedure arguments, which see them as the inert
   [VInt 0] unless the plural is [exact]. *)

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
let real_of vm = function
  | VR a -> a
  | VI [| n |] -> [| float_of_int n |]
  | VI a -> Scalar_ops.to_real vm.serial a
  | VB _ | Other -> invalid_arg "Vm.real_of"

(* a fresh plural whose lanes [f] fills *)
let plural_i vm f =
  let r = Array.make vm.p 0 in
  f r;
  Pval.Plural (Frame.LInt r)

let plural_r vm f =
  let r = Array.make vm.p 0.0 in
  f r;
  Pval.Plural (Frame.LReal r)

let plural_b vm f =
  let r = Array.make vm.p false in
  f r;
  Pval.Plural (Frame.LBool r)

(** A binary operator, lane-wise under the mask.  Int, real and mixed
    arithmetic and comparisons, and LOGICAL comparisons and [.AND.] /
    [.OR.], run as lane kernels; the rest ([**], type errors, boxed
    lanes) per lane through [Scalar_ops.apply_binop]. *)
let binop vm ~mask op va vb =
  match (va, vb) with
  | Pval.FScalar x, Pval.FScalar y ->
      Pval.FScalar (Scalar_ops.apply_binop op x y)
  | Pval.FArr _, _ | _, Pval.FArr _ ->
      Errors.runtime_error "array operand in a lane-wise operation"
  | _ -> (
      let run = vm.serial and bp = mask.Frame.Mask.bits in
      let arith = Scalar_ops.is_arith op and cmp = Scalar_ops.is_cmp op in
      match (view va, view vb) with
      | VI x, VI y when arith ->
          plural_i vm (fun r -> Scalar_ops.map2_i run bp op r x y)
      | VI x, VI y when cmp ->
          plural_b vm (fun r -> Scalar_ops.cmp_i run op r x y)
      | ((VI _ | VR _) as x), ((VI _ | VR _) as y) when arith ->
          let x = real_of vm x and y = real_of vm y in
          plural_r vm (fun r -> Scalar_ops.map2_r run bp op r x y)
      | ((VI _ | VR _) as x), ((VI _ | VR _) as y) when cmp ->
          let x = real_of vm x and y = real_of vm y in
          plural_b vm (fun r -> Scalar_ops.cmp_r run op r x y)
      | VB x, VB y when cmp || op = And || op = Or ->
          plural_b vm (fun r -> Scalar_ops.map2_b run op r x y)
      | _ -> Pval.lift2 ~mask (Scalar_ops.apply_binop op) va vb)

let unop vm ~mask op v =
  let run = vm.serial and bp = mask.Frame.Mask.bits and u = Some op in
  match (op, v) with
  | _, Pval.FScalar x -> Pval.FScalar (Scalar_ops.apply_unop op x)
  | Neg, Pval.Plural (Frame.LInt x) ->
      plural_i vm (fun r -> Scalar_ops.map1_i run bp u r x)
  | Neg, Pval.Plural (Frame.LReal x) ->
      plural_r vm (fun r -> Scalar_ops.map1_r run bp u r x)
  | Not, Pval.Plural (Frame.LBool x) ->
      plural_b vm (fun r -> Scalar_ops.map1_b run bp u r x)
  | _ -> Pval.lift1 ~mask (Scalar_ops.apply_unop op) v

(** A numeric intrinsic with a lane kernel ([Intrinsics.lane_fn]) over
    numeric operands, under a mask with an active lane; [None] for every
    other call, which then runs per lane through the boxed view. *)
let lane_intrinsic vm ~mask key vargs =
  let run = vm.serial and bp = mask.Frame.Mask.bits in
  match (Intrinsics.lane_fn key, List.map view vargs) with
  | _ when Frame.Mask.active mask = 0 -> None
  | Some (Intrinsics.Num1 Intrinsics.Abs), [ VI x ] ->
      Some (plural_i vm (fun r -> Intrinsics.int_abs run bp r x))
  | Some (Intrinsics.Num1 k), [ ((VI _ | VR _) as x) ] ->
      let x = real_of vm x in
      Some (plural_r vm (fun r -> Intrinsics.real_map1 run bp k r x))
  | Some (Intrinsics.To_int round), [ ((VI _ | VR _) as x) ] ->
      let x = real_of vm x in
      Some (plural_i vm (fun r -> Intrinsics.to_int run bp ~round r x))
  | Some (Intrinsics.Num2 k), [ VI x; VI y ] ->
      Some (plural_i vm (fun r -> Intrinsics.int_map2 run bp k r x y))
  | Some (Intrinsics.Num2 k), [ ((VI _ | VR _) as x); ((VI _ | VR _) as y) ]
    ->
      let x = real_of vm x and y = real_of vm y in
      Some (plural_r vm (fun r -> Intrinsics.real_map2 run bp k r x y))
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
      | Lanes (Frame.LReal a) ->
          (* [as_int]'s test ([Float.is_integer]) written out, so that
             only its error boxes *)
          let f = a.(i) in
          if Float.trunc f = f && f -. f = 0.0 then int_of_float f
          else as_int (VReal f)
      | Lanes l -> as_int (Frame.lane_value l i))
  done

let is_lanes = function Lanes _ -> true | Const _ -> false

(* The flat offset of each lane's element through the index buffer
   and [Nd.linear_index]. *)
let offsets (d : _ Nd.t) idx ~lead subs i =
  fill_index idx ~lead subs i;
  Nd.linear_index d idx

(* Whether the gather and scatter kernels take the subscripts [subs] of
   [d]: a rank-1 or rank-2 access by int lanes, then int lanes or a
   constant; [ix2] is the kernel's second subscript vector. *)
let kernel_rank (d : _ Nd.t) ~lead subs =
  (not lead) && Nd.rank d = Array.length subs

let one = [| 1 |]

let ix2 = function
  | [| _; Lanes (Frame.LInt b) |] -> b
  | [| _; Const c |] -> [| c |]
  | _ -> one

(** Gather one element per active lane into a lane vector of the array's
    element type. *)
let gather vm ~mask (a : arr) idx ~lead subs : Pval.t =
  let run = vm.serial and bp = mask.Frame.Mask.bits in
  match (a, subs) with
  | ( AInt d,
      ( [| Lanes (Frame.LInt ix) |]
      | [| Lanes (Frame.LInt ix); (Const _ | Lanes (Frame.LInt _)) |] ) )
    when kernel_rank d ~lead subs ->
      plural_i vm (fun r -> Scalar_ops.gather_i run bp r d ix (ix2 subs))
  | ( AReal d,
      ( [| Lanes (Frame.LInt ix) |]
      | [| Lanes (Frame.LInt ix); (Const _ | Lanes (Frame.LInt _)) |] ) )
    when kernel_rank d ~lead subs ->
      plural_r vm (fun r -> Scalar_ops.gather_r run bp r d ix (ix2 subs))
  | AInt d, _ ->
      let off = offsets d idx ~lead subs in
      plural_i vm (fun r -> Scalar_ops.gather_at_i run bp r d.Nd.data off)
  | AReal d, _ ->
      let off = offsets d idx ~lead subs in
      plural_r vm (fun r -> Scalar_ops.gather_at_r run bp r d.Nd.data off)
  | ABool d, _ ->
      let off = offsets d idx ~lead subs in
      plural_b vm (fun r -> Scalar_ops.gather_at_b run bp r d.Nd.data off)

(** Scatter [rhs] per active lane, ascending: a lane's value is read
    before its subscripts are converted.  Only LOGICAL and boxed lanes,
    and REAL lanes into an INTEGER array, store boxed values. *)
let scatter vm ~mask (a : arr) idx ~lead subs rhs =
  let run = vm.serial and bp = mask.Frame.Mask.bits in
  match (a, view rhs, subs) with
  | ( AReal d,
      ((VI _ | VR _) as x),
      ( [| Lanes (Frame.LInt ix) |]
      | [| Lanes (Frame.LInt ix); (Const _ | Lanes (Frame.LInt _)) |] ) )
    when kernel_rank d ~lead subs ->
      let x = real_of vm x in
      Scalar_ops.scatter_r run bp d ix (ix2 subs) None x x
  | ( AInt d,
      VI x,
      ( [| Lanes (Frame.LInt ix) |]
      | [| Lanes (Frame.LInt ix); (Const _ | Lanes (Frame.LInt _)) |] ) )
    when kernel_rank d ~lead subs ->
      Scalar_ops.scatter_i run bp d ix (ix2 subs) None x x
  | AReal d, ((VI _ | VR _) as x), _ ->
      let x = real_of vm x in
      Scalar_ops.scatter_at_r run bp d.Nd.data (offsets d idx ~lead subs) x
  | AInt d, VI x, _ ->
      Scalar_ops.scatter_at_i run bp d.Nd.data (offsets d idx ~lead subs) x
  | _ ->
      for i = 0 to vm.p - 1 do
        if on mask i then begin
          let v = Pval.lane rhs i in
          fill_index idx ~lead subs i;
          arr_set a idx v
        end
      done

let rec eval vm ~(mask : Frame.Mask.t) (e : expr) : Pval.t =
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
  | EUn (op, a) -> unop vm ~mask op (eval vm ~mask a)
  | EBin (op, a, b) ->
      (* left to right, matching the compiled engine: error order (which
         undefined variable is reported first) is observable *)
      let va = eval vm ~mask a in
      let vb = eval vm ~mask b in
      binop vm ~mask op va vb
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
  if Array.exists is_lanes subs then gather vm ~mask a idx ~lead:false subs
  else begin
    fill_index idx ~lead:false subs 0;
    Pval.FScalar (arr_get a idx)
  end

and index_plural_arr vm ~mask (a : arr) (args : expr list) : Pval.t =
  let subs = subscripts vm ~mask args in
  let idx = Array.make (Array.length subs + 1) 0 in
  gather vm ~mask a idx ~lead:true subs

and eval_call vm ~mask name args : Pval.t =
  let key = Intrinsics.key name in
  if Intrinsics.is_reduction key then begin
    reduction vm ~loc:vm.cur_loc mask;
    let a =
      match args with
      | [ a ] -> a
      | _ -> Errors.runtime_error "%s expects one argument" name
    in
    let v = eval vm ~mask a in
    Pval.FScalar
      (Pval.reduction ~run:vm.serial ~join:ignore ~scratch:(Lazy.force vm.red)
         ~mask ~exact:(is_exact a) ~name key v)
  end
  else
    let func = Hashtbl.find_opt vm.funcs key in
    let vargs = List.map (eval vm ~mask) args in
    (* one function of the arguments, resolved once per vector: the
       registered per-lane function, else the intrinsic *)
    let apply =
      match func with
      | Some (f, _pure) -> f
      | None -> (
          let f = Intrinsics.resolve key in
          fun args ->
            match f args with
            | Some r -> r
            | None -> Errors.runtime_error "unknown function %s" name)
    in
    if List.exists Pval.is_plural vargs then
      (* lane-wise call: an intrinsic with a lane loop unless a
         registered function overrides it, else one call per lane *)
      match
        if Option.is_none func then lane_intrinsic vm ~mask key vargs
        else None
      with
      | Some r -> r
      | None ->
          Pval.Plural
            (Pval.map_active ~mask (fun i -> apply (lane_args vargs i)))
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
  let run = vm.serial and bp = mask.Frame.Mask.bits in
  match (lanes, view rhs) with
  | Frame.LInt d, VI x -> Scalar_ops.map1_i run bp None d x
  | Frame.LReal d, VR x -> Scalar_ops.map1_r run bp None d x
  | Frame.LBool d, VB x -> Scalar_ops.map1_b run bp None d x
  | _ ->
      if Frame.Mask.active mask > 0 then begin
        let vs = Frame.values_of_lanes lanes in
        Scalar_ops.fill_v run bp vs (Pval.lane rhs);
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
        scatter vm ~mask a idx ~lead:false subs rhs
      else begin
        let v = Pval.as_front_scalar rhs in
        fill_index idx ~lead:false subs 0;
        arr_set a idx v
      end
  | Some (VPluralArr a), idxs ->
      let subs = subscripts vm ~mask idxs in
      let idx = Array.make (Array.length subs + 1) 0 in
      scatter vm ~mask a idx ~lead:true subs rhs
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

(* A spare mask: one a finished WHERE gave back, else a new one.  A
   WHERE left by an exception does not give its masks back. *)
let take_mask vm =
  match vm.spare_masks with
  | m :: rest ->
      vm.spare_masks <- rest;
      m
  | [] -> Frame.Mask.create_empty vm.p

let rec exec vm ~(mask : Frame.Mask.t) (s : stmt) : unit =
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
      | Pval.Plural _ -> tick vm ~mask ~kind:Lf_obs.Trace.Assign
      | _ -> tick_frontend vm);
      assign vm ~mask l rhs
  | SCall (name, args) -> (
      observe vm ~mask s;
      let key = Intrinsics.key name in
      match Hashtbl.find_opt vm.procs key with
      | Some f ->
          call vm key ~loc:vm.cur_loc mask;
          (* the procedure owns its arguments: plurals are copied, since
             an [EVar] read shares the variable's lanes *)
          f vm
            ~mask:(Frame.Mask.to_bool_array mask)
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
      tick vm ~mask ~kind:Lf_obs.Trace.Where;
      let mt = take_mask vm and mf = take_mask vm in
      Pval.split ~mask cv mt mf;
      if t <> [] then exec_block vm ~mask:mt t;
      if f <> [] then exec_block vm ~mask:mf f;
      vm.spare_masks <- mt :: mf :: vm.spare_masks
  | SWhile (c, body) ->
      let continue_ () =
        match eval vm ~mask c with
        | Pval.FScalar v ->
            tick_frontend vm;
            as_bool v
        | Pval.Plural l ->
            tick vm ~mask ~kind:Lf_obs.Trace.While;
            Pval.while_test ~mask l
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

(* The lane-loop dispatcher of a compiled engine: [Pool.serial_exec] for
   the serial compiled engine, [Pool.parallel_exec] to shard the lanes
   over the Domain pool while everything sequential — control flow,
   metrics, fuel, trace emission, front-end state — stays on this
   thread.  [jobs] is validated only for [`Parallel]. *)
let exec_of ~p ~jobs = function
  | `Parallel ->
      let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
      if jobs < 1 then invalid_arg "Vm.run: jobs must be >= 1";
      Pool.parallel_exec ~p ~jobs
  | `Compiled -> Pool.serial_exec ~p

(* Emit [ir] against [frame] (created with the layout [ir] was lowered
   for) and run it under a full mask.  State is imported at the start and
   after every external CALL, and flushed back at the end (also on the
   error path, so a failing compiled run leaves the same partial state
   as a failing tree-walk). *)
let run_compiled vm ~exec ~opt ~frame ir =
  let compiled = Compile.emit ~vm ~frame ~exec ~opt ir in
  import_frame vm frame;
  Fun.protect
    ~finally:(fun () -> flush_frame vm frame)
    (fun () -> compiled (Frame.Mask.create_full vm.p))

module Stats = Lf_obs.Stats

let st_run_wall = Stats.timer "vm.run_wall"
let st_run_cpu = Stats.gauge "vm.run_cpu_s"
let st_minor_words = Stats.gauge "gc.minor_words"
let st_promoted_words = Stats.gauge "gc.promoted_words"
let st_major_words = Stats.gauge "gc.major_words"
let st_minor_colls = Stats.counter ~section:Stats.Volatile "gc.minor_collections"
let st_major_colls = Stats.counter ~section:Stats.Volatile "gc.major_collections"

(* [f vm x] under the telemetry bracket, the engine dispatch of [run] and
   [run_src]: GC deltas and run timers ([Volatile]).  The [finally]
   records even when the run dies (fuel, runtime error), so manifests of
   failing runs still carry the cost up to the fault.  The word counts
   are exact: minor words are the control domain's [Gc.minor_words],
   promoted and major words come from [Gc.counters].  On OCaml 5
   [Gc.quick_stat]'s minor count only moves at minor collections and its
   major count only at major slices, and [Gc.counters]' minor count is
   not exact either.  Without telemetry it is a direct call, with no
   closure. *)
let timed f vm x =
  if not (Stats.enabled ()) then f vm x
  else
    let g0 = Gc.quick_stat () in
    let _, promoted0, major0 = Gc.counters () in
    let c0 = Sys.time () in
    (* an immediate, so the [finally] closure boxes nothing *)
    let t0 = Int64.to_int (Stats.now_ns ()) in
    let w0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () ->
        let w1 = Gc.minor_words () in
        let t1 = Int64.to_int (Stats.now_ns ()) in
        let c1 = Sys.time () in
        let _, promoted1, major1 = Gc.counters () in
        let g1 = Gc.quick_stat () in
        Stats.add_span_ns st_run_wall (Int64.of_int (t1 - t0));
        Stats.add_gauge st_run_cpu (c1 -. c0);
        Stats.add_gauge st_minor_words (w1 -. w0);
        Stats.add_gauge st_promoted_words (promoted1 -. promoted0);
        Stats.add_gauge st_major_words (major1 -. major0);
        Stats.add st_minor_colls (g1.minor_collections - g0.minor_collections);
        Stats.add st_major_colls (g1.major_collections - g0.major_collections))
      (fun () -> f vm x)

let walk vm body = exec_block vm ~mask:(full_mask vm) body

(* Run a program on the VM.  [setup] may pre-bind globals and parameters
   (problem sizes, input arrays) before declarations are processed.
   [engine] selects the tree-walking interpreter (default), the serial
   compiled closure engine, or the lane-sharded parallel engine; all
   three produce bit-identical state, metrics and errors.  A compiled
   engine lowers [prog.p_body] against a frame covering the program's
   names plus anything pre-seeded in [vm.vars], inside the bracket. *)
let run ?fuel ?(engine = `Tree_walk) ?jobs ?(opt = 1) ?(verify = false) ~p
    ?(setup = fun _ -> ()) (prog : program) : t =
  let vm = create ?fuel ~p () in
  setup vm;
  declare vm prog.p_decls;
  (match engine with
  | `Tree_walk -> timed walk vm prog.p_body
  | (`Compiled | `Parallel) as engine ->
      timed
        (fun vm prog ->
          let exec = exec_of ~p ~jobs engine in
          let names = frame_names vm (Compile.var_names prog) in
          let frame = Frame.create ~p names in
          run_compiled vm ~exec ~opt ~frame
            (Compile.lower ~frame ~opt ~verify prog.p_body))
        vm prog);
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
          timed walk vm prog.p_body
      | (`Compiled | `Parallel) as engine ->
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
          (* a warm run re-emits the cached IR against a pooled frame
             created with the exact layout it was lowered for *)
          let frame = Progcache.take_frame entry ~p layout in
          Fun.protect
            ~finally:(fun () -> Progcache.release_frame entry frame)
            (fun () ->
              timed
                (fun vm frame ->
                  run_compiled vm ~exec:(exec_of ~p ~jobs engine) ~opt ~frame
                    ir)
                vm frame));
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
