(** The reference SIMD machine: a boxed, lane-by-lane interpreter of
    F90simd, kept apart from what a comparison does not need (observers,
    traces, telemetry, deadlines).  Plural values are [value array]s of
    boxed lanes, every operation goes lane by lane through
    [Scalar_ops.apply_binop] / [Intrinsics], and the inactive lanes of
    every computed plural hold [VInt 0].  It shares no execution code
    with [Lf_simd.Vm]'s compiled engine beyond those scalar operations
    and [Metrics], so the compiled engine at every [-O] level must
    reproduce its final state bit for bit, its [Metrics] exactly and its
    error messages byte for byte ([run], [compiled], [disagreement]). *)

open Lf_lang
open Lf_lang.Ast
open Values
module Metrics = Lf_simd.Metrics

(* ------------------------------------------------------------------ *)
(* Plural values                                                       *)
(* ------------------------------------------------------------------ *)

type pval = FScalar of value | FArr of arr | Plural of value array

let lane v i =
  match v with
  | FScalar s -> s
  | Plural vs -> vs.(i)
  | FArr _ -> Errors.runtime_error "front-end array used as a plural value"

let is_plural = function Plural _ -> true | _ -> false

let as_front_scalar = function
  | FScalar v -> v
  | Plural _ -> Errors.runtime_error "plural value in a front-end context"
  | FArr _ -> Errors.runtime_error "array value in a scalar context"

let as_front_int v = as_int (as_front_scalar v)

let map_active ~(mask : bool array) f =
  let r = Array.make (Array.length mask) (VInt 0) in
  for i = 0 to Array.length mask - 1 do
    if mask.(i) then r.(i) <- f i
  done;
  Plural r

let lift2 ~(mask : bool array) f a b =
  match (a, b) with
  | FScalar x, FScalar y -> FScalar (f x y)
  | Plural xs, Plural ys -> map_active ~mask (fun i -> f xs.(i) ys.(i))
  | Plural xs, FScalar y -> map_active ~mask (fun i -> f xs.(i) y)
  | FScalar x, Plural ys -> map_active ~mask (fun i -> f x ys.(i))
  | _ -> Errors.runtime_error "array operand in a lane-wise operation"

let lift1 ~(mask : bool array) f a =
  match a with
  | FScalar x -> FScalar (f x)
  | Plural xs -> map_active ~mask (fun i -> f xs.(i))
  | FArr _ -> Errors.runtime_error "array operand in a lane-wise operation"

let witness = function
  | FScalar s -> s
  | Plural vs -> if Array.length vs = 0 then VInt 0 else vs.(0)
  | FArr _ -> VInt 0

let reduction_identity key witness =
  match witness with
  | VReal _ -> (
      match key with
      | "maxval" -> VReal neg_infinity
      | "minval" -> VReal infinity
      | _ -> VReal 0.0)
  | VBool _ -> (
      match key with
      | "maxval" -> VBool false
      | "minval" -> VBool true
      | _ -> VInt 0)
  | _ -> (
      match key with
      | "maxval" -> VInt min_int
      | "minval" -> VInt max_int
      | _ -> VInt 0)

let reduce ~(mask : bool array) ~empty f v =
  match v with
  | Plural vs ->
      let p = Array.length mask in
      let acc = ref empty and have_acc = ref false in
      for c = 0 to Scalar_ops.nchunks p - 1 do
        let l = c * Scalar_ops.chunk
        and h = min p ((c + 1) * Scalar_ops.chunk) in
        let part = ref empty and have_part = ref false in
        for i = l to h - 1 do
          if mask.(i) then
            if !have_part then part := f !part vs.(i)
            else begin
              part := vs.(i);
              have_part := true
            end
        done;
        if !have_part then
          if !have_acc then acc := f !acc !part
          else begin
            acc := !part;
            have_acc := true
          end
      done;
      !acc
  | FScalar s -> if Array.exists Fun.id mask then s else empty
  | FArr _ -> Errors.runtime_error "array operand in a plural reduction"

(* ------------------------------------------------------------------ *)
(* The machine                                                         *)
(* ------------------------------------------------------------------ *)

type entry =
  | VScalar of value ref
  | VPlural of value array
  | VGlobal of arr
  | VPluralArr of arr

type t = {
  p : int;
  vars : (string, entry) Hashtbl.t;
  metrics : Metrics.t;
  mutable fuel : int;
  procs : (string, mask:bool array -> pval list -> unit) Hashtbl.t;
  funcs : (string, value list -> value) Hashtbl.t;
}

let create ~fuel ~p =
  let vm =
    {
      p;
      vars = Hashtbl.create 64;
      metrics = Metrics.create ();
      fuel;
      procs = Hashtbl.create 8;
      funcs = Hashtbl.create 8;
    }
  in
  Hashtbl.replace vm.vars "iproc"
    (VPlural (Array.init p (fun i -> VInt (i + 1))));
  vm

let active_count mask =
  Array.fold_left (fun n b -> if b then n + 1 else n) 0 mask

let tick_vector vm ~mask =
  Metrics.vector_step vm.metrics ~active:(active_count mask) ~p:vm.p;
  vm.fuel <- vm.fuel - 1;
  if vm.fuel <= 0 then Errors.runtime_error "SIMD VM fuel exhausted"

let tick_frontend vm =
  Metrics.frontend_step vm.metrics;
  vm.fuel <- vm.fuel - 1;
  if vm.fuel <= 0 then Errors.runtime_error "SIMD VM fuel exhausted"

let bind_scalar vm name v = Hashtbl.replace vm.vars name (VScalar (ref v))

let bind_plural vm name vs =
  if Array.length vs <> vm.p then
    Errors.runtime_error "plural %s has %d lanes, machine has %d" name
      (Array.length vs) vm.p;
  Hashtbl.replace vm.vars name (VPlural vs)

let bind_global vm name a = Hashtbl.replace vm.vars name (VGlobal a)

let bind_plural_arr vm name ty dims =
  let dims = Array.append [| vm.p |] dims in
  Hashtbl.replace vm.vars name (VPluralArr (alloc_arr ty dims))

let find vm name =
  match Hashtbl.find_opt vm.vars name with
  | Some e -> e
  | None -> Errors.runtime_error "undefined variable %s" name

let find_opt vm name = Hashtbl.find_opt vm.vars name

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let is_reduction f =
  List.mem (String.lowercase_ascii f)
    [ "any"; "all"; "maxval"; "minval"; "sum"; "count" ]

type sub = Const of int | Lanes of value array

let fill_index idx ~lead (subs : sub array) i =
  let off = if lead then 1 else 0 in
  if lead then idx.(0) <- i + 1;
  for k = 0 to Array.length subs - 1 do
    idx.(off + k) <-
      (match subs.(k) with Const n -> n | Lanes vs -> as_int vs.(i))
  done

let is_lanes = function Lanes _ -> true | Const _ -> false

let rec eval vm ~(mask : bool array) (e : expr) : pval =
  match e with
  | EInt n -> FScalar (VInt n)
  | EReal f -> FScalar (VReal f)
  | EBool b -> FScalar (VBool b)
  | ERange (lo, hi) ->
      let lo = front_int vm ~mask lo in
      let hi = front_int vm ~mask hi in
      let n = max 0 (hi - lo + 1) in
      if n = vm.p then Plural (Array.init n (fun i -> VInt (lo + i)))
      else FArr (AInt (Nd.of_array (Array.init n (fun i -> lo + i))))
  | EVar v -> (
      match find vm v with
      | VScalar r -> FScalar !r
      | VPlural vs -> Plural vs
      | VGlobal a | VPluralArr a -> FArr a)
  | EUn (op, a) ->
      lift1 ~mask (fun v -> Scalar_ops.apply_unop op v) (eval vm ~mask a)
  | EBin (op, a, b) ->
      let va = eval vm ~mask a in
      let vb = eval vm ~mask b in
      lift2 ~mask (fun x y -> Scalar_ops.apply_binop op x y) va vb
  | ECall (name, args) -> eval_call vm ~mask name args
  | EIdx (name, args) -> (
      match find_opt vm name with
      | Some (VGlobal a) -> index_global vm ~mask a args
      | Some (VPluralArr a) -> index_plural_arr vm ~mask a args
      | Some _ -> Errors.runtime_error "%s is a scalar but is indexed" name
      | None -> eval_call vm ~mask name args)

and front_int vm ~mask e = as_front_int (eval vm ~mask e)

and subscripts vm ~mask (args : expr list) : sub array =
  Array.of_list
    (List.map
       (fun e ->
         match eval vm ~mask e with
         | FScalar v -> Const (as_int v)
         | Plural vs -> Lanes vs
         | FArr _ -> Errors.runtime_error "array-valued subscript")
       args)

and index_global vm ~mask (a : arr) (args : expr list) : pval =
  let subs = subscripts vm ~mask args in
  let idx = Array.make (Array.length subs) 0 in
  if Array.exists is_lanes subs then
    map_active ~mask (fun i ->
        fill_index idx ~lead:false subs i;
        arr_get a idx)
  else begin
    fill_index idx ~lead:false subs 0;
    FScalar (arr_get a idx)
  end

and index_plural_arr vm ~mask (a : arr) (args : expr list) : pval =
  let subs = subscripts vm ~mask args in
  let idx = Array.make (Array.length subs + 1) 0 in
  map_active ~mask (fun i ->
      fill_index idx ~lead:true subs i;
      arr_get a idx)

and eval_call vm ~mask name args : pval =
  let key = String.lowercase_ascii name in
  if is_reduction key then begin
    Metrics.reduction vm.metrics;
    let v =
      match args with
      | [ a ] -> eval vm ~mask a
      | _ -> Errors.runtime_error "%s expects one argument" name
    in
    match v with
    | FArr a -> (
        match Intrinsics.apply key [ VArr a ] with
        | Some r -> FScalar r
        | None -> Errors.runtime_error "bad reduction %s" name)
    | v ->
        let r =
          match key with
          | "any" ->
              reduce ~mask ~empty:(VBool false)
                (fun a b -> VBool (as_bool a || as_bool b))
                v
          | "all" ->
              reduce ~mask ~empty:(VBool true)
                (fun a b -> VBool (as_bool a && as_bool b))
                v
          | "count" -> (
              match v with
              | Plural vs ->
                  let n = ref 0 in
                  Array.iteri
                    (fun i active -> if active && as_bool vs.(i) then incr n)
                    mask;
                  VInt !n
              | FScalar s -> VInt (if as_bool s then active_count mask else 0)
              | _ -> Errors.runtime_error "count: bad operand")
          | "maxval" ->
              reduce ~mask
                ~empty:(reduction_identity "maxval" (witness v))
                (fun a b ->
                  if as_bool (Scalar_ops.apply_binop Gt a b) then a else b)
                v
          | "minval" ->
              reduce ~mask
                ~empty:(reduction_identity "minval" (witness v))
                (fun a b ->
                  if as_bool (Scalar_ops.apply_binop Lt a b) then a else b)
                v
          | "sum" ->
              reduce ~mask
                ~empty:(reduction_identity "sum" (witness v))
                (fun a b -> Scalar_ops.apply_binop Add a b)
                v
          | _ -> Errors.runtime_error "unknown reduction %s" name
        in
        FScalar r
  end
  else
    let func = Hashtbl.find_opt vm.funcs key in
    let vargs = List.map (eval vm ~mask) args in
    let f =
      match func with
      | Some f -> fun args -> Some (f args)
      | None -> Intrinsics.resolve key
    in
    let apply args =
      match f args with
      | Some r -> r
      | None -> Errors.runtime_error "unknown function %s" name
    in
    if List.exists is_plural vargs then
      map_active ~mask (fun i -> apply (List.map (fun v -> lane v i) vargs))
    else
      let front = function
        | FScalar v -> v
        | FArr a when Option.is_none func -> VArr a
        | v -> as_front_scalar v
      in
      FScalar (apply (List.map front vargs))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let assign vm ~mask (l : lvalue) (rhs : pval) =
  match (find_opt vm l.lv_name, l.lv_index) with
  | Some (VScalar r), [] -> r := as_front_scalar rhs
  | Some (VPlural vs), [] ->
      Array.iteri (fun i active -> if active then vs.(i) <- lane rhs i) mask
  | Some (VGlobal a), [] -> (
      match rhs with
      | FScalar v -> arr_fill a v
      | FArr src ->
          if arr_size src <> arr_size a then
            Errors.runtime_error "shape mismatch assigning to %s" l.lv_name;
          for i = 0 to arr_size a - 1 do
            arr_set_flat a i (arr_get_flat src i)
          done
      | Plural _ ->
          Errors.runtime_error "plural value assigned to whole array %s"
            l.lv_name)
  | Some (VPluralArr a), [] -> (
      match rhs with
      | FScalar v -> arr_fill a v
      | _ ->
          Errors.runtime_error "unsupported whole-plural-array assignment to %s"
            l.lv_name)
  | Some (VGlobal a), idxs ->
      let subs = subscripts vm ~mask idxs in
      let idx = Array.make (Array.length subs) 0 in
      if Array.exists is_lanes subs || is_plural rhs then
        for i = 0 to Array.length mask - 1 do
          if mask.(i) then begin
            let v = lane rhs i in
            fill_index idx ~lead:false subs i;
            arr_set a idx v
          end
        done
      else begin
        let v = as_front_scalar rhs in
        fill_index idx ~lead:false subs 0;
        arr_set a idx v
      end
  | Some (VPluralArr a), idxs ->
      let subs = subscripts vm ~mask idxs in
      let idx = Array.make (Array.length subs + 1) 0 in
      for i = 0 to Array.length mask - 1 do
        if mask.(i) then begin
          let v = lane rhs i in
          fill_index idx ~lead:true subs i;
          arr_set a idx v
        end
      done
  | None, [] -> (
      match rhs with
      | FScalar v -> bind_scalar vm l.lv_name v
      | Plural vs ->
          let fresh = Array.make vm.p (VInt 0) in
          Array.iteri (fun i active -> if active then fresh.(i) <- vs.(i)) mask;
          bind_plural vm l.lv_name fresh
      | FArr a -> bind_global vm l.lv_name a)
  | None, _ :: _ ->
      Errors.runtime_error "assignment to undeclared array %s" l.lv_name
  | Some (VScalar _), _ :: _ | Some (VPlural _), _ :: _ ->
      Errors.runtime_error "%s is scalar but indexed" l.lv_name

let where_masks mask cv =
  let p = Array.length mask in
  let mt = Array.make p false and mf = Array.make p false in
  for i = 0 to p - 1 do
    if mask.(i) then
      if as_bool (lane cv i) then mt.(i) <- true else mf.(i) <- true
  done;
  (mt, mf)

let rec exec vm ~(mask : bool array) (s : stmt) : unit =
  match s with
  | SLoc (loc, s) -> (
      try exec vm ~mask s
      with Errors.Runtime_error m -> raise (Errors.Runtime_error_at (loc, m)))
  | SComment _ | SLabel _ -> ()
  | SAssign (l, e) ->
      let rhs = eval vm ~mask e in
      (match rhs with
      | Plural _ -> tick_vector vm ~mask
      | _ -> tick_frontend vm);
      assign vm ~mask l rhs
  | SCall (name, args) -> (
      let key = String.lowercase_ascii name in
      match Hashtbl.find_opt vm.procs key with
      | Some f ->
          Metrics.call vm.metrics key;
          tick_vector vm ~mask;
          f ~mask
            (List.map
               (fun e ->
                 match eval vm ~mask e with
                 | Plural vs -> Plural (Array.copy vs)
                 | v -> v)
               args)
      | None -> Errors.runtime_error "unknown subroutine %s" name)
  | SIf (c, t, f) -> (
      match eval vm ~mask c with
      | FScalar v ->
          tick_frontend vm;
          exec_stmts vm ~mask (if as_bool v then t else f)
      | Plural _ -> exec vm ~mask (SWhere (c, t, f))
      | FArr _ -> Errors.runtime_error "array condition")
  | SWhere (c, t, f) ->
      let cv = eval vm ~mask c in
      tick_vector vm ~mask;
      let mt, mf = where_masks mask cv in
      if t <> [] then exec_stmts vm ~mask:mt t;
      if f <> [] then exec_stmts vm ~mask:mf f
  | SWhile (c, body) ->
      let continue_ () =
        match eval vm ~mask c with
        | FScalar v ->
            tick_frontend vm;
            as_bool v
        | Plural vs -> (
            tick_vector vm ~mask;
            let vals = List.filteri (fun i _ -> mask.(i)) (Array.to_list vs) in
            match vals with
            | [] -> false
            | v :: rest ->
                if List.for_all (Values.equal_value v) rest then as_bool v
                else
                  Errors.runtime_error
                    "vector-controlled WHILE with divergent lane values")
        | FArr _ -> Errors.runtime_error "array condition"
      in
      while continue_ () do
        exec_stmts vm ~mask body
      done
  | SDoWhile (body, c) ->
      let go = ref true in
      while !go do
        exec_stmts vm ~mask body;
        go :=
          match eval vm ~mask c with
          | FScalar v ->
              tick_frontend vm;
              as_bool v
          | _ -> Errors.runtime_error "DO WHILE condition must be front-end"
      done
  | SDo (c, body) | SForall (c, body) ->
      let lo = front_int vm ~mask c.d_lo in
      let hi = front_int vm ~mask c.d_hi in
      let step =
        match c.d_step with Some s -> front_int vm ~mask s | None -> 1
      in
      if step = 0 then Errors.runtime_error "DO loop with zero step";
      tick_frontend vm;
      let i = ref lo in
      let cont () = if step > 0 then !i <= hi else !i >= hi in
      while cont () do
        bind_scalar_or_update vm c.d_var (VInt !i);
        exec_stmts vm ~mask body;
        tick_frontend vm;
        i := !i + step
      done;
      bind_scalar_or_update vm c.d_var (VInt !i)
  | SGoto _ | SCondGoto _ -> Errors.runtime_error "GOTO is not part of F90simd"

and bind_scalar_or_update vm name v =
  match find_opt vm name with
  | Some (VScalar r) -> r := v
  | Some _ -> Errors.runtime_error "%s is not a front-end scalar" name
  | None -> bind_scalar vm name v

and exec_stmts vm ~mask (b : block) = List.iter (exec vm ~mask) b

let declare vm (decls : decl list) =
  List.iter
    (fun d ->
      if not (Hashtbl.mem vm.vars d.dc_name) then
        let mask = Array.make vm.p true in
        let dims () =
          Array.of_list (List.map (fun e -> front_int vm ~mask e) d.dc_dims)
        in
        match (d.dc_plural, d.dc_dims) with
        | false, [] -> bind_scalar vm d.dc_name (zero_of d.dc_type)
        | false, _ -> bind_global vm d.dc_name (alloc_arr d.dc_type (dims ()))
        | true, [] ->
            bind_plural vm d.dc_name (Array.make vm.p (zero_of d.dc_type))
        | true, _ -> bind_plural_arr vm d.dc_name d.dc_type (dims ()))
    decls

(* ------------------------------------------------------------------ *)
(* Running, against the compiled engine                                *)
(* ------------------------------------------------------------------ *)

module Vm = Lf_simd.Vm
module Frame = Lf_simd.Frame
module Pval = Lf_simd.Pval

(* A [Vm] setup's bindings, taken over by [vm]: front-end scalars and
   arrays are shared with the setup's VM, plural lanes are boxed, and a
   procedure is called with that VM, so one that reads a global array
   or a front-end scalar through it sees this machine's. *)
let import vm (src : Vm.t) =
  let to_pval = function
    | FScalar v -> Pval.FScalar v
    | FArr a -> Pval.FArr a
    | Plural vs -> Pval.Plural (Frame.lanes_of_values vs)
  in
  Hashtbl.iter
    (fun name e ->
      Hashtbl.replace vm.vars name
        (match e with
        | Vm.VScalar r -> VScalar r
        | Vm.VPlural l -> VPlural (Frame.values_of_lanes l)
        | Vm.VGlobal a -> VGlobal a
        | Vm.VPluralArr a -> VPluralArr a))
    src.Vm.vars;
  Hashtbl.iter (Hashtbl.replace vm.funcs) src.Vm.funcs;
  Hashtbl.iter
    (fun name f ->
      Hashtbl.replace vm.procs name (fun ~mask args ->
          f src ~mask (List.map to_pval args)))
    src.Vm.procs

(** Run [prog] on a fresh machine whose bindings are those [setup] makes
    on a fresh [Vm] of [p] lanes; the machine is returned with the error
    message when the run failed, so its partial state can be compared
    too. *)
let run ?(fuel = 50_000_000) ~p ?(setup = fun _ -> ()) (prog : program) :
    t * string option =
  let vm = create ~fuel ~p in
  match
    let src = Vm.create ~p () in
    setup src;
    import vm src;
    declare vm prog.p_decls;
    exec_stmts vm ~mask:(Array.make p true) prog.p_body
  with
  | () -> (vm, None)
  | exception ((Errors.Runtime_error _ | Errors.Runtime_error_at _) as e) ->
      (vm, Some (Errors.to_message e))

(** [Vm.run] on the compiled engine, keeping the machine when the run
    fails: the one [setup] was given. *)
let compiled ?fuel ?opt ?verify ~p ?(setup = fun _ -> ()) prog :
    Vm.t * string option =
  let kept = ref None in
  let setup vm =
    kept := Some vm;
    setup vm
  in
  match Vm.run ?fuel ?opt ?verify ~p ~setup prog with
  | vm -> (vm, None)
  | exception ((Errors.Runtime_error _ | Errors.Runtime_error_at _) as e) ->
      (Option.get !kept, Some (Errors.to_message e))

(* -- bitwise comparison -------------------------------------------- *)

let same_bits x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_value a b =
  match (a, b) with
  | VReal x, VReal y -> same_bits x y
  | VArr (AReal x), VArr (AReal y) ->
      Nd.dims x = Nd.dims y
      && Array.for_all2 same_bits (Nd.to_array x) (Nd.to_array y)
  | _ -> a = b

let same_entry o (n : Vm.entry) =
  match (o, n) with
  | VScalar r, Vm.VScalar r' -> same_value !r !r'
  | VPlural vs, Vm.VPlural l ->
      Array.length vs = Frame.lanes_length l
      && Array.for_all Fun.id
           (Array.mapi (fun i v -> same_value v (Frame.lane_value l i)) vs)
  | VGlobal a, Vm.VGlobal b | VPluralArr a, Vm.VPluralArr b ->
      same_value (VArr a) (VArr b)
  | _ -> false

(* the first variable, by name, whose state differs *)
let state_diff (o : t) (n : Vm.t) =
  let names tbl =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
  in
  let on = names o.vars in
  if on <> names n.Vm.vars then Some "(the variable sets)"
  else
    List.find_opt
      (fun k ->
        not (same_entry (Hashtbl.find o.vars k) (Hashtbl.find n.Vm.vars k)))
      on

(** How a compiled run (from [compiled]) departs from the reference run
    (from [run]): its outcome (the error message, or success), then its
    [Metrics], then the first variable, by name, whose state differs —
    reals compared by their bits; [None] when they agree. *)
let disagreement ((o, oe) : t * string option) ((n, ne) : Vm.t * string option)
    =
  let show = Option.value ~default:"ok" in
  if oe <> ne then
    Some (Fmt.str "outcome: compiled %s, reference %s" (show ne) (show oe))
  else if not (Metrics.equal o.metrics n.Vm.metrics) then Some "metrics"
  else
    Option.map
      (fun v -> Fmt.str "state of %s (outcome %s)" v (show ne))
      (state_diff o n)
