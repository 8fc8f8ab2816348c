(** Sequential (F77 / F90 scalar) interpreter.

    Executes a [Ast.program] or [Ast.block] against a mutable environment.
    Supports the full statement set including GOTO loops (labels are scoped
    to the block that contains them), Fortran-90 whole-array assignment and
    contiguous sections, and external subroutines registered by the caller.

    The interpreter records an *observation trace* — the sequence of external
    subroutine calls with their (scalarized) arguments — which the
    translation-validation pass in [Lf_core.Validate] compares across
    transformed program versions. *)

open Ast
open Values

type observation = {
  ob_proc : string;
  ob_args : value list;
}

type proc = t -> value list -> unit

and t = {
  env : Env.t;
  mutable fuel : int;
  mutable steps : int;  (** statements executed, comments excluded *)
  mutable obs : observation list;  (** reversed *)
  procs : (string, proc) Hashtbl.t;
  funcs : (string, value list -> value) Hashtbl.t;
  mutable cur_loc : Errors.pos;
      (** location of the innermost [SLoc]-wrapped statement being executed *)
  mutable step_hook : (Errors.pos -> unit) option;
      (** called once per counted step with the current source location;
          used by [Lf_mimd] for per-line time attribution.  [None] costs
          one branch per step. *)
}

exception Jump of string

(** Process-wide statement-dispatch hook: called once per executed
    statement with its kind ("assign", "if", "do", ...), before the
    statement runs.  The observability layer (which sits above this
    library and therefore cannot be referenced here) installs a counter
    here while telemetry is enabled; [None] — the default — costs one
    load and branch per statement. *)
let dispatch_hook : (string -> unit) option ref = ref None

let dispatched kind =
  match !dispatch_hook with None -> () | Some h -> h kind

let default_fuel = 10_000_000

let create ?(fuel = default_fuel) () =
  {
    env = Env.create ();
    fuel;
    steps = 0;
    obs = [];
    procs = Hashtbl.create 8;
    funcs = Hashtbl.create 8;
    cur_loc = Errors.no_pos;
    step_hook = None;
  }

let register_proc ctx name f = Hashtbl.replace ctx.procs (String.lowercase_ascii name) f
let register_func ctx name f = Hashtbl.replace ctx.funcs (String.lowercase_ascii name) f
let observations ctx = List.rev ctx.obs

let tick ctx =
  ctx.steps <- ctx.steps + 1;
  (match ctx.step_hook with None -> () | Some h -> h ctx.cur_loc);
  ctx.fuel <- ctx.fuel - 1;
  if ctx.fuel <= 0 then Errors.runtime_error "fuel exhausted (infinite loop?)"

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

(* The scalar operator semantics live in [Scalar_ops], shared with the
   SIMD engines; the historical names are kept as aliases. *)
let apply_binop = Scalar_ops.apply_binop

(** Elementwise lifting of a binary operation over arrays / scalars. *)
let rec lift_binop op a b =
  match (a, b) with
  | VArr x, VArr y ->
      let n = arr_size x in
      if n <> arr_size y then
        Errors.runtime_error "shape mismatch in elementwise operation";
      let elems =
        Array.init n (fun i ->
            apply_binop op (arr_get_flat x i) (arr_get_flat y i))
      in
      pack_array (arr_dims x) elems
  | VArr x, y ->
      let n = arr_size x in
      let elems = Array.init n (fun i -> apply_binop op (arr_get_flat x i) y) in
      pack_array (arr_dims x) elems
  | x, VArr y ->
      let n = arr_size y in
      let elems = Array.init n (fun i -> apply_binop op x (arr_get_flat y i)) in
      pack_array (arr_dims y) elems
  | _ -> apply_binop op a b

and pack_array dims (elems : value array) : value =
  if Array.length elems = 0 then VArr (AInt (Nd.create dims 0))
  else
    match elems.(0) with
    | VInt _ ->
        VArr (AInt { Nd.dims; data = Array.map as_int elems })
    | VReal _ ->
        VArr (AReal { Nd.dims; data = Array.map as_float elems })
    | VBool _ ->
        VArr (ABool { Nd.dims; data = Array.map as_bool elems })
    | VArr _ -> Errors.runtime_error "nested array value"

let apply_unop = Scalar_ops.apply_unop

let lift_unop op = function
  | VArr x ->
      let elems =
        Array.init (arr_size x) (fun i -> apply_unop op (arr_get_flat x i))
      in
      pack_array (arr_dims x) elems
  | v -> apply_unop op v

type index_sel = [ `One of int | `Range of int * int ]

let rec eval ctx (e : expr) : value =
  match e with
  | EInt n -> VInt n
  | EReal f -> VReal f
  | EBool b -> VBool b
  | EVar v -> Env.find ctx.env v
  | EUn (op, a) -> lift_unop op (eval ctx a)
  | EBin (op, a, b) ->
      (* operands evaluate left to right on every engine: error order
         (e.g. which undefined variable is reported) is observable *)
      let va = eval ctx a in
      let vb = eval ctx b in
      lift_binop op va vb
  | ERange (lo, hi) ->
      let lo = as_int (eval ctx lo) in
      let hi = as_int (eval ctx hi) in
      VArr (AInt (Nd.of_array (Array.init (max 0 (hi - lo + 1)) (fun i -> lo + i))))
  | ECall (name, args) -> eval_call ctx name args
  | EIdx (name, args) -> (
      match Env.find_opt ctx.env name with
      | Some (VArr a) -> eval_index ctx a args
      | Some v ->
          Errors.runtime_error "%s is a scalar (%s) but is indexed" name
            (type_name v)
      | None -> eval_call ctx name args)

and eval_call ctx name args =
  let key = String.lowercase_ascii name in
  match Hashtbl.find_opt ctx.funcs key with
  | Some f -> f (List.map (eval ctx) args)
  | None -> (
      let vargs = List.map (eval ctx) args in
      match Intrinsics.apply name vargs with
      | Some v -> v
      | None -> Errors.runtime_error "unknown function or array %s" name)

and eval_index ctx a args : value =
  let sels = List.map (eval_sel ctx) args in
  if List.for_all (function `One _ -> true | _ -> false) sels then
    arr_get a (Array.of_list (List.map (function `One i -> i | _ -> 0) sels))
  else
    match a with
    | AInt x -> VArr (AInt (Nd.slice x sels))
    | AReal x -> VArr (AReal (Nd.slice x sels))
    | ABool x -> VArr (ABool (Nd.slice x sels))

and eval_sel ctx (e : expr) : index_sel =
  match e with
  | ERange (lo, hi) ->
      let lo = as_int (eval ctx lo) in
      `Range (lo, as_int (eval ctx hi))
  | e -> `One (as_int (eval ctx e))

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

let assign ctx (l : lvalue) (v : value) =
  match (Env.find_opt ctx.env l.lv_name, l.lv_index) with
  | (None | Some (VInt _ | VReal _ | VBool _)), [] ->
      Env.set ctx.env l.lv_name v
  | Some (VArr a), [] -> (
      (* whole-array assignment: scalar broadcast or matching copy *)
      match v with
      | VArr src ->
          if arr_size src <> arr_size a then
            Errors.runtime_error "shape mismatch assigning to %s" l.lv_name;
          for i = 0 to arr_size a - 1 do
            arr_set_flat a i (arr_get_flat src i)
          done
      | v -> arr_fill a v)
  | Some (VArr a), idxs -> (
      let sels = List.map (eval_sel ctx) idxs in
      if List.for_all (function `One _ -> true | _ -> false) sels then
        arr_set a
          (Array.of_list (List.map (function `One i -> i | _ -> 0) sels))
          v
      else
        let spec = sels in
        match (a, v) with
        | AInt d, VArr (AInt s) -> Nd.blit_slice d spec (`Array s)
        | AReal d, VArr (AReal s) -> Nd.blit_slice d spec (`Array s)
        | ABool d, VArr (ABool s) -> Nd.blit_slice d spec (`Array s)
        | AInt d, (VInt _ as s) -> Nd.blit_slice d spec (`Scalar (as_int s))
        | AReal d, s -> Nd.blit_slice d spec (`Scalar (as_float s))
        | ABool d, (VBool _ as s) -> Nd.blit_slice d spec (`Scalar (as_bool s))
        | _ ->
            Errors.runtime_error "type mismatch in section assignment to %s"
              l.lv_name)
  | None, _ :: _ ->
      Errors.runtime_error "assignment to undeclared array %s" l.lv_name
  | Some v', _ :: _ ->
      Errors.runtime_error "%s is a scalar (%s) but is indexed" l.lv_name
        (type_name v')

let rec exec_stmts ctx (b : block) =
  let stmts = Array.of_list b in
  let n = Array.length stmts in
  let label_at lbl =
    let found = ref (-1) in
    Array.iteri
      (fun i s -> if strip_loc s = SLabel lbl && !found < 0 then found := i)
      stmts;
    !found
  in
  let pc = ref 0 in
  while !pc < n do
    (try
       exec_stmt ctx stmts.(!pc);
       incr pc
     with Jump lbl ->
       let target = label_at lbl in
       if target >= 0 then pc := target + 1 else raise (Jump lbl))
  done

and exec_stmt ctx (s : stmt) =
  match s with
  | SLoc (loc, s) ->
      (* Runtime errors from within [s] are attributed to [loc]; the
         innermost located statement wins because already-located errors
         pass through unchanged.  [Jump] is ordinary control flow and is
         re-raised untouched. *)
      let saved = ctx.cur_loc in
      ctx.cur_loc <- loc;
      (try exec_stmt ctx s
       with e -> (
         ctx.cur_loc <- saved;
         match e with
         | Errors.Runtime_error m -> raise (Errors.Runtime_error_at (loc, m))
         | e -> raise e));
      ctx.cur_loc <- saved
  | SComment _ | SLabel _ -> ()
  | SAssign (l, e) ->
      dispatched "assign";
      tick ctx;
      assign ctx l (eval ctx e)
  | SCall (name, args) -> (
      dispatched "call";
      tick ctx;
      let key = String.lowercase_ascii name in
      match Hashtbl.find_opt ctx.procs key with
      | Some f ->
          let vargs = List.map (eval ctx) args in
          ctx.obs <- { ob_proc = key; ob_args = vargs } :: ctx.obs;
          f ctx vargs
      | None -> Errors.runtime_error "unknown subroutine %s" name)
  | SGoto l ->
      dispatched "goto";
      tick ctx;
      raise (Jump l)
  | SCondGoto (e, l) ->
      dispatched "cond_goto";
      tick ctx;
      if as_bool (eval ctx e) then raise (Jump l)
  | SIf (e, t, f) ->
      dispatched "if";
      tick ctx;
      if as_bool (eval ctx e) then exec_stmts ctx t else exec_stmts ctx f
  | SWhile (e, b) ->
      dispatched "while";
      tick ctx;
      while as_bool (eval ctx e) do
        exec_stmts ctx b;
        tick ctx
      done
  | SDoWhile (b, e) ->
      dispatched "do_while";
      let continue_ = ref true in
      while !continue_ do
        exec_stmts ctx b;
        tick ctx;
        continue_ := as_bool (eval ctx e)
      done
  | SDo (c, b) ->
      dispatched "do";
      exec_counted ctx c b
  | SForall (c, b) ->
      (* sequential semantics; independence of iterations is the
         transformation passes' responsibility to check *)
      dispatched "forall";
      exec_counted ctx c b
  | SWhere (e, t, f) ->
      (* scalar WHERE behaves as IF; the vector semantics lives in the
         SIMD VM *)
      dispatched "where";
      tick ctx;
      if as_bool (eval ctx e) then exec_stmts ctx t else exec_stmts ctx f

and exec_counted ctx (c : do_control) (b : block) =
  tick ctx;
  let lo = as_int (eval ctx c.d_lo) in
  let hi = as_int (eval ctx c.d_hi) in
  let step =
    match c.d_step with Some s -> as_int (eval ctx s) | None -> 1
  in
  if step = 0 then Errors.runtime_error "DO loop with zero step";
  let i = ref lo in
  let continue_ () = if step > 0 then !i <= hi else !i >= hi in
  while continue_ () do
    Env.set ctx.env c.d_var (VInt !i);
    exec_stmts ctx b;
    tick ctx;
    i := !i + step
  done;
  (* Fortran: the DO variable retains the first value that fails the test *)
  Env.set ctx.env c.d_var (VInt !i)

(* ------------------------------------------------------------------ *)
(* Program execution                                                   *)
(* ------------------------------------------------------------------ *)

(** Allocate declared variables.  Array dimensions are evaluated against
    the bindings already present in the context (e.g. problem-size
    parameters seeded by the caller). *)
let declare ctx (decls : decl list) =
  List.iter
    (fun d ->
      if not (Env.mem ctx.env d.dc_name) then
        if d.dc_dims = [] then Env.set ctx.env d.dc_name (zero_of d.dc_type)
        else
          let dims =
            Array.of_list (List.map (fun e -> as_int (eval ctx e)) d.dc_dims)
          in
          Env.set ctx.env d.dc_name (VArr (alloc_arr d.dc_type dims)))
    decls

(** Run a program.  [params] are seeded into the environment before
    declaration processing, so they can appear in array bounds. *)
(* A [Jump] that reaches the program's outermost block names a label
   that is not visible from the GOTO (labels resolve in the executing
   block and its enclosing blocks only); surface it as an ordinary
   runtime error rather than leaking the internal control exception. *)
let exec_top ctx (b : block) =
  try exec_stmts ctx b
  with Jump lbl ->
    Errors.runtime_error "GOTO %s: label not visible from this statement" lbl

let run ?(params = []) ?fuel ?(setup = fun _ -> ()) (p : program) =
  let ctx = create ?fuel () in
  List.iter (fun (k, v) -> Env.set ctx.env k v) params;
  setup ctx;
  declare ctx p.p_decls;
  exec_top ctx p.p_body;
  ctx

(** Run a bare block against a fresh context. *)
let run_block ?(params = []) ?fuel ?(setup = fun _ -> ()) (b : block) =
  let ctx = create ?fuel () in
  List.iter (fun (k, v) -> Env.set ctx.env k v) params;
  setup ctx;
  exec_top ctx b;
  ctx
