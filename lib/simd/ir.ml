(** Slot-resolved intermediate representation between [Compile] and
    execution.

    Lowering mirrors the AST one-to-one — every [Ast.expr]/[Ast.stmt]
    constructor has a counterpart here — but variable references are
    resolved to dense [Frame] slots once, at lowering time, and every
    node carries its source expression so the emitter can replay the
    tree-walker's exact behaviour (observer callbacks receive original
    statements, [EIdx] heads that turn out to be functions fall back to
    the call path, reduction witnesses distinguish bare variable
    arguments).

    The optimizer ([Opt]) never rewrites the shape of the tree; it
    {e annotates} it:
    - [x_fused] marks a reduction call whose argument may be folded
      directly into the canonical chunked merge tree as one per-lane
      fused region ([FReduce]);
    - [x_scr] assigns the node's result buffer to a recycled scratch
      group in [Frame] (set by the liveness pass; [-1] = private
      per-site buffers, the [-O0] behaviour);
    - [s_accum] marks a gather/accumulate/scatter assignment
      [a(ix) = a(ix) + e] whose final add can be merged into the
      scatter pass.

    A fused region is a postorder instruction array: operands precede
    users, the last instruction is the root.  Leaves are restricted to
    slot-resolved variable reads and literals (pure, so the emitter can
    evaluate and type them before committing to a fused loop), interior
    nodes to elementwise arithmetic / comparison / logic, a few unary
    numeric intrinsics, and global-array gathers. *)

open Lf_lang

(** Fused-region instruction; integer operands index earlier entries of
    the region's postorder array. *)
type rop =
  | OConst of Values.value
  | OVar of int * string  (** frame slot, source name *)
  | OUn of Ast.unop * int
  | OBin of Ast.binop * int * int
  | OIntr of string * int
      (** unary numeric intrinsic (abs, sqrt, exp, real, int, nint) by
          its lowercase key; only fusible when no user function shadows
          the name *)
  | OGather of int * string * int array
      (** global-array gather: frame slot, source name, subscript ops *)

type region = {
  rg_ops : rop array;  (** postorder; the last entry is the root *)
}

type fuse =
  | FReduce of string * region
      (** reduction call [key(arg)]: fold the fused argument region
          inside the chunked merge tree without materializing it *)

type expr = {
  x_ast : Ast.expr;  (** original source expression *)
  mutable x_node : xnode;
  mutable x_fused : fuse option;  (** set by [Opt.run] at [-O1] *)
  mutable x_scr : int;
      (** scratch group for this site's result buffers; [-1] = private *)
}

and xnode =
  | XConst of Values.value
  | XVar of int option * string  (** slot if resolvable *)
  | XRange of expr * expr
  | XUn of Ast.unop * expr
  | XBin of Ast.binop * expr * expr
  | XCall of string * expr list  (** function call, reductions included *)
  | XIdx of int * string * expr list

type lv = {
  l_slot : int;
  l_name : string;
  l_index : expr list;
}

type stmt = {
  s_ast : Ast.stmt;  (** original statement, handed to observers *)
  s_node : snode;
  mutable s_accum : bool;  (** scatter-accumulate peephole (set by [Opt]) *)
}

and snode =
  | LLoc of Errors.pos * stmt
  | LNop
  | LAssign of lv * expr
  | LScall of string * (expr * bool) list
      (** argument and its [exact_lanes] flag (variable / range reads
          expose true lane contents to procedures) *)
  | LIf of expr * block * block
  | LWhere of expr * block * block
  | LWhile of expr * block
  | LDoWhile of block * expr
  | LDo of int * string * expr * expr * expr option * block
      (** DO/FORALL: variable slot and name, lo, hi, step, body *)
  | LGoto

and block = stmt array

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

let slot_of frame name =
  match Frame.slot_index frame name with
  | Some i -> i
  | None -> invalid_arg ("Compile: unresolved variable " ^ name)

(** Unary numeric intrinsics a fused region may absorb.  All are total
    on numeric operands (no per-lane failure), so they never add a
    raising class to a region; whether a user function shadows the name
    is checked when the region's runtime plan is built. *)
let fusible_intrinsics = [ "abs"; "sqrt"; "exp"; "real"; "int"; "nint" ]

(** Does the tree-walker leave this expression's inactive lanes intact
    (rather than inert [VInt 0])?  Only variable reads and ranges. *)
let exact_lanes = function Ast.EVar _ | Ast.ERange _ -> true | _ -> false

let rec lower_expr frame (e : Ast.expr) : expr =
  let node =
    match e with
    | Ast.EInt n -> XConst (Values.VInt n)
    | Ast.EReal f -> XConst (Values.VReal f)
    | Ast.EBool b -> XConst (Values.VBool b)
    | Ast.EVar v -> XVar (Frame.slot_index frame v, v)
    | Ast.ERange (lo, hi) -> XRange (lower_expr frame lo, lower_expr frame hi)
    | Ast.EUn (op, a) -> XUn (op, lower_expr frame a)
    | Ast.EBin (op, a, b) ->
        XBin (op, lower_expr frame a, lower_expr frame b)
    | Ast.ECall (name, args) ->
        XCall (name, List.map (lower_expr frame) args)
    | Ast.EIdx (name, args) ->
        XIdx (slot_of frame name, name, List.map (lower_expr frame) args)
  in
  { x_ast = e; x_node = node; x_fused = None; x_scr = -1 }

let rec lower_stmt frame (s : Ast.stmt) : stmt =
  let node =
    match s with
    | Ast.SLoc (loc, inner) -> LLoc (loc, lower_stmt frame inner)
    | Ast.SComment _ | Ast.SLabel _ -> LNop
    | Ast.SAssign (l, e) ->
        LAssign
          ( {
              l_slot = slot_of frame l.Ast.lv_name;
              l_name = l.Ast.lv_name;
              l_index = List.map (lower_expr frame) l.Ast.lv_index;
            },
            lower_expr frame e )
    | Ast.SCall (name, args) ->
        LScall
          (name, List.map (fun a -> (lower_expr frame a, exact_lanes a)) args)
    | Ast.SIf (c, t, f) ->
        LIf (lower_expr frame c, lower_block frame t, lower_block frame f)
    | Ast.SWhere (c, t, f) ->
        LWhere (lower_expr frame c, lower_block frame t, lower_block frame f)
    | Ast.SWhile (c, b) -> LWhile (lower_expr frame c, lower_block frame b)
    | Ast.SDoWhile (b, c) ->
        LDoWhile (lower_block frame b, lower_expr frame c)
    | Ast.SDo (c, b) | Ast.SForall (c, b) ->
        LDo
          ( slot_of frame c.Ast.d_var,
            c.Ast.d_var,
            lower_expr frame c.Ast.d_lo,
            lower_expr frame c.Ast.d_hi,
            Option.map (lower_expr frame) c.Ast.d_step,
            lower_block frame b )
    | Ast.SGoto _ | Ast.SCondGoto _ -> LGoto
  in
  { s_ast = s; s_node = node; s_accum = false }

and lower_block frame (b : Ast.block) : block =
  Array.of_list (List.map (lower_stmt frame) b)

let of_block = lower_block

(* ------------------------------------------------------------------ *)
(* JSON dump (--dump-ir)                                               *)
(* ------------------------------------------------------------------ *)

(* The writer streams the annotated tree straight into a buffer, field
   by field in a fixed order, with no intermediate [Json.t] tree.  Field
   names and operator names need no escaping and are written as literal
   text; source names go through [Json.escape_string]. *)

module J = Lf_obs.Json

let add = Buffer.add_string

let add_value b (v : Values.value) =
  match v with
  | Values.VInt n -> J.add_int b n
  | Values.VReal f -> add b (J.float_literal f)
  | Values.VBool v -> add b (if v then "true" else "false")
  | Values.VArr _ -> add b "\"<array>\""

let unop_name = function Ast.Neg -> "neg" | Ast.Not -> "not"

let binop_name = function
  | Ast.Add -> "add"
  | Ast.Sub -> "sub"
  | Ast.Mul -> "mul"
  | Ast.Div -> "div"
  | Ast.Mod -> "mod"
  | Ast.Pow -> "pow"
  | Ast.Eq -> "eq"
  | Ast.Ne -> "ne"
  | Ast.Lt -> "lt"
  | Ast.Le -> "le"
  | Ast.Gt -> "gt"
  | Ast.Ge -> "ge"
  | Ast.And -> "and"
  | Ast.Or -> "or"

(* ["name":"value"] with a value that needs no escaping *)
let add_tag b field value =
  add b field;
  Buffer.add_char b '"';
  add b value;
  Buffer.add_char b '"'

let add_rop b = function
  | OConst v ->
      add b "{\"op\":\"const\",\"value\":";
      add_value b v;
      Buffer.add_char b '}'
  | OVar (slot, name) ->
      add b "{\"op\":\"var\",\"name\":";
      J.escape_string b name;
      add b ",\"slot\":";
      J.add_int b slot;
      Buffer.add_char b '}'
  | OUn (op, a) ->
      add_tag b "{\"op\":" (unop_name op);
      add b ",\"arg\":";
      J.add_int b a;
      Buffer.add_char b '}'
  | OBin (op, x, y) ->
      add_tag b "{\"op\":" (binop_name op);
      add b ",\"lhs\":";
      J.add_int b x;
      add b ",\"rhs\":";
      J.add_int b y;
      Buffer.add_char b '}'
  | OIntr (key, a) ->
      add b "{\"op\":\"intrinsic\",\"name\":";
      J.escape_string b key;
      add b ",\"arg\":";
      J.add_int b a;
      Buffer.add_char b '}'
  | OGather (slot, name, ix) ->
      add b "{\"op\":\"gather\",\"array\":";
      J.escape_string b name;
      add b ",\"slot\":";
      J.add_int b slot;
      add b ",\"index\":[";
      Array.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          J.add_int b x)
        ix;
      add b "]}"

let add_region b rg =
  Buffer.add_char b '[';
  Array.iteri
    (fun i op ->
      if i > 0 then Buffer.add_char b ',';
      add_rop b op)
    rg.rg_ops;
  Buffer.add_char b ']'

(* The optimizer's annotations, after an expression's own fields. *)
let add_annots b e =
  (match e.x_fused with
  | None -> ()
  | Some (FReduce (key, rg)) ->
      add b ",\"fused_reduce\":";
      J.escape_string b key;
      add b ",\"fused\":";
      add_region b rg);
  if e.x_scr >= 0 then begin
    add b ",\"scratch\":";
    J.add_int b e.x_scr
  end;
  Buffer.add_char b '}'

let rec add_expr b e =
  (match e.x_node with
  | XConst v ->
      add b "{\"expr\":\"const\",\"value\":";
      add_value b v
  | XVar (slot, name) -> (
      add b "{\"expr\":\"var\",\"name\":";
      J.escape_string b name;
      add b ",\"slot\":";
      match slot with Some i -> J.add_int b i | None -> add b "null")
  | XRange (lo, hi) ->
      add b "{\"expr\":\"range\",\"lo\":";
      add_expr b lo;
      add b ",\"hi\":";
      add_expr b hi
  | XUn (op, a) ->
      add_tag b "{\"expr\":" (unop_name op);
      add b ",\"arg\":";
      add_expr b a
  | XBin (op, x, y) ->
      add_tag b "{\"expr\":" (binop_name op);
      add b ",\"lhs\":";
      add_expr b x;
      add b ",\"rhs\":";
      add_expr b y
  | XCall (name, args) ->
      add b "{\"expr\":\"call\",\"name\":";
      J.escape_string b name;
      add b ",\"args\":";
      add_exprs b args
  | XIdx (slot, name, args) ->
      add b "{\"expr\":\"index\",\"name\":";
      J.escape_string b name;
      add b ",\"slot\":";
      J.add_int b slot;
      add b ",\"args\":";
      add_exprs b args);
  add_annots b e

and add_exprs b = function
  | [] -> add b "[]"
  | e :: rest ->
      Buffer.add_char b '[';
      add_expr b e;
      List.iter
        (fun e ->
          Buffer.add_char b ',';
          add_expr b e)
        rest;
      Buffer.add_char b ']'

let rec add_stmt ~spill b s =
  (match s.s_node with
  | LLoc (loc, inner) ->
      add b "{\"stmt\":\"loc\",\"line\":";
      J.add_int b loc.Errors.line;
      add b ",\"body\":";
      add_stmt ~spill b inner
  | LNop -> add b "{\"stmt\":\"nop\""
  | LAssign (l, e) ->
      add b "{\"stmt\":\"assign\",\"target\":";
      J.escape_string b l.l_name;
      add b ",\"slot\":";
      J.add_int b l.l_slot;
      add b ",\"index\":";
      add_exprs b l.l_index;
      add b ",\"rhs\":";
      add_expr b e
  | LScall (name, args) ->
      add b "{\"stmt\":\"call\",\"name\":";
      J.escape_string b name;
      add b ",\"args\":";
      add_exprs b (List.map fst args)
  | LIf (c, t, f) -> add_branches ~spill b "if" c t f
  | LWhere (c, t, f) -> add_branches ~spill b "where" c t f
  | LWhile (c, body) ->
      add b "{\"stmt\":\"while\",\"cond\":";
      add_expr b c;
      add b ",\"body\":";
      add_block ~spill b body
  | LDoWhile (body, c) ->
      add b "{\"stmt\":\"dowhile\",\"body\":";
      add_block ~spill b body;
      add b ",\"cond\":";
      add_expr b c
  | LDo (_, v, lo, hi, step, body) ->
      add b "{\"stmt\":\"do\",\"var\":";
      J.escape_string b v;
      add b ",\"lo\":";
      add_expr b lo;
      add b ",\"hi\":";
      add_expr b hi;
      add b ",\"step\":";
      (match step with Some e -> add_expr b e | None -> add b "null");
      add b ",\"body\":";
      add_block ~spill b body
  | LGoto -> add b "{\"stmt\":\"goto\"");
  if s.s_accum then add b ",\"accum\":true";
  Buffer.add_char b '}'

and add_branches ~spill b kind c t f =
  add_tag b "{\"stmt\":" kind;
  add b ",\"cond\":";
  add_expr b c;
  add b ",\"then\":";
  add_block ~spill b t;
  add b ",\"else\":";
  add_block ~spill b f

and add_block ~spill b body =
  Buffer.add_char b '[';
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      add_stmt ~spill b s;
      spill b)
    body;
  Buffer.add_char b ']'

let write_json ?(spill = ignore) ~opt b (body : block) =
  add b "{\"opt_level\":";
  J.add_int b opt;
  add b ",\"body\":";
  add_block ~spill b body;
  Buffer.add_char b '}'
