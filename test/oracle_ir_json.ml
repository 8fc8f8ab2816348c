(** Differential oracle for the streamed [--dump-ir] writer
    ([Ir.write_json]): the [Json.t] tree builder it replaced, kept
    verbatim.  [Json.to_string (to_json ~opt b)] is the reference byte
    stream. *)

open Lf_lang
open Lf_simd.Ir

module J = Lf_obs.Json

let value_json (v : Values.value) =
  match v with
  | Values.VInt n -> J.Int n
  | Values.VReal f -> J.Float f
  | Values.VBool b -> J.Bool b
  | Values.VArr _ -> J.Str "<array>"

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

let rop_json = function
  | OConst v -> J.Obj [ ("op", J.Str "const"); ("value", value_json v) ]
  | OVar (slot, name) ->
      J.Obj [ ("op", J.Str "var"); ("name", J.Str name); ("slot", J.Int slot) ]
  | OUn (op, a) ->
      J.Obj [ ("op", J.Str (unop_name op)); ("arg", J.Int a) ]
  | OBin (op, a, b) ->
      J.Obj [ ("op", J.Str (binop_name op)); ("lhs", J.Int a); ("rhs", J.Int b) ]
  | OIntr (key, a) ->
      J.Obj [ ("op", J.Str "intrinsic"); ("name", J.Str key); ("arg", J.Int a) ]
  | OGather (slot, name, ix) ->
      J.Obj
        [
          ("op", J.Str "gather");
          ("array", J.Str name);
          ("slot", J.Int slot);
          ("index", J.List (Array.to_list (Array.map (fun i -> J.Int i) ix)));
        ]

let region_json rg =
  J.List (Array.to_list (Array.map rop_json rg.rg_ops))

let with_annots e fields =
  let fields =
    match e.x_fused with
    | None -> fields
    | Some (FReduce (key, rg)) ->
        fields
        @ [ ("fused_reduce", J.Str key); ("fused", region_json rg) ]
  in
  let fields =
    if e.x_scr >= 0 then fields @ [ ("scratch", J.Int e.x_scr) ] else fields
  in
  let fields =
    match e.x_range with
    | None -> fields
    | Some iv ->
        fields @ [ ("range", J.Str (Lf_analysis.Range.iv_to_string iv)) ]
  in
  J.Obj fields

let rec expr_json e =
  match e.x_node with
  | XConst v -> with_annots e [ ("expr", J.Str "const"); ("value", value_json v) ]
  | XVar (slot, name) ->
      with_annots e
        [
          ("expr", J.Str "var");
          ("name", J.Str name);
          ( "slot",
            match slot with Some i -> J.Int i | None -> J.Null );
        ]
  | XRange (lo, hi) ->
      with_annots e
        [ ("expr", J.Str "range"); ("lo", expr_json lo); ("hi", expr_json hi) ]
  | XUn (op, a) ->
      with_annots e [ ("expr", J.Str (unop_name op)); ("arg", expr_json a) ]
  | XBin (op, a, b) ->
      with_annots e
        [
          ("expr", J.Str (binop_name op));
          ("lhs", expr_json a);
          ("rhs", expr_json b);
        ]
  | XCall (name, args) ->
      with_annots e
        [
          ("expr", J.Str "call");
          ("name", J.Str name);
          ("args", J.List (List.map expr_json args));
        ]
  | XIdx (slot, name, args) ->
      with_annots e
        [
          ("expr", J.Str "index");
          ("name", J.Str name);
          ("slot", J.Int slot);
          ("args", J.List (List.map expr_json args));
        ]

let rec stmt_json s =
  let base =
    match s.s_node with
    | LLoc (loc, inner) ->
        [
          ("stmt", J.Str "loc");
          ("line", J.Int loc.Errors.line);
          ("body", stmt_json inner);
        ]
    | LNop -> [ ("stmt", J.Str "nop") ]
    | LAssign (l, e) ->
        [
          ("stmt", J.Str "assign");
          ("target", J.Str l.l_name);
          ("slot", J.Int l.l_slot);
          ("index", J.List (List.map expr_json l.l_index));
          ("rhs", expr_json e);
        ]
    | LScall (name, args) ->
        [
          ("stmt", J.Str "call");
          ("name", J.Str name);
          ("args", J.List (List.map (fun (a, _) -> expr_json a) args));
        ]
    | LIf (c, t, f) ->
        [
          ("stmt", J.Str "if");
          ("cond", expr_json c);
          ("then", block_json t);
          ("else", block_json f);
        ]
    | LWhere (c, t, f) ->
        [
          ("stmt", J.Str "where");
          ("cond", expr_json c);
          ("then", block_json t);
          ("else", block_json f);
        ]
    | LWhile (c, b) ->
        [ ("stmt", J.Str "while"); ("cond", expr_json c); ("body", block_json b) ]
    | LDoWhile (b, c) ->
        [
          ("stmt", J.Str "dowhile");
          ("body", block_json b);
          ("cond", expr_json c);
        ]
    | LDo (_, v, lo, hi, step, b) ->
        [
          ("stmt", J.Str "do");
          ("var", J.Str v);
          ("lo", expr_json lo);
          ("hi", expr_json hi);
          ( "step",
            match step with Some s -> expr_json s | None -> J.Null );
          ("body", block_json b);
        ]
    | LGoto -> [ ("stmt", J.Str "goto") ]
  in
  let base = if s.s_accum then base @ [ ("accum", J.Bool true) ] else base in
  J.Obj base

and block_json b = J.List (Array.to_list (Array.map stmt_json b))

let to_json ~opt (b : block) =
  J.Obj [ ("opt_level", J.Int opt); ("body", block_json b) ]
