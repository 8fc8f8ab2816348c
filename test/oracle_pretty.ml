(** Differential oracle for [Pretty]: the [Format]-based printer it
    replaced, kept verbatim.  [program_to_string] and friends are the
    reference text. *)

open Lf_lang
open Ast

let dtype_to_string = function
  | TInt -> "INTEGER"
  | TReal -> "REAL"
  | TLogical -> "LOGICAL"

let binop_info = function
  | Or -> (".OR.", 1)
  | And -> (".AND.", 2)
  | Eq -> ("==", 4)
  | Ne -> ("/=", 4)
  | Lt -> ("<", 4)
  | Le -> ("<=", 4)
  | Gt -> (">", 4)
  | Ge -> (">=", 4)
  | Add -> ("+", 5)
  | Sub -> ("-", 5)
  | Mul -> ("*", 6)
  | Div -> ("/", 6)
  | Mod -> ("MOD", 6)
  | Pow -> ("**", 8)

(** A REAL literal the lexer reads back as exactly [f]: the shortest
    ["%.Ng"] form that round-trips, with a ['.'] always in the mantissa
    (the lexer rejects ["1e-06"] but takes ["1.0e-06"]). *)
let real_literal f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else if not (Float.is_finite f) then Printf.sprintf "%g" f
  else
    let rec shortest prec =
      let s = Printf.sprintf "%.*g" prec f in
      if prec >= 17 || float_of_string s = f then s else shortest (prec + 1)
    in
    let s = shortest 1 in
    let mantissa_end =
      Option.value (String.index_opt s 'e') ~default:(String.length s)
    in
    if String.contains (String.sub s 0 mantissa_end) '.' then s
    else
      String.sub s 0 mantissa_end
      ^ ".0"
      ^ String.sub s mantissa_end (String.length s - mantissa_end)

let rec pp_expr_prec prec ppf e =
  match e with
  | EInt n -> Fmt.int ppf n
  | EReal f -> Fmt.string ppf (real_literal f)
  | EBool true -> Fmt.string ppf ".TRUE."
  | EBool false -> Fmt.string ppf ".FALSE."
  | EVar v -> Fmt.string ppf v
  | EIdx (v, idxs) -> Fmt.pf ppf "%s(%a)" v pp_index_list idxs
  | ECall ("vector", [ (ERange _ as r) ]) -> Fmt.pf ppf "[%a]" pp_range r
  | ECall ("vector", items) ->
      Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") (pp_expr_prec 0)) items
  | ECall (f, args) -> Fmt.pf ppf "%s(%a)" f pp_index_list args
  | EUn (Neg, a) ->
      if prec > 7 then Fmt.pf ppf "(-%a)" (pp_expr_prec 7) a
      else Fmt.pf ppf "-%a" (pp_expr_prec 7) a
  | EUn (Not, a) ->
      if prec > 3 then Fmt.pf ppf "(.NOT. %a)" (pp_expr_prec 3) a
      else Fmt.pf ppf ".NOT. %a" (pp_expr_prec 3) a
  | EBin (Mod, a, b) -> Fmt.pf ppf "mod(%a, %a)" (pp_expr_prec 0) a (pp_expr_prec 0) b
  | EBin (op, a, b) ->
      let sym, p = binop_info op in
      let lhs, rhs =
        match op with
        | Pow -> (p + 1, p)  (* right-associative *)
        | Eq | Ne | Lt | Le | Gt | Ge -> (p + 1, p + 1)  (* non-associative *)
        | _ -> (p, p + 1)  (* left-associative *)
      in
      if prec > p then
        Fmt.pf ppf "(%a %s %a)" (pp_expr_prec lhs) a sym (pp_expr_prec rhs) b
      else Fmt.pf ppf "%a %s %a" (pp_expr_prec lhs) a sym (pp_expr_prec rhs) b
  | ERange (lo, hi) ->
      Fmt.pf ppf "%a:%a" (pp_expr_prec 0) lo (pp_expr_prec 0) hi

and pp_range ppf = function
  | ERange (lo, hi) -> Fmt.pf ppf "%a:%a" (pp_expr_prec 0) lo (pp_expr_prec 0) hi
  | e -> pp_expr_prec 0 ppf e

and pp_index_list ppf idxs =
  Fmt.(list ~sep:(any ", ") pp_range) ppf idxs

let pp_expr = pp_expr_prec 0
let expr_to_string e = Fmt.str "%a" pp_expr e

let pp_lvalue ppf (l : lvalue) =
  match l.lv_index with
  | [] -> Fmt.string ppf l.lv_name
  | idxs -> Fmt.pf ppf "%s(%a)" l.lv_name pp_index_list idxs

let pp_do_control ppf (c : do_control) =
  Fmt.pf ppf "%s = %a, %a" c.d_var pp_expr c.d_lo pp_expr c.d_hi;
  match c.d_step with
  | Some s -> Fmt.pf ppf ", %a" pp_expr s
  | None -> ()

let pp_forall_control ppf (c : do_control) =
  Fmt.pf ppf "(%s = %a:%a" c.d_var pp_expr c.d_lo pp_expr c.d_hi;
  (match c.d_step with
  | Some s -> Fmt.pf ppf ", %a" pp_expr s
  | None -> ());
  Fmt.string ppf ")"

let rec pp_stmt ind ppf s =
  let pad = String.make (2 * ind) ' ' in
  let block = pp_block (ind + 1) in
  match s with
  | SLoc (_, s) -> pp_stmt ind ppf s
  | SAssign (l, e) -> Fmt.pf ppf "%s%a = %a" pad pp_lvalue l pp_range e
  | SDo (c, b) ->
      Fmt.pf ppf "%sDO %a@\n%a@\n%sENDDO" pad pp_do_control c block b pad
  | SWhile (e, b) ->
      Fmt.pf ppf "%sWHILE (%a)@\n%a@\n%sENDWHILE" pad pp_expr e block b pad
  | SDoWhile (b, e) ->
      Fmt.pf ppf "%sREPEAT@\n%a@\n%sUNTIL (%a)" pad block b pad pp_expr e
  | SIf (e, t, []) ->
      Fmt.pf ppf "%sIF (%a) THEN@\n%a@\n%sENDIF" pad pp_expr e block t pad
  | SIf (e, t, f) ->
      Fmt.pf ppf "%sIF (%a) THEN@\n%a@\n%sELSE@\n%a@\n%sENDIF" pad pp_expr e
        block t pad block f pad
  | SForall (c, b) ->
      Fmt.pf ppf "%sFORALL %a@\n%a@\n%sENDFORALL" pad pp_forall_control c
        block b pad
  | SWhere (e, t, []) ->
      Fmt.pf ppf "%sWHERE (%a)@\n%a@\n%sENDWHERE" pad pp_expr e block t pad
  | SWhere (e, t, f) ->
      Fmt.pf ppf "%sWHERE (%a)@\n%a@\n%sELSEWHERE@\n%a@\n%sENDWHERE" pad
        pp_expr e block t pad block f pad
  | SCall (n, []) -> Fmt.pf ppf "%sCALL %s" pad n
  | SCall (n, args) -> Fmt.pf ppf "%sCALL %s(%a)" pad n pp_index_list args
  | SGoto l -> Fmt.pf ppf "%sGOTO %s" pad l
  | SCondGoto (e, l) -> Fmt.pf ppf "%sIF (%a) GOTO %s" pad pp_expr e l
  | SLabel l -> Fmt.pf ppf "%s CONTINUE" l
  | SComment c -> Fmt.pf ppf "%s! %s" pad c

and pp_block ind ppf (b : block) =
  (* a label is printed fused with the following statement when possible *)
  let rec go ppf = function
    | [] -> ()
    | [ s ] -> pp_stmt ind ppf s
    | a :: (b :: rest as tail) -> (
        (* look through SLoc so labels still fuse with located statements *)
        match (strip_loc a, strip_loc b) with
        | SLabel l, (SAssign _ | SCall _ | SGoto _ | SCondGoto _) ->
            let body = Fmt.str "%a" (pp_stmt 0) b in
            Fmt.pf ppf "%s %s@\n%a" l (String.trim body) go rest
        | _ -> Fmt.pf ppf "%a@\n%a" (pp_stmt ind) a go tail)
  in
  go ppf b

let pp_decl ppf (d : decl) =
  let plural = if d.dc_plural then "PLURAL " else "" in
  match d.dc_dims with
  | [] -> Fmt.pf ppf "%s%s %s" plural (dtype_to_string d.dc_type) d.dc_name
  | dims ->
      Fmt.pf ppf "%s%s %s(%a)" plural (dtype_to_string d.dc_type) d.dc_name
        pp_index_list dims

let distribution_to_string = function
  | DistBlock -> "BLOCK"
  | DistCyclic -> "CYCLIC"
  | DistSerial -> "*"

let pp_directive ppf = function
  | DDecomposition (n, dims) ->
      Fmt.pf ppf "DECOMPOSITION %s(%a)" n pp_index_list dims
  | DAlign (a, d) -> Fmt.pf ppf "ALIGN %s WITH %s" a d
  | DDistribute (d, dists) ->
      Fmt.pf ppf "DISTRIBUTE %s(%s)" d
        (String.concat ", " (List.map distribution_to_string dists))

let pp_program ppf (p : program) =
  Fmt.pf ppf "PROGRAM %s@\n" p.p_name;
  List.iter (fun d -> Fmt.pf ppf "  %a@\n" pp_decl d) p.p_decls;
  List.iter (fun d -> Fmt.pf ppf "  %a@\n" pp_directive d) p.p_directives;
  Fmt.pf ppf "%a@\nEND@\n" (pp_block 1) p.p_body

let program_to_string p = Fmt.str "%a" pp_program p
let block_to_string b = Fmt.str "%a" (pp_block 0) b
let stmt_to_string s = Fmt.str "%a" (pp_stmt 0) s
