(** Pretty-printer for [Ast] terms, producing parseable pseudo-Fortran.

    The printer and [Parser] form a round-trip: [parse (print ast)]
    re-produces [ast] up to comments (property-tested in the test suite).

    One printer appends text to a [Buffer]; the [*_to_string] functions
    run it on a fresh buffer and the [pp_*] formatters print its string. *)

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

(* The C formatter behind [Printf]'s [%f] and [%g]: the same text,
   without building a format closure per literal. *)
external format_float : string -> float -> string = "caml_format_float"

(* ["%.<prec>g"] for every precision [real_literal] tries *)
let precision_g = Array.init 18 (Printf.sprintf "%%.%dg")

(** A REAL literal the lexer reads back as exactly [f]: the shortest
    ["%.Ng"] form that round-trips, with a ['.'] always in the mantissa
    (the lexer rejects ["1e-06"] but takes ["1.0e-06"]). *)
let real_literal f =
  if Float.is_integer f && Float.abs f < 1e16 then format_float "%.1f" f
  else if not (Float.is_finite f) then format_float "%g" f
  else
    let rec shortest prec =
      let s = format_float precision_g.(prec) f in
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

let add = Buffer.add_string

let rec add_expr_prec b prec e =
  match e with
  | EInt n -> add b (string_of_int n)
  | EReal f -> add b (real_literal f)
  | EBool true -> add b ".TRUE."
  | EBool false -> add b ".FALSE."
  | EVar v -> add b v
  | EIdx (v, idxs) -> add_applied b v idxs
  | ECall ("vector", items) ->
      Buffer.add_char b '[';
      add_sep_list b add_range items;
      Buffer.add_char b ']'
  | ECall (f, args) -> add_applied b f args
  | EUn (Neg, a) ->
      if prec > 7 then add b "(-" else Buffer.add_char b '-';
      add_expr_prec b 7 a;
      if prec > 7 then Buffer.add_char b ')'
  | EUn (Not, a) ->
      add b (if prec > 3 then "(.NOT. " else ".NOT. ");
      add_expr_prec b 3 a;
      if prec > 3 then Buffer.add_char b ')'
  | EBin (Mod, x, y) ->
      add b "mod(";
      add_expr_prec b 0 x;
      add b ", ";
      add_expr_prec b 0 y;
      Buffer.add_char b ')'
  | EBin (op, x, y) ->
      let sym, p = binop_info op in
      let lhs, rhs =
        match op with
        | Pow -> (p + 1, p)  (* right-associative *)
        | Eq | Ne | Lt | Le | Gt | Ge -> (p + 1, p + 1)  (* non-associative *)
        | _ -> (p, p + 1)  (* left-associative *)
      in
      if prec > p then Buffer.add_char b '(';
      add_expr_prec b lhs x;
      Buffer.add_char b ' ';
      add b sym;
      Buffer.add_char b ' ';
      add_expr_prec b rhs y;
      if prec > p then Buffer.add_char b ')'
  | ERange _ -> add_range b e

and add_range b = function
  | ERange (lo, hi) ->
      add_expr_prec b 0 lo;
      Buffer.add_char b ':';
      add_expr_prec b 0 hi
  | e -> add_expr_prec b 0 e

(* [name(i, j, ...)] *)
and add_applied b name idxs =
  add b name;
  Buffer.add_char b '(';
  add_sep_list b add_range idxs;
  Buffer.add_char b ')'

and add_sep_list b f = function
  | [] -> ()
  | [ x ] -> f b x
  | x :: rest ->
      f b x;
      add b ", ";
      add_sep_list b f rest

let add_lvalue b (l : lvalue) =
  match l.lv_index with
  | [] -> add b l.lv_name
  | idxs -> add_applied b l.lv_name idxs

(* [v = lo, hi[, step]], or the FORALL form [(v = lo:hi[, step])] *)
let add_control b ~forall (c : do_control) =
  if forall then Buffer.add_char b '(';
  add b c.d_var;
  add b " = ";
  add_expr_prec b 0 c.d_lo;
  add b (if forall then ":" else ", ");
  add_expr_prec b 0 c.d_hi;
  (match c.d_step with
  | Some s ->
      add b ", ";
      add_expr_prec b 0 s
  | None -> ());
  if forall then Buffer.add_char b ')'

let add_pad b ind =
  for _ = 1 to 2 * ind do
    Buffer.add_char b ' '
  done

(* The text of a single-line statement at depth 0 may still carry
   surrounding blanks (a name that ends in one); a label fused with it
   is followed by the trimmed text. *)
let trim_from b start =
  let len = Buffer.length b in
  let blank i =
    match Buffer.nth b i with ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false
  in
  if len > start && (blank start || blank (len - 1)) then begin
    let text = String.trim (Buffer.sub b start (len - start)) in
    Buffer.truncate b start;
    add b text
  end

(* [KW (e)] at depth [ind] *)
let add_cond b ind kw e =
  add_pad b ind;
  add b kw;
  add b " (";
  add_expr_prec b 0 e;
  Buffer.add_char b ')'

let rec add_stmt b ind s =
  match s with
  | SLoc (_, s) -> add_stmt b ind s
  | SAssign (l, e) ->
      add_pad b ind;
      add_lvalue b l;
      add b " = ";
      add_range b e
  | SDo (c, body) ->
      add_pad b ind;
      add b "DO ";
      add_control b ~forall:false c;
      add_body b ind body;
      add b "ENDDO"
  | SWhile (e, body) ->
      add_cond b ind "WHILE" e;
      add_body b ind body;
      add b "ENDWHILE"
  | SDoWhile (body, e) ->
      add_pad b ind;
      add b "REPEAT";
      add_body b ind body;
      add b "UNTIL (";
      add_expr_prec b 0 e;
      Buffer.add_char b ')'
  | SIf (e, t, f) ->
      add_cond b ind "IF" e;
      add b " THEN";
      add_body b ind t;
      (match f with
      | [] -> ()
      | f ->
          add b "ELSE";
          add_body b ind f);
      add b "ENDIF"
  | SForall (c, body) ->
      add_pad b ind;
      add b "FORALL ";
      add_control b ~forall:true c;
      add_body b ind body;
      add b "ENDFORALL"
  | SWhere (e, t, f) ->
      add_cond b ind "WHERE" e;
      add_body b ind t;
      (match f with
      | [] -> ()
      | f ->
          add b "ELSEWHERE";
          add_body b ind f);
      add b "ENDWHERE"
  | SCall (n, args) -> (
      add_pad b ind;
      add b "CALL ";
      match args with [] -> add b n | _ -> add_applied b n args)
  | SGoto l ->
      add_pad b ind;
      add b "GOTO ";
      add b l
  | SCondGoto (e, l) ->
      add_cond b ind "IF" e;
      add b " GOTO ";
      add b l
  | SLabel l ->
      add b l;
      add b " CONTINUE"
  | SComment c ->
      add_pad b ind;
      add b "! ";
      add b c

(* A nested block on its own lines, then the pad of the closing line. *)
and add_body b ind body =
  Buffer.add_char b '\n';
  add_block b (ind + 1) body;
  Buffer.add_char b '\n';
  add_pad b ind

and add_block b ind (body : block) =
  (* a label is printed fused with the following statement when possible *)
  let rec go = function
    | [] -> ()
    | [ s ] -> add_stmt b ind s
    | a :: (s :: rest as tail) -> (
        (* look through SLoc so labels still fuse with located statements *)
        match (strip_loc a, strip_loc s) with
        | SLabel l, (SAssign _ | SCall _ | SGoto _ | SCondGoto _) ->
            add b l;
            Buffer.add_char b ' ';
            let start = Buffer.length b in
            add_stmt b 0 s;
            trim_from b start;
            Buffer.add_char b '\n';
            go rest
        | _ ->
            add_stmt b ind a;
            Buffer.add_char b '\n';
            go tail)
  in
  go body

let add_decl b (d : decl) =
  if d.dc_plural then add b "PLURAL ";
  add b (dtype_to_string d.dc_type);
  Buffer.add_char b ' ';
  match d.dc_dims with
  | [] -> add b d.dc_name
  | dims -> add_applied b d.dc_name dims

let distribution_to_string = function
  | DistBlock -> "BLOCK"
  | DistCyclic -> "CYCLIC"
  | DistSerial -> "*"

let add_directive b = function
  | DDecomposition (n, dims) ->
      add b "DECOMPOSITION ";
      add_applied b n dims
  | DAlign (a, d) ->
      add b "ALIGN ";
      add b a;
      add b " WITH ";
      add b d
  | DDistribute (d, dists) ->
      add b "DISTRIBUTE ";
      add b d;
      Buffer.add_char b '(';
      add b (String.concat ", " (List.map distribution_to_string dists));
      Buffer.add_char b ')'

let add_program b (p : program) =
  add b "PROGRAM ";
  add b p.p_name;
  Buffer.add_char b '\n';
  List.iter
    (fun d ->
      add b "  ";
      add_decl b d;
      Buffer.add_char b '\n')
    p.p_decls;
  List.iter
    (fun d ->
      add b "  ";
      add_directive b d;
      Buffer.add_char b '\n')
    p.p_directives;
  add_block b 1 p.p_body;
  add b "\nEND\n"

let to_string size add x =
  let b = Buffer.create size in
  add b x;
  Buffer.contents b

let expr_to_string e = to_string 64 (fun b e -> add_expr_prec b 0 e) e
let stmt_to_string s = to_string 256 (fun b s -> add_stmt b 0 s) s
let block_to_string body = to_string 1024 (fun b body -> add_block b 0 body) body
let program_to_string p = to_string 4096 add_program p

let pp_expr ppf e = Fmt.string ppf (expr_to_string e)
let pp_stmt ind ppf s = Fmt.string ppf (to_string 256 (fun b s -> add_stmt b ind s) s)
let pp_block ind ppf body =
  Fmt.string ppf (to_string 1024 (fun b body -> add_block b ind body) body)
let pp_program ppf p = Fmt.string ppf (program_to_string p)
