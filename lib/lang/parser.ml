(** Recursive-descent parser for the pseudo-Fortran surface syntax.

    The grammar is small and LL(2); Menhir is deliberately not used (it is
    not available in the sealed environment, see DESIGN.md).  Statements are
    newline-terminated.  Numeric statement labels are parsed into [SLabel]
    statements preceding the labeled statement, and [CONTINUE] parses to a
    no-op, so classic GOTO loops round-trip. *)

open Ast
open Token

type t = {
  toks : Token.t array;
  locs : int array;
  last : int;  (** index of the final [EOF] *)
  mutable cur : int;
}

let make src =
  let t = Lexer.scan src in
  { toks = t.Lexer.toks; locs = t.Lexer.locs; last = t.Lexer.count - 1; cur = 0 }

let peek p = Array.unsafe_get p.toks p.cur
let peek_pos p = Lexer.pos_of_loc (Array.unsafe_get p.locs p.cur)

let advance p = if p.cur < p.last then p.cur <- p.cur + 1

let error p fmt = Errors.parse_error (peek_pos p) fmt

(* [tok] is always a constant constructor (punctuation or an operator),
   an immediate value, so physical equality decides. *)
let at p (tok : Token.t) = peek p == tok

let expect p tok =
  if at p tok then advance p
  else
    error p "expected %s but found %s" (Token.to_string tok)
      (Token.to_string (peek p))

let expect_keyword p kw =
  match peek p with
  | KEYWORD k when String.equal k kw -> advance p
  | t -> error p "expected %s but found %s" kw (Token.to_string t)

let accept p tok = if at p tok then (advance p; true) else false

let accept_keyword p kw =
  match peek p with
  | KEYWORD k when String.equal k kw ->
      advance p;
      true
  | _ -> false

let ident p =
  match peek p with
  | IDENT s ->
      advance p;
      s
  | t -> error p "expected identifier, found %s" (Token.to_string t)

let skip_newlines p = while at p NEWLINE do advance p done

let end_of_stmt p =
  match peek p with
  | NEWLINE -> skip_newlines p
  | EOF -> ()
  | t -> error p "expected end of statement, found %s" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_expr p = parse_or p

and parse_or p =
  let lhs = parse_and p in
  if accept p OR then EBin (Or, lhs, parse_or p) else lhs

and parse_and p =
  let lhs = parse_not p in
  if accept p AND then EBin (And, lhs, parse_and p) else lhs

and parse_not p =
  if accept p NOT then EUn (Not, parse_not p) else parse_cmp p

and parse_cmp p =
  let lhs = parse_add p in
  let bin op = EBin (op, lhs, parse_add p) in
  match peek p with
  | EQ -> advance p; bin Eq
  | NE -> advance p; bin Ne
  | LT -> advance p; bin Lt
  | LE -> advance p; bin Le
  | GT -> advance p; bin Gt
  | GE -> advance p; bin Ge
  | _ -> lhs

and parse_add p =
  let rec go lhs =
    match peek p with
    | PLUS -> advance p; go (EBin (Add, lhs, parse_mul p))
    | MINUS -> advance p; go (EBin (Sub, lhs, parse_mul p))
    | _ -> lhs
  in
  go (parse_mul p)

and parse_mul p =
  let rec go lhs =
    match peek p with
    | STAR -> advance p; go (EBin (Mul, lhs, parse_unary p))
    | SLASH -> advance p; go (EBin (Div, lhs, parse_unary p))
    | _ -> lhs
  in
  go (parse_unary p)

and parse_unary p =
  match peek p with
  | MINUS -> advance p; EUn (Neg, parse_unary p)
  | PLUS -> advance p; parse_unary p
  | _ -> parse_pow p

and parse_pow p =
  let base = parse_atom p in
  if accept p POW then EBin (Pow, base, parse_unary p) else base

and parse_atom p =
  match peek p with
  | INT n -> advance p; EInt n
  | FLOAT f -> advance p; EReal f
  | TRUE -> advance p; EBool true
  | FALSE -> advance p; EBool false
  | LPAREN ->
      advance p;
      let e = parse_expr p in
      expect p RPAREN;
      e
  | LBRACKET ->
      (* vector literal: [lo:hi] or [e, e, ...] as a MERGE-style pack;
         only the range form appears in the paper's codes *)
      advance p;
      let e = parse_range p in
      if at p COMMA then begin
        let items = ref [ e ] in
        while accept p COMMA do items := parse_range p :: !items done;
        expect p RBRACKET;
        ECall ("vector", List.rev !items)
      end
      else begin
        expect p RBRACKET;
        match e with
        | ERange _ -> e
        | e -> ECall ("vector", [ e ])
      end
  | IDENT name ->
      advance p;
      if at p LPAREN then begin
        advance p;
        let args = parse_index_list p in
        expect p RPAREN;
        (* known intrinsics parse as calls; other applications are array
           references until the interpreter resolves registered functions *)
        if Intrinsics.is_intrinsic name then ECall (name, args)
        else EIdx (name, args)
      end
      else EVar name
  | t -> error p "expected expression, found %s" (Token.to_string t)

and parse_range p =
  let lo = parse_expr p in
  if accept p COLON then ERange (lo, parse_expr p) else lo

and parse_index_list p =
  if at p RPAREN then []
  else
    let items = ref [ parse_range p ] in
    while accept p COMMA do items := parse_range p :: !items done;
    List.rev !items

(* ------------------------------------------------------------------ *)
(* Declarations and directives                                         *)
(* ------------------------------------------------------------------ *)

let parse_dtype p =
  if accept_keyword p "INTEGER" then TInt
  else if accept_keyword p "REAL" then TReal
  else if accept_keyword p "LOGICAL" then TLogical
  else error p "expected a type keyword"

let parse_declarators p plural ty =
  let one () =
    let name = ident p in
    let dims =
      if accept p LPAREN then begin
        let ds = parse_index_list p in
        expect p RPAREN;
        ds
      end
      else []
    in
    match dims with
    | [] -> { (scalar ~plural ty name) with dc_dims = [] }
    | _ -> array ~plural ty name dims
  in
  let ds = ref [ one () ] in
  while accept p COMMA do ds := one () :: !ds done;
  List.rev !ds

let parse_distribution p =
  if accept_keyword p "BLOCK" then DistBlock
  else if accept_keyword p "CYCLIC" then DistCyclic
  else if accept p STAR then DistSerial
  else error p "expected BLOCK, CYCLIC or *"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let parse_lvalue_from_ident p name =
  let index =
    if accept p LPAREN then begin
      let idxs = parse_index_list p in
      expect p RPAREN;
      idxs
    end
    else []
  in
  { lv_name = name; lv_index = index }

let parse_do_control p =
  let v = ident p in
  expect p ASSIGN;
  let lo = parse_expr p in
  expect p COMMA;
  let hi = parse_expr p in
  let step = if accept p COMMA then Some (parse_expr p) else None in
  do_control ?step v lo hi

(* FORALL headers use (i = lo : hi [, stride]) per Fortran 90 *)
let parse_forall_control p =
  expect p LPAREN;
  let v = ident p in
  expect p ASSIGN;
  let lo = parse_expr p in
  expect p COLON;
  let hi = parse_expr p in
  let step = if accept p COMMA then Some (parse_expr p) else None in
  expect p RPAREN;
  do_control ?step v lo hi

let goto_label p =
  match peek p with
  | INT n ->
      advance p;
      string_of_int n
  | IDENT s ->
      advance p;
      s
  | t -> error p "expected a statement label, found %s" (Token.to_string t)

(** Parse one statement (a list because labels expand to [SLabel; stmt])
    and wrap each resulting statement with its source position.  Nested
    statements are wrapped by the recursive calls, so already-wrapped
    results are left alone. *)
let rec parse_stmt p : stmt list =
  let loc = peek_pos p in
  List.map
    (function Ast.SLoc _ as s -> s | s -> Ast.with_loc loc s)
    (parse_stmt_raw p)

and parse_stmt_raw p : stmt list =
  match peek p with
  | INT n ->
      (* numeric statement label *)
      advance p;
      let rest =
        if accept_keyword p "CONTINUE" then []
        else parse_stmt p
      in
      SLabel (string_of_int n) :: rest
  | KEYWORD "DO" -> (
      advance p;
      match peek p with
      | KEYWORD "WHILE" ->
          advance p;
          expect p LPAREN;
          let cond = parse_expr p in
          expect p RPAREN;
          end_of_stmt p;
          let body = parse_block p [ "ENDDO"; "ENDWHILE" ] in
          [ SWhile (cond, body) ]
      | _ ->
          let c = parse_do_control p in
          end_of_stmt p;
          let body = parse_block p [ "ENDDO" ] in
          [ SDo (c, body) ])
  | KEYWORD "WHILE" ->
      advance p;
      expect p LPAREN;
      let cond = parse_expr p in
      expect p RPAREN;
      end_of_stmt p;
      let body = parse_block p [ "ENDWHILE"; "ENDDO" ] in
      [ SWhile (cond, body) ]
  | KEYWORD "REPEAT" ->
      advance p;
      end_of_stmt p;
      let body = parse_block p [ "UNTIL" ] in
      expect p LPAREN;
      let cond = parse_expr p in
      expect p RPAREN;
      [ SDoWhile (body, cond) ]
  | KEYWORD "IF" -> (
      advance p;
      expect p LPAREN;
      let cond = parse_expr p in
      expect p RPAREN;
      match peek p with
      | KEYWORD "THEN" ->
          advance p;
          end_of_stmt p;
          let t, closed_by = parse_block_until p [ "ELSE"; "ENDIF" ] in
          let f =
            if closed_by = "ELSE" then begin
              end_of_stmt p;
              parse_block p [ "ENDIF" ]
            end
            else []
          in
          [ SIf (cond, t, f) ]
      | KEYWORD "GOTO" ->
          advance p;
          [ SCondGoto (cond, goto_label p) ]
      | _ ->
          (* one-line logical IF *)
          let body = parse_stmt p in
          [ SIf (cond, body, []) ])
  | KEYWORD "FORALL" -> (
      advance p;
      let c = parse_forall_control p in
      match peek p with
      | NEWLINE ->
          end_of_stmt p;
          let body = parse_block p [ "ENDFORALL" ] in
          [ SForall (c, body) ]
      | _ ->
          let body = parse_stmt p in
          [ SForall (c, body) ])
  | KEYWORD "WHERE" -> (
      advance p;
      expect p LPAREN;
      let cond = parse_expr p in
      expect p RPAREN;
      match peek p with
      | NEWLINE ->
          end_of_stmt p;
          let t, closed_by = parse_block_until p [ "ELSEWHERE"; "ENDWHERE" ] in
          let f =
            if closed_by = "ELSEWHERE" then begin
              end_of_stmt p;
              parse_block p [ "ENDWHERE" ]
            end
            else []
          in
          [ SWhere (cond, t, f) ]
      | _ ->
          let body = parse_stmt p in
          [ SWhere (cond, body, []) ])
  | KEYWORD "CALL" ->
      advance p;
      let name = ident p in
      let args =
        if accept p LPAREN then begin
          let a = parse_index_list p in
          expect p RPAREN;
          a
        end
        else []
      in
      [ SCall (name, args) ]
  | KEYWORD "GOTO" ->
      advance p;
      [ SGoto (goto_label p) ]
  | KEYWORD "CONTINUE" ->
      advance p;
      []
  | IDENT name ->
      advance p;
      let lv = parse_lvalue_from_ident p name in
      expect p ASSIGN;
      let rhs = parse_range p in
      [ SAssign (lv, rhs) ]
  | t -> error p "expected a statement, found %s" (Token.to_string t)

(** Parse statements until one of the closing keywords, consume it. *)
and parse_block p closers = fst (parse_block_until p closers)

and parse_block_until p closers =
  skip_newlines p;
  let rec go stmts =
    match peek p with
    | KEYWORD k when List.exists (String.equal k) closers ->
        advance p;
        (List.rev stmts, k)
    | EOF ->
        error p "unexpected end of input, expected %s"
          (String.concat "/" closers)
    | _ ->
        let ss = parse_stmt p in
        end_of_stmt p;
        go (List.rev_append ss stmts)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

let parse_program_items p =
  let decls = ref [] and dirs = ref [] and stmts = ref [] in
  let rec go () =
    skip_newlines p;
    match peek p with
    | EOF | KEYWORD "END" -> ()
    | KEYWORD ("INTEGER" | "REAL" | "LOGICAL") ->
        let ty = parse_dtype p in
        decls := List.rev_append (parse_declarators p false ty) !decls;
        end_of_stmt p;
        go ()
    | KEYWORD "PLURAL" ->
        advance p;
        let ty = parse_dtype p in
        decls := List.rev_append (parse_declarators p true ty) !decls;
        end_of_stmt p;
        go ()
    | KEYWORD "DECOMPOSITION" ->
        advance p;
        let name = ident p in
        expect p LPAREN;
        let dims = parse_index_list p in
        expect p RPAREN;
        dirs := DDecomposition (name, dims) :: !dirs;
        end_of_stmt p;
        go ()
    | KEYWORD "ALIGN" ->
        advance p;
        let a = ident p in
        expect_keyword p "WITH";
        let d = ident p in
        dirs := DAlign (a, d) :: !dirs;
        end_of_stmt p;
        go ()
    | KEYWORD "DISTRIBUTE" ->
        advance p;
        let d = ident p in
        expect p LPAREN;
        let one = parse_distribution p in
        let dists = ref [ one ] in
        while accept p COMMA do dists := parse_distribution p :: !dists done;
        expect p RPAREN;
        dirs := DDistribute (d, List.rev !dists) :: !dirs;
        end_of_stmt p;
        go ()
    | _ ->
        let ss = parse_stmt p in
        end_of_stmt p;
        stmts := List.rev_append ss !stmts;
        go ()
  in
  go ();
  (List.rev !decls, List.rev !dirs, List.rev !stmts)

let parse_program p =
  skip_newlines p;
  let name =
    if accept_keyword p "PROGRAM" then begin
      let n = ident p in
      end_of_stmt p;
      n
    end
    else "main"
  in
  let decls, dirs, body = parse_program_items p in
  if accept_keyword p "END" then skip_newlines p;
  (match peek p with
  | EOF -> ()
  | t -> error p "trailing input: %s" (Token.to_string t));
  { p_name = name; p_decls = decls; p_directives = dirs; p_body = body }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Parse a complete program (with or without a PROGRAM header). *)
let program_of_string src = parse_program (make src)

(** Parse a statement block (no declarations), e.g. a test snippet. *)
let block_of_string src =
  let p = make src in
  let stmts = ref [] in
  skip_newlines p;
  while not (at p EOF) do
    let ss = parse_stmt p in
    end_of_stmt p;
    stmts := List.rev_append ss !stmts
  done;
  List.rev !stmts

(** Parse a single expression. *)
let expr_of_string src =
  let p = make src in
  let e = parse_expr p in
  skip_newlines p;
  (match peek p with
  | EOF -> ()
  | t -> error p "trailing input after expression: %s" (Token.to_string t));
  e
