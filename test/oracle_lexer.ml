(** Differential oracle for [Lexer]: the list-building, [char option]
    lexer it replaced, kept verbatim apart from three edits.  A [C]
    starts a comment only in column 1 (the old lexer also took an
    indented [C(i) = 1] for one), an integer literal past [max_int] is a
    located lexical error (the old lexer raised [Failure]), and keywords
    are found by a list scan, so the oracle does not share [Lexer]'s
    keyword table. *)

open Lf_lang
open Token

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
  mutable at_line_start : bool;
}

let make src = { src; pos = 0; line = 1; bol = 0; at_line_start = true }

let position lx = Errors.pos lx.line (lx.pos - lx.bol + 1)
let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let peek2 lx =
  if lx.pos + 1 < String.length lx.src then Some lx.src.[lx.pos + 1] else None

let advance lx = lx.pos <- lx.pos + 1

let newline lx =
  lx.line <- lx.line + 1;
  lx.bol <- lx.pos

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let rec skip_blanks lx =
  match peek lx with
  | Some (' ' | '\t' | '\r') ->
      advance lx;
      skip_blanks lx
  | Some '&' when peek2 lx = Some '\n' ->
      (* continuation: '&' immediately before the newline joins lines *)
      advance lx;
      advance lx;
      newline lx;
      skip_blanks lx
  | _ -> ()

let skip_to_eol lx =
  let rec go () =
    match peek lx with
    | Some '\n' | None -> ()
    | Some _ ->
        advance lx;
        go ()
  in
  go ()

let lex_number lx =
  let start = lx.pos and p = position lx in
  let rec digits () =
    match peek lx with
    | Some c when is_digit c ->
        advance lx;
        digits ()
    | _ -> ()
  in
  digits ();
  let is_real =
    match (peek lx, peek2 lx) with
    (* a '.' starts a fraction only if not a dotted operator like 1.AND. *)
    | Some '.', Some c when is_digit c -> true
    | Some '.', (Some (')' | ',' | ' ' | '\n' | '+' | '-' | '*' | '/') | None)
      -> true
    | _ -> false
  in
  if is_real then begin
    advance lx;
    digits ();
    (match (peek lx, peek2 lx) with
    | Some ('e' | 'E' | 'd' | 'D'), Some c
      when is_digit c || c = '+' || c = '-' ->
        (* roll back unless at least one exponent digit follows *)
        let mark = lx.pos in
        advance lx;
        (match peek lx with
        | Some ('+' | '-') -> advance lx
        | _ -> ());
        let before = lx.pos in
        digits ();
        if lx.pos = before then lx.pos <- mark
    | _ -> ());
    let s =
      String.sub lx.src start (lx.pos - start)
      |> String.map (function 'd' | 'D' -> 'e' | c -> c)
    in
    FLOAT (float_of_string s)
  end
  else
    match int_of_string (String.sub lx.src start (lx.pos - start)) with
    | n -> INT n
    | exception Failure _ -> Errors.lex_error p "integer literal out of range"

let lex_word lx =
  let start = lx.pos in
  let rec go () =
    match peek lx with
    | Some c when is_alnum c ->
        advance lx;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub lx.src start (lx.pos - start) in
  let w = String.uppercase_ascii s in
  if List.mem w Token.keywords then KEYWORD w
  else IDENT (String.lowercase_ascii s)

(** Dotted operators: [.AND.] [.OR.] [.NOT.] [.TRUE.] [.FALSE.] [.EQ.] [.NE.]
    [.LT.] [.LE.] [.GT.] [.GE.] *)
let lex_dotted lx =
  let p = position lx in
  advance lx;
  let start = lx.pos in
  let rec go () =
    match peek lx with
    | Some c when is_alpha c ->
        advance lx;
        go ()
    | _ -> ()
  in
  go ();
  let word = String.uppercase_ascii (String.sub lx.src start (lx.pos - start)) in
  (match peek lx with
  | Some '.' -> advance lx
  | _ -> Errors.lex_error p "unterminated dotted operator .%s" word);
  match word with
  | "AND" -> AND
  | "OR" -> OR
  | "NOT" -> NOT
  | "TRUE" -> TRUE
  | "FALSE" -> FALSE
  | "EQ" -> EQ
  | "NE" -> NE
  | "LT" -> LT
  | "LE" -> LE
  | "GT" -> GT
  | "GE" -> GE
  | w -> Errors.lex_error p "unknown dotted operator .%s." w

let rec next lx : Errors.pos * Token.t =
  skip_blanks lx;
  let p = position lx in
  (* full-line comments: upper-case 'C', '!' or '*' in the first column;
     lower-case 'c' stays available as an identifier *)
  (if lx.at_line_start then
     match peek lx with
     | Some 'C'
       when lx.pos = lx.bol
            && not (Option.fold ~none:false ~some:is_alnum (peek2 lx)) ->
         skip_to_eol lx
     | Some ('!' | '*') -> skip_to_eol lx
     | _ -> ());
  match peek lx with
  | None -> (p, EOF)
  | Some '\n' ->
      advance lx;
      newline lx;
      lx.at_line_start <- true;
      (* collapse consecutive newlines (and comment-only lines) *)
      let rec collapse () =
        skip_blanks lx;
        match peek lx with
        | Some 'C' when lx.pos = lx.bol
                        && not (Option.fold ~none:false ~some:is_alnum (peek2 lx)) ->
            skip_to_eol lx;
            collapse ()
        | Some ('!' | '*') when lx.at_line_start ->
            skip_to_eol lx;
            collapse ()
        | Some '\n' ->
            advance lx;
            newline lx;
            collapse ()
        | _ -> ()
      in
      collapse ();
      (p, NEWLINE)
  | Some '!' ->
      skip_to_eol lx;
      next lx
  | Some c ->
      lx.at_line_start <- false;
      if is_digit c then (p, lex_number lx)
      else if is_alpha c then (p, lex_word lx)
      else if c = '.' then
        match peek2 lx with
        | Some d when is_digit d -> (p, lex_number lx)
        | _ -> (p, lex_dotted lx)
      else begin
        advance lx;
        let two expected tok_two tok_one =
          if peek lx = Some expected then (advance lx; tok_two) else tok_one
        in
        let tok =
          match c with
          | '+' -> PLUS
          | '-' -> MINUS
          | '*' -> two '*' POW STAR
          | '/' -> two '=' NE SLASH
          | '=' -> two '=' EQ ASSIGN
          | '<' -> two '=' LE LT
          | '>' -> two '=' GE GT
          | '(' -> LPAREN
          | ')' -> RPAREN
          | '[' -> LBRACKET
          | ']' -> RBRACKET
          | ',' -> COMMA
          | ':' -> COLON
          | c -> Errors.lex_error p "unexpected character %C" c
        in
        (p, tok)
      end

(** Tokenize a whole source string. *)
let tokenize src =
  let lx = make src in
  let rec go acc =
    let ((_, tok) as t) = next lx in
    if tok = EOF then List.rev (t :: acc) else go (t :: acc)
  in
  match go [] with
  | (_, NEWLINE) :: rest -> rest  (* leading blank/comment lines *)
  | toks -> toks
