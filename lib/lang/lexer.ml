(** Hand-written lexer for the pseudo-Fortran surface syntax.

    Conventions follow classic fixed-to-free-form Fortran, relaxed:
    - statements end at a newline (consecutive newlines collapse);
    - a line is a comment when its first column holds an upper-case [C]
      not followed by a letter, digit or [_], or when its first non-blank
      character is [!] or [*]; [!] also starts a trailing comment, and a
      lower-case [c] (or an indented [C]) stays an identifier;
    - keywords and identifiers are case-insensitive; identifiers are
      lower-cased, keywords upper-cased;
    - dotted operators ([.AND.], [.EQ.], ...) and their symbolic forms
      ([==], [<=], ...) are both accepted;
    - a line may start with a numeric statement label, which is emitted as
      the pseudo-keyword token sequence used by the parser.

    The whole input is scanned into a flat token buffer before parsing:
    one token array and one array of packed line/column locations, with
    no per-token tuple, list cell or position record.  Character looks
    return ['\000'] past the end, and [at_eof] tells that sentinel from a
    real NUL byte. *)

open Token

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
  mutable at_line_start : bool;
}

let make src = { src; pos = 0; line = 1; bol = 0; at_line_start = true }

(* A location packs line and column into one int: the line above
   [col_bits], the column below. *)
let col_bits = 32
let col_mask = (1 lsl col_bits) - 1
let loc lx = (lx.line lsl col_bits) lor (lx.pos - lx.bol + 1)
let pos_of_loc l = Errors.pos (l lsr col_bits) (l land col_mask)

let at_eof lx = lx.pos >= String.length lx.src

let peek lx =
  if lx.pos < String.length lx.src then String.unsafe_get lx.src lx.pos
  else '\000'

let peek2 lx =
  if lx.pos + 1 < String.length lx.src then
    String.unsafe_get lx.src (lx.pos + 1)
  else '\000'

let advance lx = lx.pos <- lx.pos + 1

let newline lx =
  lx.line <- lx.line + 1;
  lx.bol <- lx.pos

let is_digit c = c >= '0' && c <= '9'
let is_upper c = c >= 'A' && c <= 'Z'
let is_alpha c = (c >= 'a' && c <= 'z') || is_upper c || c = '_'
let is_alnum c = is_alpha c || is_digit c

let rec skip_blanks lx =
  match peek lx with
  | ' ' | '\t' | '\r' ->
      advance lx;
      skip_blanks lx
  | '&' when peek2 lx = '\n' ->
      (* continuation: '&' immediately before the newline joins lines *)
      advance lx;
      advance lx;
      newline lx;
      skip_blanks lx
  | _ -> ()

let skip_to_eol lx =
  while (not (at_eof lx)) && peek lx <> '\n' do
    advance lx
  done

let skip_digits lx =
  while is_digit (peek lx) do
    advance lx
  done

let lex_number lx =
  let start = lx.pos and l = loc lx in
  skip_digits lx;
  let is_real =
    peek lx = '.'
    &&
    (* a '.' starts a fraction only if not a dotted operator like 1.AND. *)
    match peek2 lx with
    | '0' .. '9' | ')' | ',' | ' ' | '\n' | '+' | '-' | '*' | '/' -> true
    | _ -> lx.pos + 1 >= String.length lx.src
  in
  if is_real then begin
    advance lx;
    skip_digits lx;
    (match (peek lx, peek2 lx) with
    | ('e' | 'E' | 'd' | 'D'), ('0' .. '9' | '+' | '-') ->
        (* roll back unless at least one exponent digit follows *)
        let mark = lx.pos in
        advance lx;
        (match peek lx with '+' | '-' -> advance lx | _ -> ());
        let before = lx.pos in
        skip_digits lx;
        if lx.pos = before then lx.pos <- mark
    | _ -> ());
    let s = String.sub lx.src start (lx.pos - start) in
    let s =
      if String.contains s 'd' || String.contains s 'D' then
        String.map (function 'd' | 'D' -> 'e' | c -> c) s
      else s
    in
    FLOAT (float_of_string s)
  end
  else
    match int_of_string (String.sub lx.src start (lx.pos - start)) with
    | n -> INT n
    | exception Failure _ ->
        Errors.lex_error (pos_of_loc l) "integer literal out of range"

(* Does [src.[start + i .. start + len - 1]] spell the rest of the
   upper-case [word] in any case? *)
let rec spells_from src start word i len =
  i = len
  || Char.uppercase_ascii (String.unsafe_get src (start + i))
     = String.unsafe_get word i
     && spells_from src start word (i + 1) len

(* The token paired with the first upper-case word that
   [src.[start .. start + len - 1]] spells. *)
let rec lookup src start len = function
  | [] -> None
  | (w, tok) :: rest ->
      if String.length w = len && spells_from src start w 0 len then Some tok
      else lookup src start len rest

(* The reserved words' [KEYWORD] tokens, bucketed by length: a lookup
   compares the word in place against a few candidates and shares the
   token, so a keyword costs no upper-case copy. *)
let keyword_buckets =
  let longest = List.fold_left (fun m k -> max m (String.length k)) 0 keywords in
  let b = Array.make (longest + 1) [] in
  List.iter
    (fun k -> b.(String.length k) <- (k, KEYWORD k) :: b.(String.length k))
    keywords;
  b

let lex_word lx =
  let start = lx.pos in
  let upper = ref false in
  while is_alnum (peek lx) do
    if is_upper (peek lx) then upper := true;
    advance lx
  done;
  let len = lx.pos - start in
  match
    if len < Array.length keyword_buckets then
      lookup lx.src start len (Array.unsafe_get keyword_buckets len)
    else None
  with
  | Some tok -> tok
  | None ->
      let s = String.sub lx.src start len in
      IDENT (if !upper then String.lowercase_ascii s else s)

let dotted_words =
  [ ("AND", AND); ("OR", OR); ("NOT", NOT); ("TRUE", TRUE);
    ("FALSE", FALSE); ("EQ", EQ); ("NE", NE); ("LT", LT); ("LE", LE);
    ("GT", GT); ("GE", GE) ]

let upper_word src start len = String.uppercase_ascii (String.sub src start len)

(** Dotted operators: [.AND.] [.OR.] [.NOT.] [.TRUE.] [.FALSE.] [.EQ.] [.NE.]
    [.LT.] [.LE.] [.GT.] [.GE.] *)
let lex_dotted lx =
  let l = loc lx in
  advance lx;
  let start = lx.pos in
  while is_alpha (peek lx) do
    advance lx
  done;
  let len = lx.pos - start in
  if peek lx = '.' then advance lx
  else
    Errors.lex_error (pos_of_loc l) "unterminated dotted operator .%s"
      (upper_word lx.src start len);
  match lookup lx.src start len dotted_words with
  | Some tok -> tok
  | None ->
      Errors.lex_error (pos_of_loc l) "unknown dotted operator .%s."
        (upper_word lx.src start len)

(* A full-line comment at the cursor: an upper-case 'C' in column 1 not
   followed by a word character, or a '!' or '*' (the caller checks that
   the cursor is at the first non-blank of a line). *)
let at_line_comment lx =
  match peek lx with
  | 'C' -> lx.pos = lx.bol && not (is_alnum (peek2 lx))
  | '!' | '*' -> true
  | _ -> false

(* Past a newline: skip blank and comment-only lines. *)
let rec collapse lx =
  skip_blanks lx;
  if at_line_comment lx then begin
    skip_to_eol lx;
    collapse lx
  end
  else if peek lx = '\n' then begin
    advance lx;
    newline lx;
    collapse lx
  end

(* A one- or two-character operator whose first character is consumed. *)
let two lx expected tok_two tok_one =
  if peek lx = expected then begin
    advance lx;
    tok_two
  end
  else tok_one

(* The next token; its location goes to [!last_loc].  The location is
   taken before a full-line comment is skipped, so the NEWLINE or EOF
   that ends a comment line sits at the comment. *)
let rec next lx last_loc : Token.t =
  skip_blanks lx;
  last_loc := loc lx;
  if lx.at_line_start && at_line_comment lx then skip_to_eol lx;
  if at_eof lx then EOF
  else
    match peek lx with
    | '\n' ->
        advance lx;
        newline lx;
        lx.at_line_start <- true;
        (* collapse consecutive newlines (and comment-only lines) *)
        collapse lx;
        NEWLINE
    | '!' ->
        skip_to_eol lx;
        next lx last_loc
    | c -> (
        lx.at_line_start <- false;
        if is_digit c then lex_number lx
        else if is_alpha c then lex_word lx
        else if c = '.' then
          if is_digit (peek2 lx) then lex_number lx else lex_dotted lx
        else begin
          advance lx;
          match c with
          | '+' -> PLUS
          | '-' -> MINUS
          | '*' -> two lx '*' POW STAR
          | '/' -> two lx '=' NE SLASH
          | '=' -> two lx '=' EQ ASSIGN
          | '<' -> two lx '=' LE LT
          | '>' -> two lx '=' GE GT
          | '(' -> LPAREN
          | ')' -> RPAREN
          | '[' -> LBRACKET
          | ']' -> RBRACKET
          | ',' -> COMMA
          | ':' -> COLON
          | c ->
              Errors.lex_error (pos_of_loc !last_loc)
                "unexpected character %C" c
        end)

type tokens = {
  toks : Token.t array;
  locs : int array;
  count : int;
}

(* The growing token buffer [scan] fills. *)
type buffer = {
  mutable btoks : Token.t array;
  mutable blocs : int array;
  mutable n : int;
}

let push buf tok loc =
  if buf.n = Array.length buf.btoks then begin
    let cap = 2 * buf.n in
    let toks = Array.make cap EOF and locs = Array.make cap 0 in
    Array.blit buf.btoks 0 toks 0 buf.n;
    Array.blit buf.blocs 0 locs 0 buf.n;
    buf.btoks <- toks;
    buf.blocs <- locs
  end;
  Array.unsafe_set buf.btoks buf.n tok;
  Array.unsafe_set buf.blocs buf.n loc;
  buf.n <- buf.n + 1

(** Scan a whole source string into a token buffer ending with [EOF]; a
    leading blank/comment region produces no [NEWLINE]. *)
let scan src =
  let lx = make src in
  let cap = (String.length src / 2) + 16 in
  let buf = { btoks = Array.make cap EOF; blocs = Array.make cap 0; n = 0 } in
  let last_loc = ref 0 in
  let rec go () =
    match next lx last_loc with
    | EOF -> push buf EOF !last_loc
    | NEWLINE when buf.n = 0 -> go ()  (* leading blank/comment lines *)
    | tok ->
        push buf tok !last_loc;
        go ()
  in
  go ();
  { toks = buf.btoks; locs = buf.blocs; count = buf.n }

let tokenize src =
  let t = scan src in
  List.init t.count (fun i -> (pos_of_loc t.locs.(i), t.toks.(i)))
