(** Tokens of the pseudo-Fortran surface syntax. *)

type t =
  | INT of int
  | FLOAT of float
  | IDENT of string  (** lower-cased; identifiers are case-insensitive *)
  | KEYWORD of string  (** upper-cased reserved word *)
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | POW  (** ** *)
  | ASSIGN  (** = *)
  | EQ  (** == or .EQ. *)
  | NE
  | LT
  | LE
  | GT
  | GE
  | AND
  | OR
  | NOT
  | TRUE
  | FALSE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | COLON
  | NEWLINE
  | EOF

let keywords =
  [ "PROGRAM"; "END"; "INTEGER"; "REAL"; "LOGICAL"; "PLURAL"; "DIMENSION";
    "DO"; "ENDDO"; "WHILE"; "ENDWHILE"; "REPEAT"; "UNTIL"; "IF"; "THEN";
    "ELSE"; "ELSEIF"; "ENDIF"; "FORALL"; "ENDFORALL"; "WHERE"; "ELSEWHERE";
    "ENDWHERE"; "CALL"; "GOTO"; "CONTINUE"; "DECOMPOSITION"; "ALIGN"; "WITH";
    "DISTRIBUTE"; "BLOCK"; "CYCLIC" ]

let to_string = function
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | IDENT s -> s
  | KEYWORD s -> s
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | POW -> "**"
  | ASSIGN -> "="
  | EQ -> "=="
  | NE -> "/="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | AND -> ".AND."
  | OR -> ".OR."
  | NOT -> ".NOT."
  | TRUE -> ".TRUE."
  | FALSE -> ".FALSE."
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | COLON -> ":"
  | NEWLINE -> "<newline>"
  | EOF -> "<eof>"
