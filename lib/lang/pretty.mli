(** Pretty-printer producing parseable pseudo-Fortran:
    [Parser.block_of_string (block_to_string b)] re-produces [b] up to
    comments (property-tested).  One [Buffer]-based printer produces
    every form; the [pp_*] formatters print its text. *)

val dtype_to_string : Ast.dtype -> string

(** The text of a REAL literal: the shortest ["%.Ng"] form that the
    lexer reads back as exactly the value, with a ['.'] in its mantissa.
    One printing works out each distinct value's text once. *)
val real_literal : float -> string

val distribution_to_string : Ast.distribution -> string
val expr_to_string : Ast.expr -> string
val stmt_to_string : Ast.stmt -> string
val block_to_string : Ast.block -> string
val program_to_string : Ast.program -> string
val pp_expr : Ast.expr Fmt.t

(** Print one statement at the given indentation depth. *)
val pp_stmt : int -> Ast.stmt Fmt.t

val pp_block : int -> Ast.block Fmt.t
val pp_program : Ast.program Fmt.t
