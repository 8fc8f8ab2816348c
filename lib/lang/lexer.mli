(** Hand-written lexer for the pseudo-Fortran surface syntax: newline-
    terminated statements, column-1 [C] and first-non-blank [!]/[*]
    comments, [&]-before-newline continuations, case-insensitive words,
    dotted and symbolic operators. *)

(** A whole source scanned into a flat buffer: [toks.(i)] for [i] below
    [count] is the [i]th token, the last one [EOF], and [locs.(i)] its
    packed source position (read it with {!pos_of_loc}).  The arrays may
    run past [count]. *)
type tokens = private {
  toks : Token.t array;
  locs : int array;
  count : int;
}

(** Scan a whole source string; a leading blank/comment region produces
    no [NEWLINE].
    @raise Errors.Lex_error on the first malformed token. *)
val scan : string -> tokens

(** The line and column a packed location stands for. *)
val pos_of_loc : int -> Errors.pos

(** [scan] as a list of located tokens (ends with [EOF]). *)
val tokenize : string -> (Errors.pos * Token.t) list
