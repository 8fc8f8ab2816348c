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

(** {1 In-place number readers}

    Both read [src.[s .. e - 1]] without a substring or a C call, and
    agree bit for bit with [int_of_string] / [float_of_string] on every
    text they accept. *)

(** The value of 1 to 18 decimal digits, else [-1]. *)
val plain_int : string -> int -> int -> int

(** The value of a plain [d*.d*] (at least one digit, at most one ['.'])
    whose digits, read as one integer, are at most [2^53], with at most
    22 after the ['.'], else [nan]. *)
val plain_real : string -> int -> int -> float
