(** Fresh-name generation for compiler-introduced variables, avoiding
    every name already used in the program being transformed. *)

type t

val of_names : string list -> t

(** Every variable a block assigns or reads, sorted, each once. *)
val block_names : Lf_lang.Ast.block -> string list

val of_block : Lf_lang.Ast.block -> t
val of_program : Lf_lang.Ast.program -> t

(** Mark a name as taken. *)
val reserve : t -> string -> unit

(** [fresh t base] returns [base] if unused, else [base_1], [base_2], ...;
    the returned name is recorded as taken. *)
val fresh : t -> string -> string
