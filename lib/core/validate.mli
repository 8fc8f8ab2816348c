(** Translation validation by interpretation: run the original and the
    transformed block on identical inputs and compare final stores and the
    external-call trace — the dynamic check of the paper's claim that
    flattening "executes exactly the same instructions in the same order
    and the same number of times." *)

open Lf_lang

type mismatch =
  | Var_differs of string * Values.value option * Values.value option
  | Obs_length of int * int
  | Obs_differs of int * string * string

val pp_mismatch : mismatch Fmt.t

type report = {
  ok : bool;
  mismatches : mismatch list;
  steps_original : int;
  steps_transformed : int;
}

val obs_to_string : Interp.observation -> string

(** [compare_runs ~vars ~setup a b] runs both blocks in fresh contexts
    set up by [setup] and compares the variables [vars] plus the
    observation traces.  Synthetic transformer-introduced variables should
    not be listed in [vars]. *)
val compare_runs :
  ?params:(string * Values.value) list ->
  ?fuel:int ->
  ?setup:(Interp.t -> unit) ->
  vars:string list ->
  Ast.block ->
  Ast.block ->
  report
