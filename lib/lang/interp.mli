(** Sequential (F77) interpreter with GOTO support, Fortran-90 whole-array
    assignment and contiguous sections, and caller-registered external
    subroutines/functions.

    The interpreter records an {e observation trace} — the sequence of
    external subroutine calls with their arguments — which
    [Lf_core.Validate] compares across transformed program versions. *)

open Ast

type observation = {
  ob_proc : string;
  ob_args : Values.value list;
}

type proc = t -> Values.value list -> unit

and t = {
  env : Env.t;
  mutable fuel : int;
  mutable steps : int;  (** statements executed (comments excluded) *)
  mutable obs : observation list;  (** reversed; use [observations] *)
  procs : (string, proc) Hashtbl.t;
  funcs : (string, Values.value list -> Values.value) Hashtbl.t;
  mutable cur_loc : Errors.pos;
      (** location of the innermost [SLoc]-wrapped statement being
          executed; [Errors.no_pos] outside located code *)
  mutable step_hook : (Errors.pos -> unit) option;
      (** called once per counted step with the current source location;
          used for per-line time attribution (e.g. by [Lf_mimd]) *)
}

exception Jump of string
(** Unresolved GOTO (label not found in any enclosing block). *)

val dispatch_hook : (string -> unit) option ref
(** Process-wide statement-dispatch hook: when set, called once per
    executed statement (before it runs) with the statement kind —
    "assign", "call", "goto", "cond_goto", "if", "while", "do_while",
    "do", "forall" or "where".  Installed by the observability layer's
    telemetry registry while enabled; [None] (the default) costs one
    load and branch per statement. *)

val default_fuel : int
val create : ?fuel:int -> unit -> t
val register_proc : t -> string -> proc -> unit
val register_func : t -> string -> (Values.value list -> Values.value) -> unit

(** The external-call trace, in execution order. *)
val observations : t -> observation list

(** Scalar binary/unary operator semantics (shared with the SIMD VM). *)
val apply_binop : binop -> Values.value -> Values.value -> Values.value

val apply_unop : unop -> Values.value -> Values.value

val eval : t -> expr -> Values.value
val exec_stmt : t -> stmt -> unit
val exec_stmts : t -> block -> unit

(** Allocate declared variables; pre-seeded bindings are kept, and array
    dimensions may reference earlier bindings. *)
val declare : t -> decl list -> unit

(** Run a program: seed [params], run [setup], process declarations,
    execute the body.  Raises [Errors.Runtime_error] on fuel exhaustion
    or dynamic errors — [Errors.Runtime_error_at] when the failing
    statement carries a source location. *)
val run :
  ?params:(string * Values.value) list ->
  ?fuel:int ->
  ?setup:(t -> unit) ->
  program ->
  t

val run_block :
  ?params:(string * Values.value) list ->
  ?fuel:int ->
  ?setup:(t -> unit) ->
  block ->
  t
