(** MIMD execution model (paper §3, Figure 3): P processors run the same
    program asynchronously over separate name spaces; time is the maximum
    over per-processor times (Eq. 1 when the unit is one inner
    iteration). *)

open Lf_lang

type result = {
  contexts : Interp.t array;
  steps : int array;  (** interpreter steps per processor *)
  time : int;  (** max over processors *)
  calls : int array;  (** external-subroutine calls per processor *)
  call_time : int;  (** max over processors of external calls (Eq. 1) *)
  line_steps : (int * int array) list;
      (** with [~profile:true]: per source line, the steps each processor
          spent there; a line's MIMD time is the max over its array.
          Line 0 collects unlocated statements.  Empty when profiling was
          off. *)
}

(** [run ~p ~setup prog]: processor [i] (0-based) gets a fresh sequential
    context set up by [setup i] — typically its block or cyclic slice of
    the global arrays, per the owner-computes rule.  [procs] registers
    external subroutines on every processor.  [profile] turns on per-line
    step attribution ([line_steps]). *)
val run :
  ?fuel:int ->
  p:int ->
  ?procs:(string * Interp.proc) list ->
  ?profile:bool ->
  setup:(int -> Interp.t -> unit) ->
  Ast.program ->
  result

val run_block :
  ?fuel:int ->
  p:int ->
  ?procs:(string * Interp.proc) list ->
  ?profile:bool ->
  setup:(int -> Interp.t -> unit) ->
  Ast.block ->
  result
