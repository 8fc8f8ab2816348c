(** Compile-then-execute engine for the SIMD VM.

    Lowers an F90simd block into OCaml closures over a [Frame]: variables
    are resolved to dense slots at compile time, plural int/real scalars
    stay unboxed, and the activity mask is a reusable bitset with a cached
    active count.  Execution is bit-identical to the tree-walker
    ([Vm.exec]) — same final variable state, same [Metrics], same errors —
    with one documented relaxation: the inactive lanes of {e computed}
    temporaries may hold garbage internally; the tree-walker's inert
    [VInt 0] is reinstated wherever those lanes can escape (fresh binds,
    external-procedure arguments).

    The engine talks to the VM through the [host] callback record, which
    keeps this module below [Vm] in the dependency order. *)

open Lf_lang

type host = {
  h_p : int;  (** number of lanes *)
  h_tick_vector :
    loc:Errors.pos -> kind:Lf_obs.Trace.kind -> Frame.Mask.t -> unit;
      (** account one vector step (may raise on fuel exhaustion); [loc]
          and [kind] are compile-time constants of the issuing site, and
          the mask caches its active count, so the host's trace emission
          is one flat branch when tracing is off *)
  h_tick_frontend : unit -> unit;  (** account one control-unit step *)
  h_reduction : loc:Errors.pos -> Frame.Mask.t -> unit;
      (** count a global reduction tree *)
  h_call_metric : string -> unit;  (** count an external CALL *)
  h_find_proc :
    string -> (mask:bool array -> Pval.t list -> unit) option;
  h_find_func : string -> ((Values.value list -> Values.value) * bool) option;
      (** user function and its purity flag; only pure functions may be
          applied lane-parallel *)
  h_observer : unit -> (mask:bool array -> Ast.stmt -> unit) option;
  h_flush : unit -> unit;  (** frame -> VM variable table *)
  h_import : unit -> unit;  (** VM variable table -> frame *)
}

(** Every name the program can bind or reference as a variable, in
    first-use order (declarations, lvalues, DO variables, [EVar]/[EIdx]
    heads).  The frame passed to [compile] must cover at least these. *)
val var_names : Ast.program -> string list

(** [compile ~host ~frame ~exec ?opt body] returns the compiled body; run
    it by applying it to a full activity mask.  [exec] dispatches every
    per-lane loop: [Pool.serial_exec] gives the serial compiled engine,
    [Pool.parallel_exec] the lane-sharded parallel one — same closures,
    same bit-identical results (reductions fold the canonical chunked
    merge tree of [Pool] in every case).

    [opt] (default 1) selects the optimizer level applied to the
    slot-resolved IR ([Ir] / [Opt]) before emission: 0 compiles each AST
    node to its own lane loop; 1 fuses elementwise chains and reductions,
    recycles scratch buffers and simplifies provably-full masks; 2 adds
    range-analysis bounds-check discharge — all with the same
    bit-identity contract as the engine itself.

    [verify] (default false) runs the independent IR verifier
    ([Verify.check_ir]) after lowering and after every optimizer phase;
    a broken invariant raises [Verify.Error] before emission. *)
val compile :
  host:host -> frame:Frame.t -> exec:Pool.exec -> ?opt:int -> ?verify:bool ->
  Ast.block -> Frame.Mask.t -> unit

(** The two halves of [compile], exposed for the program cache
    ([Progcache]): [lower] pays the front end (AST -> slot-resolved IR ->
    [Opt.run] at [opt], with [Verify.check_ir] at every phase boundary
    when [verify] is set); [emit] turns an already-lowered IR into the
    executable closure.  Emission never mutates the IR, so one lowered
    block may be emitted repeatedly — against the lowering frame or any
    other frame created with the identical name list and [p] (slot
    numbering is a function of the name list alone). *)
val lower : frame:Frame.t -> ?opt:int -> ?verify:bool -> Ast.block -> Ir.block

val emit :
  host:host -> frame:Frame.t -> exec:Pool.exec -> ?opt:int ->
  Ir.block -> Frame.Mask.t -> unit
