(** The SIMD VM's compile-then-execute engine.

    Lowers an F90simd block into OCaml closures over a [Frame]: variables
    are resolved to dense slots at compile time, plural int/real scalars
    stay unboxed, and the activity mask is a reusable bitset with a cached
    active count.  Execution is bit-identical to the boxed reference
    machine ([Lf_testgen.Ref_vm]) — same final variable state, same
    [Metrics], same errors — with one documented relaxation: the
    inactive lanes of {e computed} temporaries may hold garbage
    internally; the reference's inert [VInt 0] is reinstated wherever
    those lanes can escape (fresh binds, external-procedure arguments).

    The emitted closures read the run's VM ([Vmstate.t]) directly and
    charge every step through [Vmstate]'s accounting. *)

open Lf_lang

(** Every name the program can bind or reference as a variable, in
    first-use order (declarations, lvalues, DO variables, [EVar]/[EIdx]
    heads).  The frame passed to [lower] must cover at least these. *)
val var_names : Ast.program -> string list

(** [lower ~frame ?opt ?verify body] pays the front end: AST ->
    slot-resolved IR ([Ir]) -> [Opt.run] at [opt].

    [opt] (default 1) selects the optimizer level: 0 compiles each AST
    node to its own lane loop; 1 fuses reductions and two-operand stores,
    merges scatter-accumulates and recycles scratch buffers; 2 runs the
    level-1 pipeline — all with the same bit-identity contract as the
    engine itself.

    [verify] (default false) runs the independent IR verifier
    ([Verify.check_ir]) after lowering and after every optimizer phase;
    a broken invariant raises [Verify.Error] before anything runs. *)
val lower : frame:Frame.t -> ?opt:int -> ?verify:bool -> Ast.block -> Ir.block

(** [emit ~vm ~frame ?opt ir] turns a lowered IR into the executable
    body; run it by applying it to a full activity mask.  [opt] must be
    the level [ir] was lowered at (it gates the [-O1] store paths).
    Every per-lane loop is one pass over the lanes in ascending order,
    and reductions fold the canonical chunked merge tree of
    [Scalar_ops], so results are bit-identical to the reference's.

    Emission never mutates the IR, so one lowered block may be emitted
    repeatedly — against the lowering frame or any other frame created
    with the identical name list and [p] (slot numbering is a function
    of the name list alone), which is how the program cache
    ([Progcache]) re-runs it. *)
val emit :
  vm:Vmstate.t -> frame:Frame.t -> ?opt:int -> Ir.block -> Frame.Mask.t ->
  unit
