(** The optimizer pipeline over the slot-resolved IR ([Ir]).

    [run ~level] is the identity at level 0 ([-O0]).  At level 1 and
    above it applies, in named phases: reduction fusion ([Ir.FReduce],
    "fuse"), scatter-accumulate marking ([Ir.s_accum], "accum") and
    scratch planning ([Ir.x_scr], "scratch": walks over the linearized
    evaluation order that give each site the smallest group no live
    site holds).

    Level 2 runs the same pipeline as level 1.

    Every annotation is advisory: the emitter ([Compile]) re-validates
    them against runtime shapes and falls back to unfused execution
    whenever a plan does not apply — which is what keeps [-O1]
    bit-identical to [-O0] on state, metrics, error strings,
    first-failing-lane semantics and trace events. *)

(** Phase names, in execution order ("lower" is the un-optimized
    input). *)
val phases : string list

(** Run the pipeline.  [frame] is the frame the block was lowered with
    (name resolution for the verifier).  When [verify] is set,
    [Verify.check_ir] runs after every phase (including "lower") and
    raises [Verify.Error] on a broken invariant; [dump] receives each
    phase's annotated IR by name. *)
val run :
  level:int ->
  frame:Frame.t ->
  ?verify:bool ->
  ?dump:(string -> Ir.block -> unit) ->
  Ir.block ->
  Ir.block

val chaos_scratch : bool ref
(** Test-only fault injection: when set, [run] deliberately mis-plans
    scratch after the "scratch" phase (every buffer-owning site claims
    group 0, so simultaneously live results share a buffer).  The
    fuzzer's acceptance test sets this to prove the differential oracles
    catch — and the reducer minimizes — a broken optimizer phase.  Must
    be [false] outside tests. *)

(** {1 Scratch planning} *)

val plan_scratch : Ir.block -> int * int
(** Assign every site of the block a scratch group ([Ir.x_scr]): the
    smallest group that no site live at its definition holds.  Returns
    the number of sites and of groups.  Idempotent. *)
