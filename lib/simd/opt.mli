(** The optimizer pipeline over the slot-resolved IR ([Ir]).

    [run ~level] is the identity at level 0 ([-O0]).  At level 1 and
    above it applies, in named phases: reduction fusion ([Ir.FReduce],
    "fuse"), scatter-accumulate marking ([Ir.s_accum], "accum") and
    scratch planning ([Ir.x_scr], "scratch", one walk over the
    linearized evaluation order that gives each site the smallest group
    no live site holds).

    At level 2 a value-range abstract interpretation
    ([Lf_analysis.Range]) feeds one more phase: "range" claims
    intervals for gather/scatter subscripts ([Ir.x_range], letting the
    emitter discharge per-lane bounds checks).

    Every annotation is advisory: the emitter ([Compile]) re-validates
    them against runtime shapes, resolved dimensions and the canonical
    entry [iproc] binding, and falls back to unfused or checked execution
    whenever a claim does not apply — which is what keeps [-O1]/[-O2]
    bit-identical to [-O0] on state, metrics, error strings,
    first-failing-lane semantics and trace events. *)

(** Phase names, in execution order ("lower" is the un-optimized
    input). *)
val phases : string list

(** Run the pipeline.  [frame] is the frame the block was lowered with
    (name resolution for the verifier, lane count for the range
    analysis).  When [verify] is set, [Verify.check_ir] runs after every
    phase (including "lower") and raises [Verify.Error] on a broken
    invariant; [dump] receives each phase's annotated IR by name. *)
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

(** One step of the linearized evaluation order, over site numbers:
    the sites whose result buffers it reads and the site it defines. *)
type step = {
  st_uses : int list;
  st_def : int option;
}

val scratch_steps : Ir.block -> step array * Ir.expr array
(** The evaluation steps of a block, mirroring the emitter's order, and
    its buffer-bearing sites numbered in definition order (every use
    follows its definition).  Writes each site's number to its
    [Ir.x_scr]; [plan_scratch] then replaces it with a group.  Exposed
    so tests can check the planner against an independent colouring. *)

val plan_scratch : Ir.block -> int * int
(** Assign every site of the block a scratch group ([Ir.x_scr]): the
    smallest group that no site live at its definition holds.  Returns
    the number of sites and of groups.  Idempotent. *)
