(** Typed verifier for the slot-resolved IR: independently re-derives
    every optimizer annotation after lowering and after each [Opt]
    phase, raising rule-coded located diagnostics (rendered by the CLIs
    in the flattenlint style) when a phase broke the IR.

    Rules:
    - IR001 — slot references resolve in the frame to the claimed name
    - IR002 — fused regions are postorder (operands precede users)
    - IR003 — [FReduce] regions hold only fusible operations under a
      reduction head
    - IR004 — scratch groups are interference-free under a re-derived
      backward liveness over the linearized evaluation order
    - IR006 — scatter-accumulate claims match the required shape
    - IR007 — range claims contain the re-derived abstract interval
      (claimed ⊇ derived ⊇ concrete per-lane values)

    Code 5 is retired with the mask-simplification phase whose claims
    it checked, and is not reused. *)

(** Rule codes with one-line summaries, for [flattenlint --rules]. *)
val rules : (string * string) list

val rule_doc : string -> string option

exception Error of Lf_analysis.Lint.diag list

(** Check the IR against the frame it was lowered with; [phase] names
    the optimizer pass whose output is being checked and is cited in
    every diagnostic.  @raise Error on any violation.  Records
    [verify.checks]/[verify.phases] (section [Opt]) and a Volatile
    span timer when [Stats] is enabled. *)
val check_ir : frame:Frame.t -> phase:string -> Ir.block -> unit
