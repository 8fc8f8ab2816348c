(** Slot-resolved intermediate representation between [Compile] and
    execution: the AST with every variable reference resolved to a dense
    [Frame] slot, carrying the optimizer's annotations.

    Lowering mirrors the AST one-to-one and keeps each node's source
    expression/statement, so the emitter can replay the reference
    machine's exact behaviour (observer callbacks receive original statements,
    index heads that turn out to be functions fall back to the call
    path, reduction witnesses distinguish bare variable arguments).

    [Opt.run] never rewrites the tree's shape; it {e annotates} it:
    [x_fused] (fused reduction), [x_scr] (scratch-pool group for the
    site's result buffers) and [s_accum] (scatter-accumulate
    assignment).

    [write_json] renders the annotated tree for [--dump-ir], streaming
    it into a buffer with no intermediate [Json.t] tree. *)

open Lf_lang

(** Fused-region instruction; integer operands index earlier entries of
    the region's postorder array. *)
type rop =
  | OConst of Values.value
  | OVar of int * string  (** frame slot, source name *)
  | OUn of Ast.unop * int
  | OBin of Ast.binop * int * int
  | OIntr of string * int
      (** unary numeric intrinsic by its lowercase key; only fusible
          when no user function shadows the name *)
  | OGather of int * string * int array
      (** global-array gather: frame slot, source name, subscript ops *)

type region = {
  rg_ops : rop array;  (** postorder; the last entry is the root *)
}

type fuse =
  | FReduce of string * region
      (** reduction call [key(arg)]: fold the fused argument region
          inside the chunked merge tree without materializing it *)

type expr = {
  x_ast : Ast.expr;  (** original source expression *)
  mutable x_node : xnode;
  mutable x_fused : fuse option;  (** set by [Opt.run] at [-O1] *)
  mutable x_scr : int;
      (** scratch group for this site's result buffers; [-1] = private *)
}

and xnode =
  | XConst of Values.value
  | XVar of int option * string  (** slot if resolvable *)
  | XRange of expr * expr
  | XUn of Ast.unop * expr
  | XBin of Ast.binop * expr * expr
  | XCall of string * expr list  (** function call, reductions included *)
  | XIdx of int * string * expr list

type lv = {
  l_slot : int;
  l_name : string;
  l_index : expr list;
}

type stmt = {
  s_ast : Ast.stmt;  (** original statement, handed to observers *)
  s_node : snode;
  mutable s_accum : bool;  (** scatter-accumulate peephole (set by [Opt]) *)
}

and snode =
  | LLoc of Errors.pos * stmt
  | LNop
  | LAssign of lv * expr
  | LScall of string * (expr * bool) list
      (** argument and its [exact_lanes] flag (variable / range reads
          expose true lane contents to procedures) *)
  | LIf of expr * block * block
  | LWhere of expr * block * block
  | LWhile of expr * block
  | LDoWhile of block * expr
  | LDo of int * string * expr * expr * expr option * block
      (** DO/FORALL: variable slot and name, lo, hi, step, body *)
  | LGoto

and block = stmt array

(** Unary numeric intrinsics a fused region may absorb; all total on
    numeric operands. *)
val fusible_intrinsics : string list

(** Does the reference leave this expression's inactive lanes intact
    (rather than inert [VInt 0])?  Only variable reads and ranges. *)
val exact_lanes : Ast.expr -> bool

(** Lower an AST block against a frame's name resolution.
    @raise Invalid_argument on a name absent from the frame. *)
val of_block : Frame.t -> Ast.block -> block

(** The [--dump-ir] rendering: append the annotated tree to the buffer
    as JSON, tagged with the optimizer level that produced the
    annotations.  [spill] (default [ignore]) runs after every statement
    of every block; [Json.stream] passes one that drains the buffer to a
    channel. *)
val write_json :
  ?spill:(Buffer.t -> unit) -> opt:int -> Buffer.t -> block -> unit
