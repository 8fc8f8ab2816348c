(** Scalar operator semantics and the lane kernels of every engine — the
    single definition of what each [Ast.binop] / [Ast.unop] means on
    runtime values (promotion, division by zero, integer vs real [Pow]).

    The semantics is written once as unboxed lane functions.  The boxed
    [apply_binop] applies them to values and is the independent oracle;
    the lane kernels below apply them to whole lane vectors and are the
    only typed lane loops of the SIMD engine ([Lf_simd.Compile]).  Every
    loop lives here, next to the lane
    functions it inlines: dev builds pass [-opaque], so a lane function
    called from another module would box each float it returns.

    A kernel matches its operator once per call, outside its loop: each
    arm applies the loop's [@inline] body to a literal operator, so the
    lane function's [match] folds away and the arm is a branch-free
    typed loop.  Operators whose lane function calls out of the loop
    (the C call of [Float.rem], the raise of an int [/] or MOD) share
    the one generic arm, since a call spills the loop's state to the
    stack on every lane. *)

(** {1 Boxed operators} *)

val apply_binop : Ast.binop -> Values.value -> Values.value -> Values.value
val apply_unop : Ast.unop -> Values.value -> Values.value

(** {1 Lane kernels}

    A kernel is one loop over the lanes [0, p) of its first argument,
    in ascending order, so the first failing active lane raises.

    [bp] is an activity mask's bytes, one per lane ([Frame.Mask.bits]
    layout, ['\000'] inactive), or [all_lanes] for every lane.  Only
    the marked lanes of a result are written.  An operand is a lane
    vector or a one-cell array broadcasting a front-end scalar, and a
    result may alias an operand. *)

(** The mask of a pass over every lane (compared physically). *)
val all_lanes : Bytes.t

(** [r.(i) <- op x.(i) y.(i)] for [+ - * /] and MOD; int [/] and MOD
    raise on a zero divisor. *)
val map2_i : int -> Bytes.t -> Ast.binop -> int array -> int array ->
  int array -> unit

val map2_r : int -> Bytes.t -> Ast.binop -> float array -> float array ->
  float array -> unit

(** A comparison, [.AND.] or [.OR.] on LOGICAL lanes.  Comparisons and
    LOGICAL operators are total, so they take no mask: they compute
    every lane. *)
val map2_b : int -> Ast.binop -> bool array -> bool array -> bool array ->
  unit

(** A comparison, through [compare] (so NaN = NaN). *)
val cmp_i : int -> Ast.binop -> bool array -> int array -> int array -> unit

val cmp_r : int -> Ast.binop -> bool array -> float array -> float array ->
  unit

(** [r.(i) <- op x.(i)] for unary minus or [.NOT.], or a masked copy when
    the operator is [None]. *)
val map1_i : int -> Bytes.t -> Ast.unop option -> int array -> int array ->
  unit

val map1_r : int -> Bytes.t -> Ast.unop option -> float array ->
  float array -> unit

val map1_b : int -> Bytes.t -> Ast.unop option -> bool array ->
  bool array -> unit

(** Every lane of an int vector converted with [float_of_int], into a
    fresh vector. *)
val to_real : int array -> float array

(** [r.(i) <- f i]: a per-lane function. *)
val fill_v :
  int -> Bytes.t -> Values.value array -> (int -> Values.value) -> unit

(** {2 Gathers and scatters}

    Rank-1 or rank-2 arrays, 1-based subscripts; the second subscript
    of a rank-1 access is the one-cell [[| 1 |]].  Every subscript is
    bounds-checked in dimension order with [Nd.linear_index]'s
    message. *)

(** [r.(i) <- d(ix1.(i), ix2.(i))]. *)
val gather_i : int -> Bytes.t -> int array -> int Nd.t ->
  int array -> int array -> unit

val gather_r : int -> Bytes.t -> float array -> float Nd.t ->
  int array -> int array -> unit

(** [d(ix1.(i), ix2.(i)) <- x.(i)], or [op x.(i) y.(i)] with an [op] of
    [+ - * /] or MOD; the subscript is checked before the value is
    read. *)
val scatter_i : int -> Bytes.t -> int Nd.t -> int array ->
  int array -> Ast.binop option -> int array -> int array -> unit

val scatter_r : int -> Bytes.t -> float Nd.t -> int array ->
  int array -> Ast.binop option -> float array -> float array -> unit

(** {2 Per-lane cells}

    A typed function of the lane index: a fused region's operators
    compose cells, so a whole elementwise chain is one closure per lane
    with no intermediate vector.  A combinator applies the same lane
    function as the kernel of its operator, and answers [None] where
    that kernel has no typed form. *)

type cell = FI of (int -> int) | FR of (int -> float) | FB of (int -> bool)

(** Int lanes promoted to real; [None] for LOGICAL. *)
val real_cell : cell -> (int -> float) option

val binop_cell : Ast.binop -> cell -> cell -> cell option
val unop_cell : Ast.unop -> cell -> cell option

(** [d(f1 i)] or [d(f1 i, f2 i)] of an int or real array, checked;
    [None] for a LOGICAL array.  The caller checks the rank. *)
val gather_cell :
  Values.arr -> (int -> int) -> (int -> int) option -> cell option

(** {2 Reductions}

    The canonical chunked fold: one partial per [chunk]-lane chunk,
    seeded at its first active lane (so a lone NaN or -0.0 survives
    verbatim), then the non-empty partials merged left to right in
    ascending chunk order.  The grid depends only on the lane count, so
    a REAL SUM is bitwise the same at every [-O] level, and equal to the
    boxed fold over the same grid. *)

(** The MAXVAL / MINVAL / SUM folds. *)
type fold = Fold_sum | Fold_max | Fold_min

(** ["sum"], ["maxval"], ["minval"]. *)
val fold_of_key : string -> fold option

(** The lanes per chunk of the fold grid. *)
val chunk : int

(** The chunks of [p] lanes. *)
val nchunks : int -> int

(** Whether [lane_reduce] has a kernel for the reduction [key] of a
    cell: ["any"], ["all"] and ["count"] of LOGICAL cells, ["maxval"],
    ["minval"] and ["sum"] of int or real ones. *)
val reduces : string -> cell -> bool

(** [lane_reduce ~raising key cell bp empty]: the reduction [key] of
    [cell] over the lanes [bp] marks (a real mask, one byte per lane),
    [empty ()] for MAXVAL / MINVAL / SUM when none is.  A [raising] cell
    makes ANY and ALL visit every active lane; otherwise they stop at
    the first deciding lane.
    @raise Invalid_argument unless [reduces key cell]. *)
val lane_reduce :
  raising:bool ->
  string ->
  cell ->
  Bytes.t ->
  (unit -> Values.value) ->
  Values.value
