(** The SIMD virtual machine: a lockstep interpreter for F90simd programs.

    One control unit issues every instruction; [p] lanes execute it under
    the current WHERE mask.  A masked-out processor still steps through
    each operation, which is why [Metrics.steps] counts every vector
    instruction once regardless of active lanes — reproducing the paper's
    execution model and its Eq. 2 vs Eq. 1′ step counts.

    The predefined plural variable [iproc] holds 1..P. *)

open Lf_lang

type entry =
  | VScalar of Values.value ref  (** front-end scalar *)
  | VPlural of Frame.lanes  (** plural scalar, one typed lane vector *)
  | VGlobal of Values.arr  (** global (distributed) array *)
  | VPluralArr of Values.arr  (** per-lane array; leading dim is the lane *)

type proc = t -> mask:bool array -> Pval.t list -> unit
(** External subroutine: receives the VM, the activity mask, and the
    evaluated arguments; one invocation = one vector step. *)

and t = {
  p : int;  (** number of lanes *)
  vars : (string, entry) Hashtbl.t;
  metrics : Metrics.t;
  mutable fuel : int;
  procs : (string, proc) Hashtbl.t;
  funcs : (string, (Values.value list -> Values.value) * bool) Hashtbl.t;
      (** per-lane functions with their purity flag *)
  mutable observer : (t -> mask:bool array -> Ast.stmt -> unit) option;
  mutable deadline : (int * string) option;
      (** monotonic-clock cutoff (ns) and the error a step past it raises *)
  trace : Lf_obs.Trace.t;
      (** per-vector-step event collector; off (one flat branch per
          step, no allocation) until a sink is attached *)
  mutable cur_loc : Errors.pos;
      (** location of the innermost [SLoc]-wrapped statement executing *)
}

val default_fuel : int
val create : ?fuel:int -> p:int -> unit -> t
val register_proc : t -> string -> proc -> unit

(** Install a per-statement observer, called before each assignment or
    CALL with the activity mask and the VM state as of that statement.
    On the compiled engines each call joins and flushes the frame, so
    it is a testing hook (state probes, soundness checks), not a cheap
    one. *)
val set_observer : t -> (t -> mask:bool array -> Ast.stmt -> unit) -> unit

(** Raised with the message given to [set_deadline].  Never located:
    which step the clock runs out at is not a property of the program. *)
exception Timed_out of string

(** Arm a wall-clock cutoff: the first vector or front-end step (where
    fuel is charged, on every engine) after the monotonic clock
    ([Lf_obs.Stats.now_ns]) passes [at_ns] raises [Timed_out msg].
    Without a deadline no step reads the clock; with one a step reads it
    without allocating. *)
val set_deadline : t -> at_ns:int64 -> string -> unit

(** Attach a per-vector-step trace sink; both engines then emit one
    [Lf_obs.Trace] event per vector step (and per reduction), carrying
    the issuing statement's source location and activity mask. *)
val add_trace_sink : t -> Lf_obs.Trace.sink -> unit

(** Register a per-lane function (applied pointwise under the mask when
    any argument is plural).  [pure] (default [false]) promises the
    function has no observable side effects and no dependence on
    application order, which lets the parallel engine apply it
    lane-parallel; impure functions always see the serial ascending
    per-lane order, on every engine. *)
val register_func :
  t -> ?pure:bool -> string -> (Values.value list -> Values.value) -> unit

val full_mask : t -> bool array
val active_count : bool array -> int

(* variable binding *)

val bind_scalar : t -> string -> Values.value -> unit
val bind_global : t -> string -> Values.arr -> unit
val bind_plural_arr : t -> string -> Ast.dtype -> int array -> unit
val find : t -> string -> entry
val find_opt : t -> string -> entry option

(** Copy out a plural scalar (for assertions). *)
val read_plural : t -> string -> Values.value array

(** The storage of a global or plural array. *)
val read_global : t -> string -> Values.arr

(* execution *)

val eval : t -> mask:bool array -> Ast.expr -> Pval.t
val exec : t -> mask:bool array -> Ast.stmt -> unit
val exec_block : t -> mask:bool array -> Ast.block -> unit

(** Allocate declared variables (plural scalars get one slot per lane,
    plural arrays a leading lane dimension); pre-seeded bindings are
    kept. *)
val declare : t -> Ast.decl list -> unit

(** Execution engine: the tree-walking interpreter, the compiled closure
    engine ([Compile] / [Frame]), or the lane-sharded parallel engine
    (the compiled engine dispatching per-lane loops over the [Pool]
    Domain pool) — drop-in replacements producing identical variable
    state, [Metrics], trace events and error messages. *)
type engine = [ `Tree_walk | `Compiled | `Parallel ]

(** Run a program on a fresh VM.  [setup] may pre-bind globals and
    parameters before declarations are processed; [engine] defaults to
    the tree-walker.  [jobs] bounds the [`Parallel] shard count
    (default [Pool.default_jobs ()]; ignored by the serial engines).
    [opt] is the compiled-engine optimizer level (see [Compile.compile];
    default 1, ignored by the tree-walker) — every level is bit-identical
    to every other, only the wall-clock changes.
    [verify] runs the IR verifier after every optimizer phase (compiled
    engines only; see [Compile.compile]); raises [Verify.Error] on a
    broken invariant.
    @raise Invalid_argument when [engine] is [`Parallel] and [jobs < 1]. *)
val run :
  ?fuel:int -> ?engine:engine -> ?jobs:int -> ?opt:int -> ?verify:bool ->
  p:int -> ?setup:(t -> unit) -> Ast.program -> t

(** [run_src] is [run] from source text, optionally through a program
    cache ([Progcache]).  Without [cache] it parses and delegates to
    [run].  With [cache], the run is keyed by [Progcache.key] — (MD5 of
    the source, opt, verify, p): a cold run parses, lowers and optimizes
    exactly as [run] would and stores the parse plus the post-[Opt] IR
    and its frame layout; a warm run skips the whole front end and goes
    straight to emission (compiled engines) or straight to the parsed
    AST (tree-walk), reusing a pooled frame.  Warm and cold runs are
    bit-identical — state, [Metrics], error strings, trace/profile
    events — on every engine at every [-O] level; only the [opt.*]
    compile-time telemetry (and the wall clock) can differ, because the
    optimizer genuinely does not run again.  A run under another key
    than the cache's entry is cold and replaces it. *)
val run_src :
  ?fuel:int -> ?engine:engine -> ?jobs:int -> ?opt:int -> ?verify:bool ->
  ?cache:Progcache.t -> p:int -> ?setup:(t -> unit) -> string -> t

(** The compiled engine's annotated IR for [prog] as JSON (the
    [--dump-ir] payload), without executing anything: lower against the
    same frame name table [run] would use and run the [Opt] pipeline at
    [opt] (default 1), then return the writer that streams the tree to a
    channel with [Ir.write_json].  Lowering and [Opt] run before the
    writer is returned, so their errors come before any output. *)
val dump_ir :
  ?opt:int -> p:int -> ?setup:(t -> unit) -> Ast.program -> out_channel ->
  unit

(** Per-phase variant (the [--dump-ir-phase] payload): the JSON text of
    the annotated IR after each named [Opt] phase, in execution order
    ("lower" first). *)
val dump_ir_phases :
  ?opt:int -> p:int -> ?setup:(t -> unit) -> Ast.program ->
  (string * string) list

(** Standalone verification without executing: lower against the same
    frame name table [run] would use and run the [Opt] pipeline at [opt]
    with [Verify.check_ir] at every phase boundary.
    @raise Verify.Error on a broken invariant. *)
val verify_ir : ?opt:int -> p:int -> ?setup:(t -> unit) -> Ast.program -> unit

(** Same variable table: same names, same entry kinds, equal values.
    Together with [Metrics.equal] this is the engine-equivalence oracle
    used by the differential tests. *)
val state_equal : t -> t -> bool
