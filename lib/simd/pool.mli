(** Lane-sharded execution for the compiled SIMD engine: a persistent
    Domain pool plus the [exec] record.

    Control flow, scalar state, [Metrics], fuel and trace emission stay
    on the calling domain (the paper's single control unit); only the
    per-lane loops fan out, over contiguous chunk-aligned shards of the
    [p] lanes.  A pool-backed executor collects the lane loops issued
    between two cross-lane joins into one {e join region} and runs the
    whole region in one dispatch when the engine reaches the next join
    ([sync]).

    All reductions — in every engine — fold one partial per 64-lane
    {e chunk} and merge partials in ascending chunk order.  The chunk
    grid depends only on [p], never on [jobs], so a float SUM is bitwise
    identical across the tree-walker, the serial compiled engine and the
    parallel engine at any jobs count. *)

val chunk : int
(** Reduction chunk width ([Scalar_ops.chunk], 64 lanes); shard
    boundaries are multiples. *)

val nchunks : int -> int
(** [nchunks p] = number of chunks covering [0, p) (0 when [p = 0]). *)

val min_shard : int
(** The narrowest shard the engine makes, in lanes (512, a multiple of
    [chunk]): below it the join hand-offs cost more than a second domain
    saves on the lane work, as measured by [bench --paired jobs]. *)

val ranges : p:int -> jobs:int -> (int * int) array
(** Partition [0, p) into [min jobs (p / min_shard)] contiguous
    chunk-aligned non-empty half-open shards [(lo, hi)], ascending,
    disjoint, covering, none narrower than {!min_shard} lanes.  A single
    (possibly empty) shard when that count is below 2: [p < 2 *
    min_shard] or [jobs = 1].
    @raise Invalid_argument when [jobs < 1]. *)

type region
(** The pending lane loops of a pool-backed executor. *)

type exec = {
  x_p : int;  (** number of lanes *)
  x_shards : (int * int) array;  (** the shard partition of [0, p) *)
  x_run : (int -> int -> int -> unit) -> unit;
      (** [x_run f] applies [f shard lo hi] to every shard.  An inline
          executor runs it before returning.  A pool-backed one appends
          it to the pending region: it runs at the next [sync], after
          every entry issued before it, on the same lanes.  [f] may only
          touch lanes [lo, hi) of lane vectors and masks; it may read
          global arrays at any element but never write them (a global
          store is a serial run after [sync]). *)
  x_rg : region option;  (** [Some] iff pool-backed *)
}

val nshards : exec -> int

val serial_exec : p:int -> exec
(** One shard, run inline — the serial compiled engine's executor. *)

val parallel_exec : p:int -> jobs:int -> exec
(** Shard over the persistent pool, with the partition [ranges ~p
    ~jobs].  Degenerates to [serial_exec] when the partition has a
    single shard ([jobs = 1] or [p < 2 * min_shard]).  A flush posts [min (nshards - 1) (cores - 1)] workers and drains
    shards itself; with no spare core it runs the shards inline, in
    order.  Workers spin briefly, then block on a condition variable
    between flushes, and are joined at process exit.
    @raise Invalid_argument when [jobs < 1]. *)

val sync : exec -> unit
(** Join: run every pending entry (one dispatch), then raise the error of
    the first failing (entry, shard), if any — the serial engines'
    first failing lane.  A no-op on an inline executor. *)

val issue_loc : exec -> Lf_lang.Errors.pos option
val set_issue_loc : exec -> Lf_lang.Errors.pos option -> unit
(** The innermost located statement now executing; an entry's
    [Runtime_error] is located there.  [None] on an inline executor. *)

val settle : exec -> ('a -> unit) -> 'a -> unit
(** [settle e body x] runs a whole program: [body x], then a final join.
    If [body] raises, the region is still flushed first, and a pending
    lane error — earlier in program order — replaces the exception. *)

val default_jobs : unit -> int
(** [min 8 (Domain.recommended_domain_count ())], at least 1. *)

val shutdown : unit -> unit
(** Quit and join all pool workers (registered [at_exit]; idempotent). *)
