(** Content-addressed cache of compiled-program front ends.

    A [Vm.run] pays parse -> lower -> [Opt.run] -> [Verify.check] on
    every invocation, which dominates wall time for small programs that
    are executed repeatedly (bench sweeps, fuzz corpora, batch grids).
    This cache keys that work by {e content}: [(source MD5, dialect, opt
    level, verify flag, p)].  A hit returns the parsed AST plus — once
    lowered — the post-[Opt]/post-[Verify] IR and the frame layout it
    was lowered against, so a warm run skips the entire front end and
    goes straight to emission/execution.  Emission never mutates the IR
    (all annotation writes live in [Opt]), which is what makes one
    cached IR safe to re-emit on every warm run.

    Entries also pool frames: a released frame is [Frame.reset] and
    handed back on the next warm run, so steady-state warm execution is
    allocation-free up to lane data (scratch vectors persist inside the
    frame).

    Replacement is LRU, bounded by both entry count and an estimated
    byte budget.  One domain at a time uses a cache (the parallel engine
    shards lanes internally and never touches it; the batch driver gives
    each chain of items a cache of its own), so there is no locking.

    Telemetry ([Lf_obs.Stats], recorded only while stats are enabled):
    [cache.hits]/[cache.misses]/[cache.evictions] counters and the
    [cache.bytes] gauge (the bytes inserted and not evicted, summed over
    every cache) live in the jobs-invariant [Opt] section (their values
    depend on the run mix and cache configuration, not on the shard
    count); [cache.warm_saved_ns] is a timer in the volatile
    section crediting, per hit, the front-end nanoseconds measured when
    the entry was built. *)

open Lf_lang

type entry = {
  e_prog : Ast.program;  (** parse result for the cached source *)
  e_ast_names : string list;  (** [Compile.var_names e_prog], precomputed *)
  mutable e_lowered : (string list * Ir.block) option;
      (** (frame layout, post-[Opt] IR): present once a compiled-engine
          run lowered the program; the layout records the exact frame
          name list (AST names plus setup-seeded extras) the IR's slot
          numbering is valid for *)
  mutable e_front_ns : int64;
      (** measured front-end cost (parse + lower) paid building this
          entry; credited to [cache.warm_saved_ns] on every hit *)
  mutable e_frames : Frame.t list;  (** reusable frame pool *)
  e_bytes : int;  (** deterministic size estimate used for the budget *)
}

type t

(** [create ()] makes an empty cache.  [max_entries] (default 128)
    bounds the entry count; [max_bytes] (default 64 MiB) bounds the sum
    of the entries' size estimates.  Whichever is exceeded first evicts
    least-recently-used entries. *)
val create : ?max_entries:int -> ?max_bytes:int -> unit -> t

val length : t -> int
val bytes : t -> int

(** Lookup by content key; bumps recency and the hit/miss counters. *)
val find :
  t -> src:string -> dialect:string -> opt:int -> verify:bool -> p:int ->
  entry option

(** Insert a freshly parsed program (replacing any entry under the same
    key), evicting LRU entries as needed.  [front_ns] is the measured
    parse cost so far; lowering cost is added later via [add_front_ns]. *)
val insert :
  t -> src:string -> dialect:string -> opt:int -> verify:bool -> p:int ->
  front_ns:int64 -> Ast.program -> entry

val add_front_ns : entry -> int64 -> unit

(** Credit [e_front_ns] to the [cache.warm_saved_ns] timer (stats-gated). *)
val credit_warm : entry -> unit

(** Pop a pooled frame (resetting its slots) or create a fresh one for
    [layout]; the caller must [release_frame] it after flushing. *)
val take_frame : entry -> p:int -> string list -> Frame.t

val release_frame : entry -> Frame.t -> unit
