(** One-program cache of a compiled program's front end.

    A [Vm.run] pays parse -> lower -> [Opt.run] -> [Verify.check] on
    every invocation, which dominates wall time for small programs that
    are executed repeatedly (bench sweeps, batch grids).  A cache holds
    that work for one program, the way one control unit runs one
    program: it remembers the {!key} — [(source MD5, opt level, verify
    flag, p)] — its entry was built under.  A run under the same key is
    a hit and gets the parsed AST plus — once lowered — the
    post-[Opt]/post-[Verify] IR and the frame layout it was lowered
    against, so it skips the entire front end and goes straight to
    emission/execution.  A run under any other key is a miss and
    replaces the entry.  Emission never mutates the IR (all annotation
    writes live in [Opt]), which is what makes one cached IR safe to
    re-emit on every warm run.

    One entry suffices because every user re-runs one program: the
    batch driver gives each chain of items that share a key a cache of
    its own, and [simdsim --warm] and the bench cache experiment each
    repeat one source.  One domain at a time uses a cache, so there is
    no locking.

    The entry also pools frames: a released frame is [Frame.reset] and
    handed back on the next warm run, so steady-state warm execution is
    allocation-free up to lane data (scratch vectors persist inside the
    frame).

    Telemetry ([Lf_obs.Stats], recorded only while stats are enabled):
    the [cache.hits]/[cache.misses] counters live in the [Opt] section
    (their values depend on the run mix, not on the engine);
    [cache.warm_saved_ns] is a timer in the volatile section
    crediting, per hit, the front-end nanoseconds measured when the
    entry was built. *)

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
}

(** What makes two runs share a front end.  Keys compare with [=] and
    hash with [Hashtbl.hash]. *)
type key

(** [key ~md5 ~opt ~verify ~p]: [md5] is [Digest.string] of the exact
    source bytes. *)
val key : md5:Digest.t -> opt:int -> verify:bool -> p:int -> key

type t

(** An empty cache. *)
val create : unit -> t

(** The entry if it was built under [key] (a hit), else [None] (a
    miss); bumps the hit/miss counters. *)
val find : t -> key -> entry option

(** Replace the entry with a freshly parsed program built under [key].
    [front_ns] is the measured parse cost so far; lowering cost is added
    later via [add_front_ns]. *)
val insert : t -> key -> front_ns:int64 -> Ast.program -> entry

val add_front_ns : entry -> int64 -> unit

(** Credit [e_front_ns] to the [cache.warm_saved_ns] timer (stats-gated). *)
val credit_warm : entry -> unit

(** Pop a pooled frame (resetting its slots) or create a fresh one for
    [layout]; the caller must [release_frame] it after flushing. *)
val take_frame : entry -> p:int -> string list -> Frame.t

val release_frame : entry -> Frame.t -> unit
