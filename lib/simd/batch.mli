(** Batch run driver: execute a list of (program × p × engine × [-O] ×
    jobs) work items through the program cache ([Progcache]), running
    independent items on several domains and streaming one
    jsonlint-valid manifest-style JSONL record per item.

    The driver exists for sweep workloads — bench grids, corpus replays,
    CI smoke matrices — where the same sources are executed many times
    across configurations: items sharing a cache key pay the front end
    once and run warm afterwards.  Items are isolated: a failing item
    (parse/type/runtime/verify error, fuel exhaustion, timeout, missing
    file) produces a `"status":"error"` record and the driver moves on;
    [run] returns whether any item failed so the CLI can exit 1.

    The work-list format ([items_of_json]) is a JSON array — or an
    object [{"jobs": [...]}] — of items:

    {[
      { "program": "path.f",        (required; source file)
        "p": 8,                     (required; lane count)
        "engine": "compiled",       ("tree-walk" | "compiled" | "parallel";
                                     default "compiled")
        "opt": 1,                   (0..2; default 1)
        "jobs": 2,                  (parallel engine shard bound; default
                                     machine count; serial engines: omit)
        "verify": false,
        "fuel": 50000000,
        "timeout_ms": 1000,         (wall-clock cutoff, checked where
                                     the VM charges fuel)
        "repeat": 3,                (run the item N times — repeats > 1
                                     run warm; default 1)
        "kernel": "nbforce",        (opaque to the library; interpreted
                                     by the caller's [setup])
        "set":  {"k": "8"},         (scalar seeds, as on the simdsim CLI)
        "fill": {"l": "4,1,2,1"} }  (1-D array seeds)
    ]}

    A malformed work list raises [Bad_jobs] (the CLI maps it to the
    usage-error exit 124). *)

open Lf_lang

type item = {
  bi_program : string;
  bi_p : int;
  bi_engine : Vm.engine;
  bi_opt : int;
  bi_jobs : int option;
  bi_verify : bool;
  bi_fuel : int option;
  bi_timeout_ms : int option;
  bi_repeat : int;
  bi_kernel : string option;
  bi_sets : (string * string) list;
  bi_fills : (string * string) list;
}

exception Bad_jobs of string
(** Malformed work list (shape, types, ranges). *)

exception Bad_value of string
(** Malformed [set]/[fill] token; the message names the offending
    token.  Also raised by [scalar_value]/[fill_array], which [simdsim]
    shares for its [--set]/[--fill] flags. *)

(** ["8"] -> [VInt], ["0.5"] -> [VReal], ["true"]/["false"] -> [VBool];
    anything else raises [Bad_value] naming the token (the old behavior
    silently coerced unknown tokens to [VBool false]), as does a decimal
    integer past the int range (it would otherwise read as a REAL). *)
val scalar_value : string -> Values.value

(** Comma-separated literals -> 1-D int array when every item parses as
    int, else 1-D real array; a token that parses as neither, or a
    decimal integer past the int range, raises [Bad_value] naming the
    first such token (the old behavior was an uncaught [Failure] from
    [float_of_string]). *)
val fill_array : string -> Values.arr

val items_of_json : Lf_obs.Json.t -> item list

(** Read and parse a work-list file.  A JSON integer literal past the
    int range is kept as its token, so in ["set"]/["fill"] it fails its
    item with the same [integer out of range] message as the quoted
    form; a real literal such as [1e20] still seeds a REAL.
    @raise Bad_jobs on malformed JSON or a malformed work list. *)
val load : string -> item list

(** Run the items and return [true] iff any item failed.

    Items that share a [Progcache.key] — (source MD5, -O, verify, p) —
    form one {e chain}.  A chain runs in work-list order on one domain,
    with a [Progcache] of its own that is dropped when the chain ends,
    so a chain's first run is its only cold one.  Up to [workers] domains (default
    [Pool.default_jobs ()]) take chains in order of their first item.
    An item that shards its lanes itself (engine [parallel] with more
    than one [Pool.ranges] shard) runs with no other item in flight.
    While the [Lf_obs.Stats] registry is enabled the calling domain is
    the only worker, since the registry's fields are plain mutable ones.

    [read] (default: read the file) supplies source text; it is called
    once per distinct path before any item runs.  Each distinct [fill]
    string is parsed once, and every run binds its own copy of the
    array.  [setup] runs on each item's fresh VM before the seeds are
    bound (the CLI uses it to interpret ["kernel"]).  [read] and
    [setup] may run on any domain, so they must not share unguarded
    mutable state.

    [emit] receives one JSONL record per item (status, timings,
    deterministic [Metrics] payload) in index order, each as soon as it
    and every earlier item are done.  It is called from the worker that
    finished the last of those items, so on any domain, but never twice
    at once.  ["wall_ns"] is the item's own wall time, including any
    contention with the items running beside it.  [artifacts] names a directory
    (created if missing; one that cannot be made, or a path that is not
    a directory, raises [Sys_error] before any item runs) receiving
    [item-NNN.metrics.json] and [item-NNN.state.txt] from each
    successful item's final repeat — deterministic artifacts that
    warm-vs-cold smoke tests byte-compare.  An exception other than an
    item failure (say, from [setup]) is raised after the records of
    every earlier item have been emitted.
    @raise Invalid_argument when [workers < 1]. *)
val run :
  ?read:(string -> string) ->
  ?setup:(item -> Vm.t -> unit) ->
  ?emit:(Lf_obs.Json.t -> unit) ->
  ?artifacts:string ->
  ?workers:int ->
  item list ->
  bool
