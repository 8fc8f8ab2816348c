(** Batch run driver: execute a list of (program × p × engine × [-O] ×
    jobs) work items through one shared program cache ([Progcache]),
    streaming one jsonlint-valid manifest-style JSONL record per item.

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
        "timeout_ms": 1000,         (wall-clock cutoff, enforced between
                                     vector steps via the VM observer)
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
    silently coerced unknown tokens to [VBool false]). *)
val scalar_value : string -> Values.value

(** Comma-separated literals -> 1-D int array when every item parses as
    int, else 1-D real array; a token that parses as neither raises
    [Bad_value] naming it (the old behavior was an uncaught [Failure]
    from [float_of_string]). *)
val fill_array : string -> Values.arr

val items_of_json : Lf_obs.Json.t -> item list
val load : string -> item list

(** Run the items in order.  [cache] defaults to a fresh
    [Progcache.create ()] shared across all items; [read] (default
    file-system read, memoized per path) supplies source text; [setup]
    runs on each item's fresh VM before the seeds are bound (the CLI
    uses it to interpret ["kernel"]); each distinct [fill] string is
    parsed once per call, and every run binds its own copy of the
    array; [emit] receives one JSONL record
    per item (status, timings, deterministic [Metrics] payload);
    [artifacts] names a directory (created if missing) receiving
    [item-NNN.metrics.json] and [item-NNN.state.txt] from each
    successful item's final repeat — deterministic artifacts that
    warm-vs-cold smoke tests byte-compare.  Returns [true] iff any item
    failed. *)
val run :
  ?cache:Progcache.t ->
  ?read:(string -> string) ->
  ?setup:(item -> Vm.t -> unit) ->
  ?emit:(Lf_obs.Json.t -> unit) ->
  ?artifacts:string ->
  item list ->
  bool
