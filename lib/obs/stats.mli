(** Process-wide telemetry registry: named monotonic counters, gauges,
    timers and per-shard accumulators, shared by all three SIMD engines,
    the optimizer, the Domain pool and the sequential interpreter.

    {b Cost model.}  The registry mirrors the trace-sink design
    ([Trace.enabled]): every recording entry point loads one global
    [bool] and branches — a disabled registry performs no allocation, no
    hashing, no clock reads, so instrumentation can stay compiled into
    the hot paths permanently.  Metric handles are interned once (by
    name) at module-initialization or call-site-setup time; recording
    through a handle is a field update.

    {b Determinism contract.}  Metrics live in one of three sections,
    declared at registration and embedded in the JSON schema:

    - {!Counters} — {e stable}: identical (byte-for-byte in the JSON
      dump) across engines, [--jobs] and [-O] levels for the same
      program, because every tick fires on the control thread per
      {e source} operation (the [Metrics] fusion-invariance contract).
      Per-opcode dispatch counts and mask-density buckets live here.
    - {!Opt} — {e jobs-invariant} but optimizer-dependent: compile-time
      annotation counts and control-thread runtime counts of optimized
      paths taken.  Identical across [--jobs]; expected to differ
      between [-O0] and [-O1].
    - {!Volatile} — exempt from determinism: GC deltas, pool health,
      wall-clock timers.  Anything recorded from worker domains or from
      clocks belongs here.

    {b Domain-safety.}  Counters, gauges and timers must only be
    recorded from the control thread.  Worker domains record through
    {!sharded} accumulators: one cell per pool participant, written
    exclusively by that participant during a dispatch (the pool's join
    provides the happens-before edge), merged in ascending cell order at
    read time so the merged value is deterministic for a fixed cell
    assignment. *)

type section =
  | Counters  (** stable across engines, jobs and opt levels *)
  | Opt  (** jobs-invariant, varies with [-O] *)
  | Volatile  (** exempt: GC, pool health, timers *)

(* ------------------------------------------------------------------ *)
(* Global switch                                                       *)
(* ------------------------------------------------------------------ *)

val enabled : unit -> bool
(** One global flag; when [false] every recording call is a single flat
    branch. *)

val enable : unit -> unit
(** Arm recording and install the sequential interpreter's dispatch
    hook ([Lf_lang.Interp.dispatch_hook]). *)

val disable : unit -> unit
(** Disarm recording and remove the interpreter hook.  Values are
    retained (read them with {!to_json} / {!pp}); use {!reset} to
    clear. *)

val reset : unit -> unit
(** Zero every registered metric (registrations are kept). *)

(* ------------------------------------------------------------------ *)
(* Metric handles                                                      *)
(* ------------------------------------------------------------------ *)

type counter
type gauge
type timer
type sharded

val counter : ?section:section -> string -> counter
(** Intern (find or create) the named monotonic counter.  The section
    defaults to {!Counters} and is fixed by the first registration. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : ?section:section -> string -> gauge
(** Gauges default to {!Volatile}. *)

val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val timer : ?section:section -> string -> timer
(** Monotonic-clock span accumulators ([count], [total_ns], [max_ns]);
    default section {!Volatile}. *)

val span : timer -> (unit -> 'a) -> 'a
(** Time the thunk (monotonic clock) and record the span — when the
    registry is enabled; otherwise the thunk runs with zero overhead
    beyond the flag branch.  Exceptions propagate; the span is still
    recorded. *)

val add_span_ns : timer -> int64 -> unit

val sharded : ?section:section -> string -> sharded
(** A per-participant cell array (one cell per pool participant, index 0
    = the control thread); default section {!Volatile}. *)

val cell_add : sharded -> cell:int -> int -> unit
(** Add into one participant's cell.  Safe to call concurrently from
    distinct participants; out-of-range cells fold into the last cell. *)

val merged_value : sharded -> int
(** Sum of the cells in ascending cell order. *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]
(** The monotonic clock (ns); usable even when disabled.  An external,
    so a read allocates nothing in any module (a run-time deadline check
    reads it on every VM step). *)

(* ------------------------------------------------------------------ *)
(* Shared key helpers (both engines must bucket identically)           *)
(* ------------------------------------------------------------------ *)

val dispatch_counter : Trace.kind -> counter
(** The per-opcode dispatch counter for a vector-step kind
    ([dispatch.assign], [dispatch.call], ...); interned statically so
    tick sites pay no lookup. *)

val frontend_counter : counter
(** [dispatch.frontend]: scalar control-unit steps. *)

val mask_bucket : active:int -> p:int -> int
(** Density bucket of an activity mask: 0 = empty, 1-4 = quartiles
    ((0,25%], (25,50%], (50,75%], (75,100%)), 5 = full.  [p = 0] masks
    count as full. *)

val mask_counter : active:int -> p:int -> counter
(** The interned counter for {!mask_bucket} ([mask.empty], [mask.q1],
    ..., [mask.full]). *)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

val snapshot : ?sections:section list -> unit -> (string * int) list
(** A flat, name-sorted [(name, value)] view of the registry restricted
    to [sections] (default [[Counters; Opt]], i.e. the deterministic
    sections).  Values are the natural integer reading of each metric:
    counter value, timer span count, sharded merged value, truncated
    gauge.  This is the fuzzer's coverage signal: an input is
    "interesting" when it makes a counter nonzero that no earlier input
    reached (new opcode dispatched, new mask-density bucket, new
    optimizer annotation or optimized path). *)

val to_json : unit -> Json.t
(** The full registry as one JSON object:
    [{"version": 1, "stability": {...}, "counters": {...},
      "opt": {...}, "volatile": {...}}].
    Keys within each section are sorted, so the dump is byte-stable
    under registration order; the [stability] object marks the
    determinism contract of each section (the [volatile] section — and
    it alone — is exempt from cross-jobs byte identity). *)

val pp : Format.formatter -> unit -> unit
(** Human-readable table, one section per block, keys sorted. *)
