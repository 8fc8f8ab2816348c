(** Process-wide telemetry registry: named monotonic counters, gauges
    and timers, shared by the SIMD engine, the optimizer and the
    sequential interpreter.

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
      dump) across engines and [-O] levels for the same program,
      because every tick fires per {e source} operation (the [Metrics]
      fusion-invariance contract).  Per-opcode dispatch counts and
      mask-density buckets live here.
    - {!Opt} — optimizer-dependent: compile-time annotation counts and
      runtime counts of optimized paths taken; expected to differ
      between [-O0] and [-O1].
    - {!Volatile} — exempt from determinism: GC deltas and wall-clock
      timers.  Anything recorded from clocks belongs here.

    {b Domain-safety.}  Metrics are plain mutable fields: record only
    from one domain at a time (the batch driver runs one worker while
    the registry is enabled). *)

type section =
  | Counters  (** stable across engines and opt levels *)
  | Opt  (** varies with [-O] *)
  | Volatile  (** exempt: GC, timers *)

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

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]
(** The monotonic clock (ns); usable even when disabled.  An external,
    so a read allocates nothing in any module (a run-time deadline check
    reads it on every VM step). *)

(* ------------------------------------------------------------------ *)
(* Shared key helpers (every caller must bucket identically)           *)
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
    counter value, timer span count, truncated gauge.  This is the
    fuzzer's coverage signal: an input is "interesting" when it makes a
    counter nonzero that no earlier input reached (new opcode
    dispatched, new mask-density bucket, new optimizer annotation or
    optimized path). *)

val to_json : unit -> Json.t
(** The full registry as one JSON object:
    [{"version": 1, "stability": {...}, "counters": {...},
      "opt": {...}, "volatile": {...}}].
    Keys within each section are sorted, so the dump is byte-stable
    under registration order; the [stability] object marks the
    determinism contract of each section (the [volatile] section — and
    it alone — is exempt from byte identity across runs). *)

val pp : Format.formatter -> unit -> unit
(** Human-readable table, one section per block, keys sorted. *)
