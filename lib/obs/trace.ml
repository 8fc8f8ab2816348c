(** Per-vector-step trace events and pluggable sinks.

    Every vector instruction the SIMD control unit issues — and every
    global reduction tree it fires — can be reported as one {!event}
    carrying the source location of the statement that issued it, the
    ordinal of the vector step, and the activity mask.  Aggregating the
    events reproduces the [Metrics] counters exactly (one [is_step] event
    per [Metrics.steps], one [Reduce] event per [Metrics.reductions]),
    which is what lets the per-line divergence profile tie out against
    the aggregate counters.

    The collector is designed for a zero-overhead off state: the engines
    guard every emission site with a single flat [bool] ([enabled]), so a
    VM with no sinks attached pays one predictable branch per vector step
    and allocates nothing. *)

open Lf_lang

(** What kind of control-unit action produced the event.  [Assign] is a
    plural assignment, [Call] an external subroutine step, [Where] a mask
    split (WHERE, or the plural IF that executes as WHERE), [While] a
    vector-controlled WHILE condition test, [Reduce] a global reduction
    tree (ANY/ALL/MAXVAL/MINVAL/SUM/COUNT).  [Reduce] events do not
    consume a vector step. *)
type kind =
  | Assign
  | Call
  | Where
  | While
  | Reduce

let kind_to_string = function
  | Assign -> "assign"
  | Call -> "call"
  | Where -> "where"
  | While -> "while"
  | Reduce -> "reduce"

type event = {
  loc : Errors.pos;  (** source position of the issuing statement *)
  step : int;  (** value of [Metrics.steps] after this event *)
  active : int;  (** lanes doing useful work *)
  p : int;  (** machine width *)
  kind : kind;
  mask : bool array;  (** per-lane activity (length [p]) *)
}

(** [true] for events that consumed a vector step (everything except
    reductions, which piggyback on the step of their statement). *)
let is_step ev = ev.kind <> Reduce

type sink = event -> unit

type t = {
  mutable enabled : bool;
  mutable sinks : sink list;
}

let create () = { enabled = false; sinks = [] }

(** Attach a sink and arm the collector. *)
let attach t sink =
  t.sinks <- t.sinks @ [ sink ];
  t.enabled <- true

let detach_all t =
  t.sinks <- [];
  t.enabled <- false

let emit t ev = List.iter (fun sink -> sink ev) t.sinks

(* ------------------------------------------------------------------ *)
(* Streaming sinks                                                     *)
(* ------------------------------------------------------------------ *)

(** Accumulate every event, in order.  The differential engine tests use
    this to compare the exact event streams of the two SIMD engines. *)
module Log = struct
  type log = { mutable events : event list (* reversed *) }

  let create () = { events = [] }
  let sink l : sink = fun ev -> l.events <- ev :: l.events
  let to_list l = List.rev l.events
end

let event_to_json ev : Json.t =
  Json.Obj
    [
      ("line", Json.Int ev.loc.Errors.line);
      ("col", Json.Int ev.loc.Errors.col);
      ("step", Json.Int ev.step);
      ("active", Json.Int ev.active);
      ("p", Json.Int ev.p);
      ("kind", Json.Str (kind_to_string ev.kind));
    ]

(** Stream events to a channel as JSON lines (one object per event). *)
let jsonl_sink oc : sink =
 fun ev ->
  output_string oc (Json.to_string (event_to_json ev));
  output_char oc '\n'

let equal_event a b =
  a.loc = b.loc && a.step = b.step && a.active = b.active && a.p = b.p
  && a.kind = b.kind && a.mask = b.mask

let pp_event ppf ev =
  Fmt.pf ppf "[%a] step=%d %s active=%d/%d" Errors.pp_pos ev.loc ev.step
    (kind_to_string ev.kind) ev.active ev.p
