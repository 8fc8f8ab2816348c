(** The SIMD VM's state and the control unit's step accounting: the
    engine ([Compile.emit]) charges every step through [tick_vector],
    [reduction], [call] and [tick_frontend], which keep [Metrics], fuel,
    deadlines, telemetry and trace events together.  It sits below
    [Compile]; [Vm] re-exports it and documents the fields. *)

open Lf_lang
open Values

type entry =
  | VScalar of value ref
  | VPlural of Frame.lanes
  | VGlobal of arr
  | VPluralArr of arr

type proc = t -> mask:bool array -> Pval.t list -> unit

and t = {
  p : int;
  vars : (string, entry) Hashtbl.t;
  metrics : Metrics.t;
  mutable fuel : int;
  procs : (string, proc) Hashtbl.t;
  funcs : (string, value list -> value) Hashtbl.t;
  mutable observer : (t -> mask:bool array -> Ast.stmt -> unit) option;
  mutable deadline : (int * string) option;
  trace : Lf_obs.Trace.t;
  mutable cur_loc : Errors.pos;
}

let create ?(fuel = 50_000_000) ~p () =
  let vm =
    {
      p;
      vars = Hashtbl.create 64;
      metrics = Metrics.create ();
      fuel;
      procs = Hashtbl.create 8;
      funcs = Hashtbl.create 8;
      observer = None;
      deadline = None;
      trace = Lf_obs.Trace.create ();
      cur_loc = Errors.no_pos;
    }
  in
  (* the predefined plural processor index, matching Lf_core.Simdize.iproc *)
  Hashtbl.replace vm.vars "iproc"
    (VPlural (Frame.LInt (Array.init p (fun i -> i + 1))));
  vm

let register_proc vm name f =
  Hashtbl.replace vm.procs (String.lowercase_ascii name) f

(** Install a per-statement observer (a testing hook: state probes and
    soundness checks). *)
let set_observer vm f = vm.observer <- Some f

let register_func vm name f =
  Hashtbl.replace vm.funcs (String.lowercase_ascii name) f

(** Attach a trace sink (see [Lf_obs.Trace]); arms event emission. *)
let add_trace_sink vm sink = Lf_obs.Trace.attach vm.trace sink

exception Timed_out of string

let set_deadline vm ~at_ns msg =
  vm.deadline <- Some (Int64.to_int at_ns, msg)

(* ------------------------------------------------------------------ *)
(* Step accounting                                                     *)
(* ------------------------------------------------------------------ *)

(* Each charge takes the issuing statement's location and the step's
   activity mask; the event's fresh
   [bool array] copy is made only when a trace sink is attached, so a
   charge allocates nothing otherwise. *)

(* Telemetry (all recording is behind one flat [Stats.enabled] branch,
   mirroring the trace sinks): dispatch counts and mask-density buckets
   are [Counters], stable across opt levels by the Metrics
   fusion-invariance contract. *)
module Stats = Lf_obs.Stats

(* One unit of fuel.  The clock is read only while a deadline is armed.
   [Timed_out] is not a [Runtime_error], so no statement wrapper locates
   it. *)
let burn vm =
  vm.fuel <- vm.fuel - 1;
  if vm.fuel <= 0 then Errors.runtime_error "SIMD VM fuel exhausted";
  match vm.deadline with
  | None -> ()
  | Some (at_ns, msg) ->
      if Int64.to_int (Stats.now_ns ()) > at_ns then raise (Timed_out msg)

let emit vm ~loc ~kind (m : Frame.Mask.t) =
  if vm.trace.Lf_obs.Trace.enabled then
    Lf_obs.Trace.emit vm.trace
      {
        loc;
        step = vm.metrics.Metrics.steps;
        active = Frame.Mask.active m;
        p = vm.p;
        kind;
        mask = Frame.Mask.to_bool_array m;
      }

(** One vector step: [Metrics], telemetry, a trace event, one unit of
    fuel and the deadline check. *)
let tick_vector vm ~loc ~kind m =
  let active = Frame.Mask.active m in
  Metrics.vector_step vm.metrics ~active ~p:vm.p;
  if Stats.enabled () then begin
    Stats.incr (Stats.dispatch_counter kind);
    Stats.incr (Stats.mask_counter ~active ~p:vm.p)
  end;
  emit vm ~loc ~kind m;
  burn vm

(** One global reduction tree: counted and traced, but not a step. *)
let reduction vm ~loc m =
  Metrics.reduction vm.metrics;
  if Stats.enabled () then
    Stats.incr (Stats.dispatch_counter Lf_obs.Trace.Reduce);
  emit vm ~loc ~kind:Lf_obs.Trace.Reduce m

(** One external CALL of subroutine [key]: counted, then a vector
    step. *)
let call vm key ~loc m =
  Metrics.call vm.metrics key;
  tick_vector vm ~loc ~kind:Lf_obs.Trace.Call m

(** One control-unit (front-end) step. *)
let tick_frontend vm =
  Metrics.frontend_step vm.metrics;
  if Stats.enabled () then Stats.incr Stats.frontend_counter;
  burn vm

(* ------------------------------------------------------------------ *)
(* Frame synchronization (the compiled engine)                         *)
(* ------------------------------------------------------------------ *)

(** VM variable table -> frame: plural lanes are copied, array and scalar
    storage is shared.  Names absent from the table keep their current
    slot (at run start every slot is [Unbound]). *)
let import_frame vm (frame : Frame.t) =
  for si = 0 to Frame.n_slots frame - 1 do
    match Hashtbl.find_opt vm.vars (Frame.name_of frame si) with
    | None -> ()
    | Some (VScalar r) -> Frame.set frame si (Frame.Scalar r)
    | Some (VPlural l) -> Frame.set frame si (Frame.Plural (Frame.copy_lanes l))
    | Some (VGlobal a) -> Frame.set frame si (Frame.Global a)
    | Some (VPluralArr a) -> Frame.set frame si (Frame.PluralArr a)
  done

(** Frame -> VM variable table: plural lane vectors, array and scalar
    storage are all handed over, not copied.  The frame writes a plural
    slot in place again only until the next flush: a flush before an
    observer exposes each statement's state as it runs, and one before a
    CALL is followed by [import_frame], which gives the frame its own
    copies back. *)
let flush_frame vm (frame : Frame.t) =
  for si = 0 to Frame.n_slots frame - 1 do
    let name = Frame.name_of frame si in
    match Frame.get frame si with
    | Frame.Unbound -> ()
    | Frame.Scalar r -> Hashtbl.replace vm.vars name (VScalar r)
    | Frame.Plural lanes -> Hashtbl.replace vm.vars name (VPlural lanes)
    | Frame.Global a -> Hashtbl.replace vm.vars name (VGlobal a)
    | Frame.PluralArr a -> Hashtbl.replace vm.vars name (VPluralArr a)
  done
