(** Process-wide telemetry registry (see stats.mli for the contract).

    The off state mirrors [Trace]: one global [bool], loaded and
    branched on by every recording entry point, nothing else.  Handles
    are interned in a hashtable guarded by a mutex — registration is
    cold (module init, compile time, CLI setup); recording through a
    handle touches only the handle's own mutable fields and never locks. *)

type section = Counters | Opt | Volatile

let section_key = function
  | Counters -> "counters"
  | Opt -> "opt"
  | Volatile -> "volatile"

(* ------------------------------------------------------------------ *)
(* Global switch                                                       *)
(* ------------------------------------------------------------------ *)

let on = ref false
let enabled () = !on

(* ------------------------------------------------------------------ *)
(* Metric handles                                                      *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; c_section : section; mutable c_v : int }
type gauge = { g_name : string; g_section : section; mutable g_v : float }

type timer = {
  t_name : string;
  t_section : section;
  mutable t_count : int;
  mutable t_total_ns : int64;
  mutable t_max_ns : int64;
}

type metric =
  | MCounter of counter
  | MGauge of gauge
  | MTimer of timer

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let reg_mu = Mutex.create ()

let intern name make classify =
  Mutex.lock reg_mu;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.replace registry name m;
        m
  in
  Mutex.unlock reg_mu;
  match classify m with
  | Some h -> h
  | None -> invalid_arg ("Stats: " ^ name ^ " already registered with another kind")

let counter ?(section = Counters) name =
  intern name
    (fun () -> MCounter { c_name = name; c_section = section; c_v = 0 })
    (function MCounter c -> Some c | _ -> None)

let incr c = if !on then c.c_v <- c.c_v + 1
let add c n = if !on then c.c_v <- c.c_v + n
let counter_value c = c.c_v

let gauge ?(section = Volatile) name =
  intern name
    (fun () -> MGauge { g_name = name; g_section = section; g_v = 0.0 })
    (function MGauge g -> Some g | _ -> None)

let set_gauge g v = if !on then g.g_v <- v
let add_gauge g v = if !on then g.g_v <- g.g_v +. v
let gauge_value g = g.g_v

let timer ?(section = Volatile) name =
  intern name
    (fun () ->
      MTimer
        {
          t_name = name;
          t_section = section;
          t_count = 0;
          t_total_ns = 0L;
          t_max_ns = 0L;
        })
    (function MTimer t -> Some t | _ -> None)

(* The stub [Monotonic_clock.now] wraps, declared as an external so a
   caller in another module gets the reading unboxed: no allocation per
   clock read, even without cross-module inlining. *)
external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let add_span_ns t ns =
  if !on then begin
    t.t_count <- t.t_count + 1;
    t.t_total_ns <- Int64.add t.t_total_ns ns;
    if Int64.compare ns t.t_max_ns > 0 then t.t_max_ns <- ns
  end

let span t f =
  if not !on then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect ~finally:(fun () -> add_span_ns t (Int64.sub (now_ns ()) t0)) f
  end

(* ------------------------------------------------------------------ *)
(* Reset / enable                                                      *)
(* ------------------------------------------------------------------ *)

let reset () =
  Mutex.lock reg_mu;
  Hashtbl.iter
    (fun _ -> function
      | MCounter c -> c.c_v <- 0
      | MGauge g -> g.g_v <- 0.0
      | MTimer t ->
          t.t_count <- 0;
          t.t_total_ns <- 0L;
          t.t_max_ns <- 0L)
    registry;
  Mutex.unlock reg_mu

(* The sequential interpreter cannot reference this module (Lf_lang
   sits below Lf_obs), so its per-statement dispatch counts arrive
   through [Interp.dispatch_hook]; the hook is installed only while the
   registry is enabled, keeping the interpreter at its usual one-branch
   cost otherwise. *)

let interp_counters : (string, counter) Hashtbl.t = Hashtbl.create 16

let interp_hook kind =
  let c =
    match Hashtbl.find_opt interp_counters kind with
    | Some c -> c
    | None ->
        let c = counter ("interp." ^ kind) in
        Hashtbl.replace interp_counters kind c;
        c
  in
  incr c

let enable () =
  on := true;
  Lf_lang.Interp.dispatch_hook := Some interp_hook

let disable () =
  on := false;
  Lf_lang.Interp.dispatch_hook := None

(* ------------------------------------------------------------------ *)
(* Shared key helpers                                                  *)
(* ------------------------------------------------------------------ *)

let c_assign = counter "dispatch.assign"
let c_call = counter "dispatch.call"
let c_where = counter "dispatch.where"
let c_while = counter "dispatch.while"
let c_reduce = counter "dispatch.reduce"
let frontend_counter = counter "dispatch.frontend"

let dispatch_counter = function
  | Trace.Assign -> c_assign
  | Trace.Call -> c_call
  | Trace.Where -> c_where
  | Trace.While -> c_while
  | Trace.Reduce -> c_reduce

let mask_counters =
  [|
    counter "mask.empty";
    counter "mask.q1";
    counter "mask.q2";
    counter "mask.q3";
    counter "mask.q4";
    counter "mask.full";
  |]

let mask_bucket ~active ~p =
  if active >= p then 5
  else if active <= 0 then 0
  else ((4 * active) + p - 1) / p

let mask_counter ~active ~p = mask_counters.(mask_bucket ~active ~p)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let metric_name = function
  | MCounter c -> c.c_name
  | MGauge g -> g.g_name
  | MTimer t -> t.t_name

let metric_section = function
  | MCounter c -> c.c_section
  | MGauge g -> g.g_section
  | MTimer t -> t.t_section

let metric_json = function
  | MCounter c -> Json.Int c.c_v
  | MGauge g -> Json.Float g.g_v
  | MTimer t ->
      Json.Obj
        [
          ("count", Json.Int t.t_count);
          ("total_ns", Json.Int (Int64.to_int t.t_total_ns));
          ("max_ns", Json.Int (Int64.to_int t.t_max_ns));
        ]

let section_members sec =
  Mutex.lock reg_mu;
  let ms =
    Hashtbl.fold
      (fun _ m acc -> if metric_section m = sec then m :: acc else acc)
      registry []
  in
  Mutex.unlock reg_mu;
  List.sort (fun a b -> compare (metric_name a) (metric_name b)) ms

let metric_int_value = function
  | MCounter c -> c.c_v
  | MGauge g -> int_of_float g.g_v
  | MTimer t -> t.t_count

let snapshot ?(sections = [ Counters; Opt ]) () =
  List.concat_map
    (fun sec ->
      List.map (fun m -> (metric_name m, metric_int_value m))
        (section_members sec))
    sections

let schema_version = 1

let to_json () =
  let section sec =
    ( section_key sec,
      Json.Obj (List.map (fun m -> (metric_name m, metric_json m)) (section_members sec)) )
  in
  Json.Obj
    [
      ("version", Json.Int schema_version);
      ( "stability",
        Json.Obj
          [
            ("counters", Json.Str "stable");
            ("opt", Json.Str "varies with -O");
            ("volatile", Json.Str "exempt (GC, timers)");
          ] );
      section Counters;
      section Opt;
      section Volatile;
    ]

let pp ppf () =
  let pp_metric ppf m =
    match m with
    | MCounter c -> Format.fprintf ppf "  %-28s %12d" c.c_name c.c_v
    | MGauge g -> Format.fprintf ppf "  %-28s %12.3f" g.g_name g.g_v
    | MTimer t ->
        Format.fprintf ppf "  %-28s %12d spans  total %Ld ns  max %Ld ns"
          t.t_name t.t_count t.t_total_ns t.t_max_ns
  in
  List.iter
    (fun sec ->
      match section_members sec with
      | [] -> ()
      | ms ->
          Format.fprintf ppf "%s:@." (section_key sec);
          List.iter (fun m -> Format.fprintf ppf "%a@." pp_metric m) ms)
    [ Counters; Opt; Volatile ]
