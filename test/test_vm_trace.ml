(** Cross-validation of the paper's trace figures against actual VM
    execution: observing the body statement's activity mask while the
    compiled EXAMPLE runs reproduces Figures 4/6 cell for cell. *)

open Helpers
open Lf_lang
open Ast
module E = Lf_kernels.Example_kernel

(** Run a SIMDized EXAMPLE program on a 2-lane VM, recording, at every
    execution of the body statement (the assignment to x), each active
    lane's (local i, j). *)
let record_body_trace prog =
  let trace : (int * int) option list list ref = ref [] in
  let setup vm =
    Lf_simd.Vm.bind_scalar vm "k" (Values.VInt 8);
    Lf_simd.Vm.bind_scalar vm "p" (Values.VInt 2);
    Lf_simd.Vm.bind_global vm "l" (Values.AInt (Nd.of_array paper_l));
    Lf_simd.Vm.bind_global vm "x" (Values.AInt (Nd.create [| 8; 4 |] 0));
    Lf_simd.Vm.set_observer vm (fun vm ~mask s ->
        match s with
        | SAssign ({ lv_name = "x"; _ }, _) ->
            let lane_val name lane =
              match Lf_simd.Vm.find vm name with
              | Lf_simd.Vm.VPlural vs ->
                  Values.as_int (Lf_simd.Frame.lane_value vs lane)
              | Lf_simd.Vm.VScalar r -> Values.as_int !r
              | _ -> Alcotest.fail (name ^ " has unexpected shape")
          in
            let row =
              List.init 2 (fun lane ->
                  if mask.(lane) then
                    let gi =
                      (* the flattened code uses the global index i; the
                         naive code uses the auxiliary i_p *)
                      if Lf_simd.Vm.find_opt vm "i_p" <> None then
                        lane_val "i_p" lane
                      else lane_val "i" lane
                  in
                    Some (gi - (lane * 4), lane_val "j" lane)
                  else None)
          in
            trace := row :: !trace
        | _ -> ())
  in
  ignore (Lf_simd.Vm.run ~p:2 ~setup prog : Lf_simd.Vm.t);
  List.rev !trace

let cells_of_trace rows =
  let n = List.length rows in
  Array.init 2 (fun lane ->
      Array.init n (fun t -> List.nth (List.nth rows t) lane))

let derive target =
  let p = Parser.program_of_string Lf_report.Experiments.example_source in
  let opts =
    {
      Lf_core.Pipeline.default_options with
      assume_inner_nonempty = true;
      target =
        Lf_core.Pipeline.Simd
          { decomp = Lf_core.Simdize.Block; p = EVar "p" };
    }
  in
  match
    if target = `Flat then Lf_core.Pipeline.flatten_program ~opts p
    else Lf_core.Pipeline.simdize_program_naive ~opts p
  with
  | Ok o -> o.Lf_core.Pipeline.program
  | Error e -> Alcotest.fail e

let t_flattened_vm_trace () =
  let rows = record_body_trace (derive `Flat) in
  checki "8 body steps" 8 (List.length rows);
  let cells = cells_of_trace rows in
  let expected = (E.paper_flattened ()).E.cells in
  checkb "VM occupancy equals Figure 4's schedule" (cells = expected)

let t_naive_vm_trace () =
  let rows = record_body_trace (derive `Naive) in
  checki "12 body steps" 12 (List.length rows);
  let cells = cells_of_trace rows in
  let expected = (E.paper_simd ()).E.cells in
  checkb "VM occupancy equals Figure 6's schedule" (cells = expected)

(* ------------------------------------------------------------------ *)
(* Observability layer: trace streams, sinks, profiles                 *)
(* ------------------------------------------------------------------ *)

module Trace = Lf_obs.Trace

(** The flattened EXAMPLE (P = 2), parsed from text so every statement
    carries a source location for the trace events to report. *)
let traced_src =
  {|PROGRAM example
  INTEGER k
  PLURAL INTEGER i
  PLURAL INTEGER j
  INTEGER l(k)
  REAL x(k)
  i = 1 + (iproc - 1)
  j = 1
  WHILE (any(i <= k))
    WHERE (i <= k)
      x(i) = x(i) + i * 10 + j
      WHERE (j == l(i))
        i = i + 2
        j = 1
      ELSEWHERE
        j = j + 1
      ENDWHERE
    ENDWHERE
  ENDWHILE
END|}

let run_traced ?(p = 2) ~opt sinks =
  let prog = Parser.program_of_string traced_src in
  Lf_simd.Vm.run ~opt ~p
    ~setup:(fun vm ->
      Lf_simd.Vm.bind_scalar vm "k" (Values.VInt 8);
      Lf_simd.Vm.bind_scalar vm "p" (Values.VInt p);
      Lf_simd.Vm.bind_global vm "l" (Values.AInt (Nd.of_array paper_l));
      List.iter (Lf_simd.Vm.add_trace_sink vm) sinks)
    prog

(* differential: -O0 and -O1 emit the exact same event stream *)
let t_engines_trace_identical () =
  let log_t = Trace.Log.create () and log_c = Trace.Log.create () in
  let vm_t = run_traced ~opt:0 [ Trace.Log.sink log_t ] in
  let vm_c = run_traced ~opt:1 [ Trace.Log.sink log_c ] in
  checkb "states equal" (Lf_simd.Vm.state_equal vm_t vm_c);
  checkb "metrics equal"
    (Lf_simd.Metrics.equal vm_t.Lf_simd.Vm.metrics vm_c.Lf_simd.Vm.metrics);
  let et = Trace.Log.to_list log_t and ec = Trace.Log.to_list log_c in
  checki "same number of events" (List.length et) (List.length ec);
  List.iter2
    (fun a b ->
      checkb
        (Fmt.str "event %a = %a" Trace.pp_event a Trace.pp_event b)
        (Trace.equal_event a b))
    et ec;
  checkb "every event carries a source line"
    (List.for_all (fun e -> e.Trace.loc.Errors.line > 0) et);
  (* the event stream reproduces the aggregate counters exactly *)
  let m = vm_t.Lf_simd.Vm.metrics in
  checki "one event per vector step" m.Lf_simd.Metrics.steps
    (List.length (List.filter Trace.is_step et));
  checki "one event per reduction" m.Lf_simd.Metrics.reductions
    (List.length (List.filter (fun e -> not (Trace.is_step e)) et))

(* the per-line profile's totals reproduce the metrics, at every level *)
let t_profile_ties_out () =
  List.iter
    (fun opt ->
      let prof = Lf_obs.Profile.create () in
      let vm = run_traced ~opt [ Lf_obs.Profile.sink prof ] in
      checkb "profile totals reproduce the metrics"
        (Lf_report.Obs_report.check_totals prof vm.Lf_simd.Vm.metrics);
      let rows = Lf_obs.Profile.rows_by_line prof in
      checkb "profile has per-line rows" (List.length rows > 3);
      let n_lines =
        List.length (String.split_on_char '\n' traced_src)
      in
      checkb "every row is a real source line"
        (List.for_all
           (fun (s : Lf_obs.Profile.line_stat) ->
             s.Lf_obs.Profile.line >= 1 && s.Lf_obs.Profile.line <= n_lines)
           rows);
      (* and the rendered table carries a totals row *)
      let buf = Buffer.create 512 in
      let ppf = Fmt.with_buffer buf in
      Lf_report.Obs_report.profile_table ~source:traced_src ppf prof;
      Fmt.flush ppf ();
      checkb "table has a totals row"
        (Astring_contains.contains (Buffer.contents buf) "total"))
    [ 0; 1 ]

(* fused execution still ticks Metrics per original operator: at -O1
   (fused reductions, scatter-accumulate, scratch reuse all fire on this
   program) the profile totals tie out against the metrics exactly as
   they do at -O0, and the two levels agree on metrics, state and the
   full event stream *)
let t_profile_ties_out_optimized () =
  let log0 = Trace.Log.create () and log1 = Trace.Log.create () in
  let vm0 = run_traced ~opt:0 [ Trace.Log.sink log0 ] in
  let prof = Lf_obs.Profile.create () in
  let vm1 =
    run_traced ~opt:1 [ Trace.Log.sink log1; Lf_obs.Profile.sink prof ]
  in
  checkb "-O1 profile totals reproduce the -O1 metrics"
    (Lf_report.Obs_report.check_totals prof vm1.Lf_simd.Vm.metrics);
  checkb "-O1 metrics = -O0 metrics"
    (Lf_simd.Metrics.equal vm0.Lf_simd.Vm.metrics vm1.Lf_simd.Vm.metrics);
  checkb "-O1 state = -O0 state" (Lf_simd.Vm.state_equal vm0 vm1);
  let e0 = Trace.Log.to_list log0 and e1 = Trace.Log.to_list log1 in
  checki "-O1 emits the -O0 event stream" (List.length e0) (List.length e1);
  List.iter2
    (fun a b -> checkb "-O0/-O1 events identical" (Trace.equal_event a b))
    e0 e1

(* occupancy: streaming downsampling keeps its invariants even when the
   run overflows the bucket array many times *)
let t_occupancy_downsampling () =
  let occ = Lf_obs.Occupancy.create ~width:3 ~p:2 () in
  let vm = run_traced ~opt:1 [ Lf_obs.Occupancy.sink occ ] in
  checki "every vector step recorded"
    vm.Lf_simd.Vm.metrics.Lf_simd.Metrics.steps
    occ.Lf_obs.Occupancy.steps;
  checkb "bucket count bounded by 2*width"
    (occ.Lf_obs.Occupancy.nbuckets <= 6);
  let covered =
    Array.fold_left ( + ) 0
      (Array.sub occ.Lf_obs.Occupancy.steps_in_bucket 0
         occ.Lf_obs.Occupancy.nbuckets)
  in
  checki "buckets cover all steps" occ.Lf_obs.Occupancy.steps covered;
  let m = Lf_obs.Occupancy.matrix occ in
  checki "one row per lane" 2 (Array.length m);
  Array.iter
    (Array.iter
       (fun frac -> checkb "occupancy fraction in [0,1]" (frac >= 0.0 && frac <= 1.0)))
    m

(* JSON printer/parser round-trip, including the event serialization *)
let t_json_roundtrip () =
  let module J = Lf_obs.Json in
  let v =
    J.Obj
      [
        ("a", J.Int 42);
        ("b", J.List [ J.Float 0.5; J.Str "x\"y\n"; J.Bool true; J.Null ]);
        ("c", J.Obj [ ("nested", J.Int (-7)) ]);
      ]
  in
  (match J.parse (J.to_string v) with
  | Ok v' -> checkb "round-trip preserves the value" (v = v')
  | Error m -> Alcotest.fail m);
  let log = Trace.Log.create () in
  let _vm = run_traced ~opt:1 [ Trace.Log.sink log ] in
  List.iter
    (fun ev ->
      match J.parse (J.to_string (Trace.event_to_json ev)) with
      | Ok (J.Obj fields) ->
          checkb "event JSON has the line field"
            (List.assoc_opt "line" fields
            = Some (J.Int ev.Trace.loc.Errors.line))
      | Ok _ -> Alcotest.fail "event JSON is not an object"
      | Error m -> Alcotest.fail m)
    (Trace.Log.to_list log)

(* with no sink attached the collector stays disarmed *)
let t_trace_disabled_by_default () =
  let prog = Parser.program_of_string traced_src in
  let vm =
    Lf_simd.Vm.run ~p:2
      ~setup:(fun vm ->
        Lf_simd.Vm.bind_scalar vm "k" (Values.VInt 8);
        Lf_simd.Vm.bind_scalar vm "p" (Values.VInt 2);
        Lf_simd.Vm.bind_global vm "l" (Values.AInt (Nd.of_array paper_l)))
      prog
  in
  checkb "collector disarmed" (not vm.Lf_simd.Vm.trace.Trace.enabled)

(* MIMD per-line attribution: per-processor step counts sum per line *)
let t_mimd_line_steps () =
  let prog =
    Parser.program_of_string
      "PROGRAM count\n  INTEGER n, i, s\n  s = 0\n  DO i = 1, n\n    s = s + \
       i\n  ENDDO\nEND"
  in
  let setup proc ctx =
    Env.set ctx.Interp.env "n" (Values.VInt ((proc + 1) * 3))
  in
  let res = Lf_mimd.Mimd_vm.run ~p:2 ~profile:true ~setup prog in
  checkb "profiled run reports lines"
    (res.Lf_mimd.Mimd_vm.line_steps <> []);
  checkb "per-line arrays are per-processor"
    (List.for_all
       (fun (_, a) -> Array.length a = 2)
       res.Lf_mimd.Mimd_vm.line_steps);
  (* summing a processor's column over all lines gives its step count *)
  Array.iteri
    (fun proc steps ->
      let total =
        List.fold_left
          (fun acc (_, a) -> acc + a.(proc))
          0 res.Lf_mimd.Mimd_vm.line_steps
      in
      checki (Fmt.str "processor %d fully attributed" proc) steps total)
    res.Lf_mimd.Mimd_vm.steps;
  checkb "unequal partitions give unequal times"
    (res.Lf_mimd.Mimd_vm.steps.(0) < res.Lf_mimd.Mimd_vm.steps.(1));
  checki "time is the max" res.Lf_mimd.Mimd_vm.steps.(1)
    res.Lf_mimd.Mimd_vm.time;
  let plain = Lf_mimd.Mimd_vm.run ~p:2 ~setup prog in
  checkb "profiling is off by default"
    (plain.Lf_mimd.Mimd_vm.line_steps = [])

(* QCheck: on random flattened programs, -O0 and -O1 emit identical
   trace streams — also on the error path, where the prefixes up to the
   failure must agree *)
let run_engine_traced ~opt (en : Gen.exec_nest) p_lanes prog =
  let log = Trace.Log.create () in
  let maxl = Array.fold_left max 1 en.Gen.l in
  match
    Lf_simd.Vm.run ~opt ~p:p_lanes
      ~setup:(fun vm ->
        Lf_simd.Vm.bind_scalar vm "p" (Values.VInt p_lanes);
        Lf_simd.Vm.bind_scalar vm "k" (Values.VInt en.Gen.k);
        Lf_simd.Vm.bind_scalar vm "acc" (Values.VInt 0);
        Lf_simd.Vm.bind_global vm "l" (Values.AInt (Nd.of_array en.Gen.l));
        Lf_simd.Vm.bind_global vm "x"
          (Values.AInt (Nd.create [| en.Gen.k; maxl |] 0));
        Lf_simd.Vm.add_trace_sink vm (Trace.Log.sink log))
      prog
  with
  | _vm -> Ok (Trace.Log.to_list log)
  | exception (Errors.Runtime_error _ | Errors.Runtime_error_at _) ->
      Error (Trace.Log.to_list log)

let t_trace_streams_random =
  qcheck_case ~count:100
    "differential: engines emit identical trace streams (random nests)"
    Test_fuzz.simd_gen
    (fun ((en : Gen.exec_nest), p_lanes) ->
      let prog = Ast.program "fuzz" en.Gen.src_block in
      let opts =
        {
          Lf_core.Pipeline.default_options with
          assume_inner_nonempty = en.Gen.inner_nonempty;
          trusted_parallel = true;
          target =
            Lf_core.Pipeline.Simd
              { decomp = Lf_core.Simdize.Block; p = EInt p_lanes };
        }
      in
      match Lf_core.Pipeline.flatten_program ~opts prog with
      | Error _ -> true
      | Ok o -> (
          let simd = o.Lf_core.Pipeline.program in
          let t = run_engine_traced ~opt:0 en p_lanes simd in
          let c = run_engine_traced ~opt:1 en p_lanes simd in
          let streams_equal a b =
            List.length a = List.length b
            && List.for_all2 Trace.equal_event a b
          in
          match (t, c) with
          | Ok a, Ok b | Error a, Error b ->
              streams_equal a b
              || QCheck.Test.fail_reportf "trace streams diverged on@.%s"
                   (Pretty.program_to_string simd)
          | Ok _, Error _ | Error _, Ok _ ->
              QCheck.Test.fail_reportf
                "-O0 and -O1 disagreed on success on@.%s"
                (Pretty.program_to_string simd)))

let suite =
  [
    case "flattened VM trace = Figure 4" t_flattened_vm_trace;
    case "naive VM trace = Figure 6" t_naive_vm_trace;
    case "engines emit identical trace streams" t_engines_trace_identical;
    case "profile totals reproduce the metrics" t_profile_ties_out;
    case "profile ties out and stream is identical at -O1"
      t_profile_ties_out_optimized;
    case "occupancy downsampling invariants" t_occupancy_downsampling;
    case "JSON round-trip (values and events)" t_json_roundtrip;
    case "trace collector disarmed by default" t_trace_disabled_by_default;
    case "MIMD per-line step attribution" t_mimd_line_steps;
    t_trace_streams_random;
  ]
