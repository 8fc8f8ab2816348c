(** The telemetry registry ([Lf_obs.Stats]).

    Three layers of checks:
    - registry units: interning (find-or-create), kind mismatches,
      reset, the mask-density bucketing shared by every engine;
    - the disabled path: with the registry off, every recording entry
      point must be a no-op (the cost-model contract that lets the
      instrumentation stay compiled into the hot paths);
    - the determinism schema, as a QCheck property: for random
      SIMD-dialect programs the [counters] section of the JSON dump is
      byte-identical across engines, [--jobs] and [-O] levels, and the
      [opt] section is byte-identical across [--jobs] at a fixed [-O].
      Only [volatile] is exempt, but its [pool.dispatches] must not
      depend on [-O]: the parallel engine joins at the same points at
      [-O1] and [-O2]. *)

open Helpers
open Lf_lang
module Stats = Lf_obs.Stats
module Json = Lf_obs.Json
module Vm = Lf_simd.Vm

(* every test leaves the registry disabled and zeroed so suites running
   after this one see the default (cold) state *)
let clean f () =
  Fun.protect
    ~finally:(fun () ->
      Stats.disable ();
      Stats.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Registry units                                                      *)
(* ------------------------------------------------------------------ *)

let t_intern () =
  Stats.enable ();
  let a = Stats.counter "test.intern" in
  let b = Stats.counter "test.intern" in
  Stats.incr a;
  Stats.add b 4;
  checki "interned counter is shared" 5 (Stats.counter_value a);
  checki "both handles read the same cell" 5 (Stats.counter_value b);
  Stats.reset ();
  checki "reset zeroes the counter" 0 (Stats.counter_value a)

let t_kind_mismatch () =
  let (_ : Stats.counter) = Stats.counter "test.kind" in
  Alcotest.check_raises "re-registering with another kind"
    (Invalid_argument "Stats: test.kind already registered with another kind")
    (fun () -> ignore (Stats.gauge "test.kind"))

let t_gauge_timer_sharded () =
  Stats.enable ();
  let g = Stats.gauge "test.gauge" in
  Stats.set_gauge g 2.5;
  Stats.add_gauge g 0.5;
  checkb "gauge set+add" (Stats.gauge_value g = 3.0);
  let t = Stats.timer "test.timer" in
  Stats.add_span_ns t 10L;
  Stats.add_span_ns t 30L;
  let v = Stats.span t (fun () -> 42) in
  checki "span returns the thunk's value" 42 v;
  let s = Stats.sharded "test.sharded" in
  Stats.cell_add s ~cell:0 3;
  Stats.cell_add s ~cell:7 4;
  (* out-of-range cells fold into the last cell instead of raising *)
  Stats.cell_add s ~cell:1000 5;
  Stats.cell_add s ~cell:(-2) 1;
  checki "sharded merge sums every cell" 13 (Stats.merged_value s)

let t_span_exception () =
  Stats.enable ();
  let t = Stats.timer "test.span_exn" in
  (try Stats.span t (fun () -> raise Exit) with Exit -> ());
  (* the span is still recorded: read it back through the dump *)
  match Json.member "volatile" (Stats.to_json ()) with
  | Some vol -> (
      match Json.member "test.span_exn" vol with
      | Some (Json.Obj fields) ->
          checkb "span count recorded despite the exception"
            (List.assoc_opt "count" fields = Some (Json.Int 1))
      | _ -> Alcotest.fail "test.span_exn missing from the volatile section")
  | None -> Alcotest.fail "dump has no volatile section"

let t_mask_bucket () =
  let bucket active p = Stats.mask_bucket ~active ~p in
  checki "empty" 0 (bucket 0 8);
  checki "1/8 -> q1" 1 (bucket 1 8);
  checki "2/8 -> q1" 1 (bucket 2 8);
  checki "3/8 -> q2" 2 (bucket 3 8);
  checki "4/8 -> q2" 2 (bucket 4 8);
  checki "5/8 -> q3" 3 (bucket 5 8);
  checki "6/8 -> q3" 3 (bucket 6 8);
  checki "7/8 -> q4" 4 (bucket 7 8);
  checki "8/8 -> full" 5 (bucket 8 8);
  checki "p=0 counts as full" 5 (bucket 0 0);
  checki "1/1024 -> q1" 1 (bucket 1 1024);
  checki "1023/1024 -> q4" 4 (bucket 1023 1024)

let t_dump_shape () =
  let j = Stats.to_json () in
  checkb "version 1" (Json.member "version" j = Some (Json.Int 1));
  (match Json.member "stability" j with
  | Some (Json.Obj fields) ->
      checkb "stability marks volatile as exempt"
        (match List.assoc_opt "volatile" fields with
        | Some (Json.Str s) -> String.length s > 0
        | _ -> false)
  | _ -> Alcotest.fail "dump has no stability object");
  List.iter
    (fun sec ->
      match Json.member sec j with
      | Some (Json.Obj fields) ->
          let keys = List.map fst fields in
          checkb (sec ^ " keys sorted") (keys = List.sort compare keys)
      | _ -> Alcotest.fail ("dump has no " ^ sec ^ " section"))
    [ "counters"; "opt"; "volatile" ]

(* ------------------------------------------------------------------ *)
(* Disabled path: every recording call is a no-op                      *)
(* ------------------------------------------------------------------ *)

let t_disabled_noop () =
  Stats.disable ();
  Stats.reset ();
  let c = Stats.counter "test.off.c" in
  let g = Stats.gauge "test.off.g" in
  let t = Stats.timer "test.off.t" in
  let s = Stats.sharded "test.off.s" in
  Stats.incr c;
  Stats.add c 100;
  Stats.set_gauge g 9.0;
  Stats.add_gauge g 1.0;
  Stats.add_span_ns t 1_000L;
  checki "span still runs the thunk" 7 (Stats.span t (fun () -> 7));
  Stats.cell_add s ~cell:0 5;
  checki "disabled counter stays 0" 0 (Stats.counter_value c);
  checkb "disabled gauge stays 0" (Stats.gauge_value g = 0.0);
  checki "disabled sharded stays 0" 0 (Stats.merged_value s);
  (* and the interpreter hook is not installed *)
  checkb "dispatch hook uninstalled when disabled"
    (!Interp.dispatch_hook = None);
  Stats.enable ();
  checkb "dispatch hook installed when enabled"
    (Option.is_some !Interp.dispatch_hook)

(* ------------------------------------------------------------------ *)
(* Determinism schema over random programs                             *)
(* ------------------------------------------------------------------ *)

let fuel = 20_000
let prop_p = 64

let section_string name =
  match Json.member name (Stats.to_json ()) with
  | Some j -> Json.to_string j
  | None -> QCheck.Test.fail_reportf "stats dump has no %S section" name

(* one configuration, with a fresh registry: run the program (runtime
   errors allowed — the engines abort at the same source operation, so
   the counters accumulated up to the abort must still agree) and
   return the serialized [counters] and [opt] sections *)
let run_config ?jobs ?opt engine prog =
  Stats.reset ();
  Stats.enable ();
  let ok =
    match
      Vm.run ~fuel ~engine ?jobs ?opt ~p:prop_p
        ~setup:(Gen.simd_prog_setup ~p:prop_p)
        prog
    with
    | (_ : Vm.t) -> true
    | exception (Errors.Runtime_error _ | Errors.Runtime_error_at _) -> false
  in
  let counters = section_string "counters" in
  let opt_s = section_string "opt" in
  Stats.disable ();
  (ok, counters, opt_s)

(* [pool.dispatches] of a 2-job parallel run at [-O opt].  At [prop_p]
   lanes the partition has a single shard and never dispatches, so this
   runs two chunks wide. *)
let dispatches ~opt prog =
  let p = 2 * Lf_simd.Pool.chunk in
  Stats.reset ();
  Stats.enable ();
  (match
     Vm.run ~fuel ~engine:`Parallel ~jobs:2 ~opt ~p
       ~setup:(Gen.simd_prog_setup ~p) prog
   with
  | (_ : Vm.t) -> ()
  | exception (Errors.Runtime_error _ | Errors.Runtime_error_at _) -> ());
  let n =
    Stats.counter_value
      (Stats.counter ~section:Stats.Volatile "pool.dispatches")
  in
  Stats.disable ();
  n

let prop_counters_deterministic prog =
  let configs =
    [
      ("tree-walk", run_config `Tree_walk prog);
      ("compiled -O0", run_config ~opt:0 `Compiled prog);
      ("compiled -O1", run_config ~opt:1 `Compiled prog);
      ("compiled -O2", run_config ~opt:2 `Compiled prog);
      ("parallel -O1 j1", run_config ~jobs:1 ~opt:1 `Parallel prog);
      ("parallel -O1 j2", run_config ~jobs:2 ~opt:1 `Parallel prog);
      ("parallel -O1 j7", run_config ~jobs:7 ~opt:1 `Parallel prog);
      ("parallel -O2 j2", run_config ~jobs:2 ~opt:2 `Parallel prog);
      ("parallel -O2 j7", run_config ~jobs:7 ~opt:2 `Parallel prog);
    ]
  in
  let name_ref, (ok_ref, counters_ref, _) = List.hd configs in
  List.iter
    (fun (name, (ok, counters, _)) ->
      if ok <> ok_ref then
        QCheck.Test.fail_reportf "%s vs %s: outcome diverged on@.%s" name_ref
          name
          (Pretty.program_to_string prog);
      if counters <> counters_ref then
        QCheck.Test.fail_reportf
          "%s vs %s: counters section diverged on@.%s@.%s@.vs@.%s" name_ref
          name
          (Pretty.program_to_string prog)
          counters_ref counters)
    configs;
  (* the [opt] section is jobs-invariant at a fixed -O level — at -O2
     that includes the discharge counters [opt.nocheck_runs] and
     [opt.bounds_checks_discharged], whose recording sites must count
     claim applications on the control thread, never per shard *)
  let opt_of name = match List.assoc name configs with _, _, o -> o in
  let check_opt ref_name others =
    let o_ref = opt_of ref_name in
    List.iter
      (fun name ->
        if opt_of name <> o_ref then
          QCheck.Test.fail_reportf "%s vs %s: opt section diverged on@.%s"
            ref_name name
            (Pretty.program_to_string prog))
      others
  in
  check_opt "compiled -O1"
    [ "parallel -O1 j1"; "parallel -O1 j2"; "parallel -O1 j7" ];
  check_opt "compiled -O2" [ "parallel -O2 j2"; "parallel -O2 j7" ];
  (* -O2's range claims only choose a checked or an unchecked kernel, so
     a different dispatch count is a lost or an extra join *)
  let d1 = dispatches ~opt:1 prog and d2 = dispatches ~opt:2 prog in
  if d1 <> d2 then
    QCheck.Test.fail_reportf
      "parallel j2: %d dispatches at -O1, %d at -O2 on@.%s" d1 d2
      (Pretty.program_to_string prog);
  true

(* ------------------------------------------------------------------ *)
(* The -O2 discharge counters on the flattened-loop shape              *)
(* ------------------------------------------------------------------ *)

(* a stride-8 flattened loop whose store provably stays in [1, n]: the
   range phase discharges its bounds checks, so every discharge counter
   moves — and must move by the same amount on every engine and jobs
   count *)
let flat_src =
  "at1 = 1 + (iproc - 1)\n\
   WHILE (any(at1 <= n))\n\
  \  WHERE (at1 <= n)\n\
  \    f(at1) = f(at1) + 1.0\n\
  \    at1 = at1 + 8\n\
  \  ENDWHERE\n\
   ENDWHILE"

let t_opt2_counters () =
  let prog = Ast.program "flat" (Parser.block_of_string flat_src) in
  let setup vm =
    Vm.bind_scalar vm "n" (Values.VInt 8);
    Vm.bind_global vm "f" (Values.AReal (Nd.create [| 8 |] 0.0))
  in
  let snapshot ?jobs engine =
    Stats.reset ();
    Stats.enable ();
    ignore (Vm.run ~engine ?jobs ~opt:2 ~verify:true ~p:8 ~setup prog : Vm.t);
    let v name = Stats.counter_value (Stats.counter ~section:Stats.Opt name) in
    let r =
      ( v "opt.nocheck_runs",
        v "opt.bounds_checks_discharged",
        v "opt.range_sites",
        v "verify.phases",
        v "verify.checks" )
    in
    Stats.disable ();
    r
  in
  let (nruns, nchecks, rsites, vphases, vchecks) as compiled =
    snapshot `Compiled
  in
  checkb "bounds checks discharged" (nruns > 0 && nchecks > 0);
  checkb "range claims annotated" (rsites > 0);
  checkb "the verifier checked every phase boundary" (vphases >= 5);
  checkb "the verifier discharged checks" (vchecks > 0);
  List.iter
    (fun jobs ->
      checkb
        (Fmt.str "opt counters jobs-invariant at jobs=%d" jobs)
        (snapshot ~jobs `Parallel = compiled))
    [ 1; 2; 7 ]

let t_determinism =
  qcheck_case ~count:60
    "counters byte-identical across engines/jobs/-O; opt across jobs"
    Gen.simd_prog_gen
    (fun prog ->
      Fun.protect
        ~finally:(fun () ->
          Stats.disable ();
          Stats.reset ())
        (fun () -> prop_counters_deterministic prog))

let suite =
  [
    case "interning finds-or-creates; reset zeroes" (clean t_intern);
    case "kind mismatch raises" (clean t_kind_mismatch);
    case "gauges, timers, sharded cells" (clean t_gauge_timer_sharded);
    case "span records through exceptions" (clean t_span_exception);
    case "mask-density bucketing" t_mask_bucket;
    case "JSON dump shape and key order" (clean t_dump_shape);
    case "disabled path is a no-op" (clean t_disabled_noop);
    case "-O2 discharge counters move and are jobs-invariant"
      (clean t_opt2_counters);
    t_determinism;
  ]
