(* simdsim: run a pseudo-Fortran program on the simulated machines.

   Scalars are seeded with --set name=value; arrays are allocated from the
   program's declarations (whose dimensions may reference seeded scalars)
   and zero-initialized, or filled with --fill name=v0,v1,... .  After the
   run, --dump name prints a variable, and the execution metrics are
   reported.

   Observability: --trace streams one JSON line per vector step, --profile
   prints the per-line divergence profile and lane-occupancy heatmap (and
   checks that its totals reproduce the aggregate metrics exactly),
   --metrics-json / --occupancy-json / --chrome write machine-readable
   dumps (the Chrome file opens in Perfetto, one track per lane).

   --kernel nbforce binds the MD workload the test-suite uses (pairlist,
   force function, n/maxp parameters), so the original or flattened
   NBFORCE source runs as-is; --compare-mimd additionally runs the
   original Figure 13 kernel on the asynchronous MIMD model with a block
   decomposition and reports TIME_SIMD vs TIME_MIMD per source region.

   Examples (in examples/fortran):
     dune exec bin/flattenc.exe -- --target simd -p 4 \
       --assume-inner-nonempty example.f > example_simd.f
     dune exec bin/flattenc.exe -- --target simd -p 8 \
       --assume-inner-nonempty nbforce.f > nbforce_flat_simd.f
     dune exec bin/simdsim.exe -- --lanes 4 --set k=8 \
       --fill l=4,1,2,1,1,3,1,3 --dump x example_simd.f
     dune exec bin/simdsim.exe -- --seq --set k=8 example.f
     dune exec bin/simdsim.exe -- --lanes 8 --kernel nbforce --profile \
       --compare-mimd nbforce_flat_simd.f *)

open Cmdliner
open Lf_lang
module Obs = Lf_report.Obs_report
module Src = Lf_kernels.Nbforce_src

let parse_binding s =
  match String.index_opt s '=' with
  | None ->
      raise (Lf_simd.Batch.Bad_value (s ^ ": expected name=value"))
  | Some i ->
      ( String.lowercase_ascii (String.sub s 0 i),
        String.sub s (i + 1) (String.length s - i - 1) )

(* Seed-value parsing is shared with the batch driver; a malformed
   token raises [Batch.Bad_value] naming it, which the driver below
   maps to the usage-error exit 124 (it used to escape as an uncaught
   Failure backtrace from float_of_string). *)
let scalar_value = Lf_simd.Batch.scalar_value
let fill_array = Lf_simd.Batch.fill_array

let write_out path f = Input_file.write_or_exit ~tool:"simdsim" path f

(* [path] gets the JSON [write] streams, then a newline. *)
let write_json_with path write =
  write_out path (fun oc ->
      write oc;
      output_char oc '\n')

let write_json path json =
  write_json_with path (fun oc -> Lf_obs.Json.to_channel oc json)

(* ------------------------------------------------------------------ *)
(* NBFORCE kernel mode                                                 *)
(* ------------------------------------------------------------------ *)

(* The same MD system the end-to-end tests run: a sod cluster and its
   cell-list pairlist. *)
let nbforce_workload atoms =
  let mol = Lf_md.Workload.sod ~n:atoms ~seed:13 () in
  let pl = Lf_md.Workload.pairlist mol ~cutoff:7.0 in
  (mol, pl)

(* Bind the workload into a SIMD VM: force function (and the CALL-variant
   onef), the n/maxp parameters, and the pcnt/partners/f arrays. *)
let setup_nbforce_simd (mol, pl) vm =
  let n, maxp = Src.params pl in
  Lf_simd.Vm.register_func vm ~pure:true "force" (Src.force_fn mol);
  Lf_simd.Vm.register_proc vm "onef" (Src.onef_simd mol);
  Lf_simd.Vm.bind_scalar vm "n" (Values.VInt n);
  Lf_simd.Vm.bind_scalar vm "maxp" (Values.VInt maxp);
  Src.bind_arrays pl ~n ~maxp ~set_global:(fun name a ->
      Lf_simd.Vm.bind_global vm name a)

let setup_nbforce_seq (mol, pl) ctx =
  let n, maxp = Src.params pl in
  Interp.register_func ctx "force" (Src.force_fn mol);
  Interp.register_proc ctx "onef" (Src.onef_seq mol);
  Env.set ctx.Interp.env "n" (Values.VInt n);
  Env.set ctx.Interp.env "maxp" (Values.VInt maxp);
  Src.bind_arrays pl ~n ~maxp ~set_global:(fun name a ->
      Env.set ctx.Interp.env name (Values.VArr a))

let max_abs_err reference f =
  let err = ref 0.0 in
  Array.iteri (fun i r -> err := Float.max !err (Float.abs (f.(i) -. r))) reference;
  !err

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run path seq engine jobs lanes olevel dump_ir dump_ir_phase verify_ir
    sets fills dumps kernel atoms trace_file profile metrics_json
    occupancy_json chrome_file compare_mimd lint stats stats_json manifest
    warm =
  try
    if warm > 0 && seq then begin
      Fmt.epr "simdsim: --warm requires a SIMD engine (drop --seq)@.";
      raise Exit
    end;
    if stats || Option.is_some stats_json || Option.is_some manifest then
      Lf_obs.Stats.enable ();
    if Option.is_some jobs && engine <> `Parallel then begin
      Fmt.epr "simdsim: --jobs requires --engine parallel@.";
      raise Exit
    end;
    if Option.is_some dump_ir && seq then begin
      Fmt.epr "simdsim: --dump-ir requires a SIMD engine (drop --seq)@.";
      raise Exit
    end;
    if Option.is_some dump_ir_phase && seq then begin
      Fmt.epr
        "simdsim: --dump-ir-phase requires a SIMD engine (drop --seq)@.";
      raise Exit
    end;
    if verify_ir && seq then begin
      Fmt.epr "simdsim: --verify-ir requires a SIMD engine (drop --seq)@.";
      raise Exit
    end;
    let src = Input_file.read_or_exit ~tool:"simdsim" path in
    let prog = Parser.program_of_string src in
    if lint then begin
      let report = Lf_analysis.Lint.check_program prog in
      List.iter
        (fun d ->
          Fmt.epr "%a"
            (Lf_analysis.Lint.pp_diag_with_context ~file:path ~source:src ())
            d)
        report.Lf_analysis.Lint.diags;
      if not report.Lf_analysis.Lint.safe then begin
        Fmt.epr "simdsim: refusing to run %s: lint errors@." path;
        raise Exit
      end
    end;
    let sets = List.map parse_binding sets in
    let fills = List.map parse_binding fills in
    let workload =
      match kernel with
      | Some `Nbforce -> Some (nbforce_workload atoms)
      | None -> None
    in
    if compare_mimd && Option.is_none workload then begin
      Fmt.epr "simdsim: --compare-mimd requires --kernel nbforce@.";
      raise Exit
    end;
    if seq then begin
      let line_table : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let t0 = Lf_obs.Stats.now_ns () in
      let c0 = Sys.time () in
      let ctx =
        Interp.run
          ~params:(List.map (fun (k, v) -> (k, scalar_value v)) sets)
          ~setup:(fun ctx ->
            if profile then
              ctx.Interp.step_hook <-
                Some
                  (fun loc ->
                    let l = loc.Errors.line in
                    Hashtbl.replace line_table l
                      (1
                      + Option.value ~default:0
                          (Hashtbl.find_opt line_table l)));
            Option.iter (fun w -> setup_nbforce_seq w ctx) workload;
            List.iter
              (fun (k, v) ->
                Env.set ctx.Interp.env k (Values.VArr (fill_array v)))
              fills)
          prog
      in
      let wall_ns = Int64.sub (Lf_obs.Stats.now_ns ()) t0 in
      let cpu_s = Sys.time () -. c0 in
      Fmt.pr "sequential run: %d interpreter steps@." ctx.Interp.steps;
      if stats then Fmt.pr "@.%a" Lf_obs.Stats.pp ();
      Option.iter (fun f -> write_json f (Lf_obs.Stats.to_json ())) stats_json;
      Option.iter
        (fun f ->
          write_json f
            (Lf_obs.Manifest.to_json
               (Lf_obs.Manifest.make ~program:path ~source:src ~engine:"seq"
                  ~opt:0 ~jobs:1 ~p:1 ~wall_ns ~cpu_s
                  ~metrics:
                    (Lf_obs.Json.Obj
                       [ ("steps", Lf_obs.Json.Int ctx.Interp.steps) ])
                  ~stats:(Lf_obs.Stats.to_json ()))))
        manifest;
      if profile then begin
        let rows =
          Hashtbl.fold (fun l c acc -> (l, [| c |]) :: acc) line_table []
          |> List.sort compare
        in
        Obs.mimd_line_table ~source:src Fmt.stdout rows
      end;
      List.iter
        (fun name ->
          Fmt.pr "%s = %a@." name Values.pp (Env.find ctx.Interp.env name))
        dumps;
      0
    end
    else begin
      let need_profile = profile || compare_mimd in
      let prof = if need_profile then Some (Lf_obs.Profile.create ()) else None in
      let occ =
        if profile || Option.is_some occupancy_json then
          Some (Lf_obs.Occupancy.create ~p:lanes ())
        else None
      in
      let chrome =
        Option.map (fun _ -> Lf_obs.Chrome.create ~p:lanes) chrome_file
      in
      let trace_oc =
        Option.map
          (fun f ->
            if f = "-" then stdout
            else Input_file.open_out_or_exit ~tool:"simdsim" f)
          trace_file
      in
      let bind_inputs vm =
        Lf_simd.Vm.bind_scalar vm "p" (Values.VInt lanes);
        Option.iter (fun w -> setup_nbforce_simd w vm) workload;
        List.iter
          (fun (k, v) -> Lf_simd.Vm.bind_scalar vm k (scalar_value v))
          sets;
        List.iter
          (fun (k, v) -> Lf_simd.Vm.bind_global vm k (fill_array v))
          fills
      in
      Option.iter
        (fun f ->
          let dump =
            Lf_simd.Vm.dump_ir ~opt:olevel ~p:lanes ~setup:bind_inputs prog
          in
          if f = "-" then begin
            (* after any pending formatter output, as Fmt.pr would *)
            Format.print_flush ();
            dump stdout;
            print_char '\n';
            flush stdout
          end
          else write_json_with f dump)
        dump_ir;
      Option.iter
        (fun dir ->
          (if not (Sys.file_exists dir) then
             try Sys.mkdir dir 0o755
             with Sys_error msg -> Input_file.fail ~tool:"simdsim" dir msg);
          let phases =
            Lf_simd.Vm.dump_ir_phases ~opt:olevel ~p:lanes
              ~setup:bind_inputs prog
          in
          List.iteri
            (fun i (name, json) ->
              write_json_with
                (Filename.concat dir (Fmt.str "%02d-%s.json" i name))
                (fun oc -> output_string oc json))
            phases)
        dump_ir_phase;
      if verify_ir then begin
        try Lf_simd.Vm.verify_ir ~opt:olevel ~p:lanes ~setup:bind_inputs prog
        with Lf_simd.Verify.Error diags ->
          List.iter
            (fun d ->
              Fmt.epr "%a"
                (Lf_analysis.Lint.pp_diag_with_context ~file:path
                   ~source:src ())
                d)
            diags;
          Fmt.epr "simdsim: IR verification failed for %s@." path;
          raise Exit
      end;
      let attach_sinks vm =
        Option.iter
          (fun p -> Lf_simd.Vm.add_trace_sink vm (Lf_obs.Profile.sink p))
          prof;
        Option.iter
          (fun o -> Lf_simd.Vm.add_trace_sink vm (Lf_obs.Occupancy.sink o))
          occ;
        Option.iter
          (fun c -> Lf_simd.Vm.add_trace_sink vm (Lf_obs.Chrome.sink c))
          chrome;
        Option.iter
          (fun oc -> Lf_simd.Vm.add_trace_sink vm (Lf_obs.Trace.jsonl_sink oc))
          trace_oc
      in
      let t0 = Lf_obs.Stats.now_ns () in
      let c0 = Sys.time () in
      let vm =
        if warm = 0 then
          Lf_simd.Vm.run ~engine ?jobs ~opt:olevel ~verify:verify_ir
            ~p:lanes
            ~setup:(fun vm ->
              bind_inputs vm;
              attach_sinks vm)
            prog
        else begin
          (* --warm N: one cold run followed by N warm runs through a
             process-local program cache; every artifact (metrics,
             dumps, traces, profile) comes from the LAST — warm — run,
             so byte-comparing against a cold run's artifacts checks
             the cache's bit-identity contract end to end. *)
          let cache = Lf_simd.Progcache.create () in
          let last = ref None in
          for i = 0 to warm do
            last :=
              Some
                (Lf_simd.Vm.run_src ~engine ?jobs ~opt:olevel
                   ~verify:verify_ir ~cache ~p:lanes
                   ~setup:(fun vm ->
                     bind_inputs vm;
                     if i = warm then attach_sinks vm)
                   src)
          done;
          Option.get !last
        end
      in
      let wall_ns = Int64.sub (Lf_obs.Stats.now_ns ()) t0 in
      let cpu_s = Sys.time () -. c0 in
      Option.iter
        (fun oc -> if oc != stdout then close_out oc else flush oc)
        trace_oc;
      let engine_name =
        match engine with
        | `Tree_walk -> "tree-walk"
        | `Compiled -> "compiled"
        | `Parallel -> "parallel"
      in
      let opt_used = match engine with `Tree_walk -> 0 | _ -> olevel in
      let jobs_used =
        match engine with
        | `Parallel ->
            Option.value jobs ~default:(Lf_simd.Pool.default_jobs ())
        | _ -> 1
      in
      let metrics = vm.Lf_simd.Vm.metrics in
      Fmt.pr "SIMD run on %d lanes: %a@." lanes Lf_simd.Metrics.pp metrics;
      Option.iter
        (fun (mol, pl) ->
          match Lf_simd.Vm.read_global vm "f" with
          | Values.AReal f ->
              let err = max_abs_err (Src.reference mol pl) (Nd.to_array f) in
              Fmt.pr "nbforce forces vs reference: max abs error %.3g@." err;
              if err > 1e-9 then begin
                Fmt.epr "simdsim: nbforce forces disagree with reference@.";
                raise Exit
              end
          | _ -> Errors.runtime_error "f is not a REAL array")
        workload;
      if profile then begin
        let p = Option.get prof in
        Fmt.pr "@.per-line divergence profile (worst first):@.";
        Obs.profile_table ~source:src Fmt.stdout p;
        Option.iter
          (fun o ->
            Fmt.pr "@.";
            Obs.heatmap Fmt.stdout o)
          occ
      end;
      (match prof with
      | Some p ->
          if not (Obs.check_totals p metrics) then begin
            Fmt.epr
              "simdsim: profile totals do not reproduce the aggregate \
               metrics@.";
            raise Exit
          end
          else if profile then
            Fmt.pr "profile totals tie out with aggregate metrics@."
      | None -> ());
      if compare_mimd then begin
        let w = Option.get workload in
        let mol, pl = w in
        let mimd, f_mimd = Obs.run_nbforce_mimd w ~p:lanes in
        let err = max_abs_err (Src.reference mol pl) f_mimd in
        Fmt.pr "@.MIMD run on %d processors (block decomposition): %d steps \
                (max over processors)@."
          lanes mimd.Lf_mimd.Mimd_vm.time;
        Fmt.pr "MIMD forces vs reference: max abs error %.3g@." err;
        if err > 1e-9 then begin
          Fmt.epr "simdsim: MIMD forces disagree with reference@.";
          raise Exit
        end;
        Fmt.pr "@.per-line MIMD step attribution (original Figure 13 \
                source):@.";
        Obs.mimd_line_table ~source:Src.source Fmt.stdout
          mimd.Lf_mimd.Mimd_vm.line_steps;
        Fmt.pr "@.TIME_SIMD vs TIME_MIMD per source region:@.";
        Obs.region_table Fmt.stdout ~simd_src:src ~prof:(Option.get prof)
          ~metrics ~mimd
      end;
      if stats then Fmt.pr "@.%a" Lf_obs.Stats.pp ();
      Option.iter (fun f -> write_json f (Lf_obs.Stats.to_json ())) stats_json;
      Option.iter
        (fun f ->
          write_json f
            (Lf_obs.Manifest.to_json
               (Lf_obs.Manifest.make ~program:path ~source:src
                  ~engine:engine_name ~opt:opt_used ~jobs:jobs_used ~p:lanes
                  ~wall_ns ~cpu_s
                  ~metrics:
                    (Lf_simd.Metrics.to_json ~engine:engine_name ~opt:opt_used
                       ~jobs:jobs_used metrics)
                  ~stats:(Lf_obs.Stats.to_json ()))))
        manifest;
      Option.iter
        (fun path ->
          write_json path
            (Lf_simd.Metrics.to_json ~engine:engine_name ~opt:opt_used
               ~jobs:jobs_used metrics))
        metrics_json;
      Option.iter
        (fun path ->
          write_json path (Lf_obs.Occupancy.to_json (Option.get occ)))
        occupancy_json;
      Option.iter
        (fun path ->
          write_out path (fun oc ->
              output_string oc (Lf_obs.Chrome.contents (Option.get chrome))))
        chrome_file;
      List.iter
        (fun name ->
          match Lf_simd.Vm.find vm name with
          | Lf_simd.Vm.VScalar r -> Fmt.pr "%s = %a@." name Values.pp !r
          | Lf_simd.Vm.VPlural vs ->
              Fmt.pr "%s = %a@." name Lf_simd.Pval.pp (Lf_simd.Pval.Plural vs)
          | Lf_simd.Vm.VGlobal a | Lf_simd.Vm.VPluralArr a ->
              Fmt.pr "%s = %a@." name Values.pp (Values.VArr a))
        dumps;
      0
    end
  with
  | Exit -> 1
  | Lf_simd.Batch.Bad_value msg ->
      (* malformed --set/--fill token: a usage error, same exit code as
         cmdliner's own CLI errors *)
      Fmt.epr "simdsim: %s@." msg;
      124
  | Lf_simd.Verify.Error diags ->
      List.iter
        (fun d ->
          Fmt.epr "%a" (Lf_analysis.Lint.pp_diag ~file:path ()) d)
        diags;
      Fmt.epr "simdsim: IR verification failed@.";
      1
  | ( Errors.Lex_error _ | Errors.Parse_error _ | Errors.Type_error _
    | Errors.Runtime_error _ | Errors.Runtime_error_at _ ) as e ->
      Fmt.epr "simdsim: %s@." (Errors.to_message e);
      1

let cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Program to run ('-' for stdin).")
  in
  let seq =
    Arg.(
      value & flag
      & info [ "seq" ] ~doc:"Run on the sequential interpreter instead.")
  in
  let engine =
    let engine_conv =
      Arg.enum
        [
          ("tree-walk", `Tree_walk);
          ("compiled", `Compiled);
          ("parallel", `Parallel);
        ]
    in
    Arg.(
      value
      & opt engine_conv `Tree_walk
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "SIMD execution engine: $(b,tree-walk) (the reference \
             interpreter), $(b,compiled) (slot-resolved closures; same \
             results, faster) or $(b,parallel) (the compiled engine with \
             lanes sharded over a Domain pool; see $(b,--jobs)).  All \
             three produce bit-identical state, metrics, traces and \
             errors.")
  in
  let jobs =
    let jobs_conv =
      let parse s =
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | Some n ->
            Error (`Msg (Fmt.str "invalid jobs count %d: must be >= 1" n))
        | None -> Error (`Msg (Fmt.str "invalid jobs count %S" s))
      in
      Arg.conv (parse, Fmt.int)
    in
    Arg.(
      value
      & opt (some jobs_conv) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Shard count for $(b,--engine parallel): the lanes are split \
             into at most $(docv) contiguous shards (chunk-aligned, so \
             results do not depend on $(docv)).  Requires $(b,--engine \
             parallel); defaults to the machine's recommended domain \
             count.")
  in
  let lanes =
    Arg.(
      value
      & opt (Cli.int_at_least ~name:"p" 1) 4
      & info [ "lanes" ] ~doc:"SIMD lane count (P), at least 1.")
  in
  let olevel =
    let olevel_conv =
      let parse s =
        match int_of_string_opt s with
        | Some n when n >= 0 && n <= 2 -> Ok n
        | Some n ->
            Error
              (`Msg
                (Fmt.str "invalid optimizer level %d: expected 0, 1 or 2" n))
        | None -> Error (`Msg (Fmt.str "invalid optimizer level %S" s))
      in
      Arg.conv (parse, Fmt.int)
    in
    Arg.(
      value
      & opt olevel_conv 1
      & info [ "O"; "opt-level" ] ~docv:"LEVEL"
          ~doc:
            "Compiled-engine optimizer level: $(b,0) runs the unoptimized \
             per-operator closures, $(b,1) (the default) enables fused \
             reductions, merged scatter-accumulates and scratch-slot \
             reuse, $(b,2) adds value-range analysis (bounds-check discharge on \
             gathers and scatters).  All levels \
             are bit-identical on state, metrics, traces and errors; only \
             the wall-clock changes.  Ignored by $(b,tree-walk) and \
             $(b,--seq).")
  in
  let dump_ir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-ir" ] ~docv:"FILE"
          ~doc:
            "Write the compiled engine's annotated IR (after the $(b,-O) \
             pipeline) as JSON to $(docv) ('-' for stdout) before running.  \
             Requires a SIMD engine (conflicts with $(b,--seq)).")
  in
  let dump_ir_phase =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-ir-phase" ] ~docv:"DIR"
          ~doc:
            "Write the annotated IR after $(i,every) optimizer phase as \
             one JSON file per phase ($(i,NN-name.json), in pipeline \
             order) into $(docv), creating it if needed.  Phases the \
             $(b,-O) level does not run are omitted.  Requires a SIMD \
             engine (conflicts with $(b,--seq)).")
  in
  let verify_ir =
    Arg.(
      value & flag
      & info [ "verify-ir" ]
          ~doc:
            "Run the typed IR verifier after lowering and after every \
             optimizer phase (slot typing, def-before-use, scratch \
             interference, mask shapes, and every $(b,-O2) range claim \
             re-proved from scratch); print \
             rule-coded diagnostics and exit 1 on a broken invariant.  \
             Requires a SIMD engine (conflicts with $(b,--seq)).")
  in
  let sets =
    Arg.(
      value
      & opt_all string []
      & info [ "set" ] ~docv:"NAME=VALUE" ~doc:"Seed a scalar variable.")
  in
  let fills =
    Arg.(
      value
      & opt_all string []
      & info [ "fill" ] ~docv:"NAME=V0,V1,..."
          ~doc:"Seed a one-dimensional array.")
  in
  let dumps =
    Arg.(
      value
      & opt_all string []
      & info [ "dump" ] ~docv:"NAME" ~doc:"Print a variable after the run.")
  in
  let kernel =
    let kernel_conv = Arg.enum [ ("nbforce", `Nbforce) ] in
    Arg.(
      value
      & opt (some kernel_conv) None
      & info [ "kernel" ] ~docv:"KERNEL"
          ~doc:
            "Bind a built-in workload before the run.  $(b,nbforce) binds \
             the MD pairlist, the force/onef routines and the n/maxp \
             parameters, so the original or flattened NBFORCE kernel runs \
             as-is; forces are checked against the sequential reference.")
  in
  let atoms = Cli.atoms ~doc:"Number of atoms for --kernel nbforce." in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Stream one JSON line per vector step (source line, step \
             ordinal, active lanes, kind) to $(docv) ('-' for stdout).")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print the per-line divergence profile and the lane-occupancy \
             heatmap, and check that the profile totals reproduce the \
             aggregate metrics exactly.")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Write the aggregate execution metrics as JSON to $(docv).")
  in
  let occupancy_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "occupancy-json" ] ~docv:"FILE"
          ~doc:"Write the lane-occupancy timeline as JSON to $(docv).")
  in
  let chrome_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event file (one track per lane; opens \
             in Perfetto / chrome://tracing) to $(docv).")
  in
  let compare_mimd =
    Arg.(
      value & flag
      & info [ "compare-mimd" ]
          ~doc:
            "With --kernel nbforce: also run the original Figure 13 \
             kernel on the asynchronous MIMD model (block decomposition, \
             one name space per processor) and report TIME_SIMD vs \
             TIME_MIMD per source region.")
  in
  let lint =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Run the flatten-safety lint before executing and refuse \
             (exit 1) on lint errors.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Enable the engine telemetry registry for the run and print \
             it afterwards: per-opcode dispatch counts, mask-density \
             buckets, optimizer and pool-health counters, GC deltas and \
             the run timer, grouped by determinism class.")
  in
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Enable the telemetry registry and write its dump as JSON to \
             $(docv).  The $(b,counters) section is byte-identical across \
             engines, $(b,--jobs) and $(b,-O) levels; $(b,opt) varies \
             only with $(b,-O); $(b,volatile) (GC, pool health, timers) \
             is exempt from any determinism guarantee.")
  in
  let manifest =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Write a run manifest to $(docv): program path, MD5 and size, \
             engine, $(b,-O) level, jobs, lanes, wall/CPU time, the \
             execution metrics and the full telemetry dump — one \
             self-contained JSON record tying a result to the exact \
             configuration that produced it.")
  in
  let warm =
    let warm_conv =
      let parse s =
        match int_of_string_opt s with
        | Some n when n >= 0 -> Ok n
        | Some n -> Error (`Msg (Fmt.str "invalid warm count %d: must be >= 0" n))
        | None -> Error (`Msg (Fmt.str "invalid warm count %S" s))
      in
      Arg.conv (parse, Fmt.int)
    in
    Arg.(
      value
      & opt warm_conv 0
      & info [ "warm" ] ~docv:"N"
          ~doc:
            "Run the program $(docv)+1 times through a compiled-program \
             cache: one cold run (parse, lower, optimize, remember the \
             IR) and $(docv) warm runs that skip the front end and go \
             straight to emission.  All outputs (metrics, dumps, traces, \
             profile) come from the last — warm — run; warm runs are \
             bit-identical to cold ones on every engine and $(b,-O) \
             level.  With $(b,--stats), the cache.hits / cache.misses \
             counters account the cache traffic.  Requires a SIMD \
             engine (conflicts with $(b,--seq)).")
  in
  Cmd.v
    (Cmd.info "simdsim" ~version:"1.0"
       ~doc:"run pseudo-Fortran programs on the simulated SIMD machine")
    Term.(
      const run $ path $ seq $ engine $ jobs $ lanes $ olevel $ dump_ir
      $ dump_ir_phase $ verify_ir $ sets $ fills $ dumps $ kernel $ atoms
      $ trace_file $ profile $ metrics_json $ occupancy_json $ chrome_file
      $ compare_mimd $ lint $ stats $ stats_json $ manifest $ warm)

let () = exit (Cmd.eval' cmd)
