(* Benchmark harness.

   With no arguments: regenerate every table and figure of the paper
   (experiments E1-E11 of DESIGN.md) plus the ablations, then run the
   Bechamel micro-benchmarks quantifying the cost of the transformation
   itself (paper §6: the flattening overhead is "negligible").

   With [--experiment NAME]: run one experiment (see DESIGN.md's index:
   fig4 fig6 bounds transforms fig18 table1 table2 fig19 sparc nmax
   ablation-variants ablation-layout ablation-workloads all).

   With [--no-micro]: skip the Bechamel micro-benchmarks.
   With [--csv DIR]: additionally write table1.csv / table2.csv /
   fig18.csv into DIR for external plotting.
   With [--json FILE]: write the Bechamel estimates (test name -> ns per
   run) to FILE as JSON; implies running the micro-benchmarks even when
   an experiment is selected.  The dump leads with a "header" object
   (engine p, sweep p, jobs list, experiment, build profile, quick) that
   the baseline loader skips.  See EXPERIMENTS.md for the format.
   With [--quick]: run only the parse/transform micro subset with a
   short quota, and skip the paper experiments — the fast configuration
   the bench-gate smoke uses.
   With [--check --baseline FILE [--tolerance PCT]]: regression gate —
   after the run, compare every row against the baseline by name and
   exit 2 if any row is slower than baseline * (1 + PCT/100), or if no
   row matches the baseline at all.  Default tolerance 25%. *)

open Lf_lang

let example_nest_src =
  {|
  DO i = 1, k
    DO j = 1, l(i)
      x(i,j) = i * j
    ENDDO
  ENDDO
|}

(* The small repeat workload for the program-cache study: a handful of
   vector statements, so the parse -> lower -> optimize front end
   dominates a cold run and the cache's warm path has the most to
   amortize — the shape of a fuzz/bench sweep re-running one source
   across a grid. *)
let small_src =
  let b = Buffer.create 1024 in
  Buffer.add_string b "PROGRAM resweep\n";
  Buffer.add_string b "  u = iproc * 3\n";
  Buffer.add_string b "  r = u * 0.5\n";
  Buffer.add_string b "  s = u - u\n";
  for i = 1 to 8 do
    Buffer.add_string b
      (Printf.sprintf "  t%d = (u + %d) * (u - %d) + iproc * %d\n" i i i
         (i + 1));
    Buffer.add_string b
      (Printf.sprintf "  WHERE (t%d > %d * 2 + 1)\n" i i);
    Buffer.add_string b (Printf.sprintf "    s = s + t%d - %d\n" i i);
    Buffer.add_string b (Printf.sprintf "    r = r + t%d * 0.25\n" i);
    Buffer.add_string b "  ENDWHERE\n"
  done;
  Buffer.add_string b "END\n";
  Buffer.contents b

let small_p = 64

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let block = Parser.block_of_string example_nest_src in
  let nbforce_prog = Lf_kernels.Nbforce_src.program () in
  let mol = Lf_md.Workload.sod ~n:512 () in
  let pl = Lf_md.Workload.pairlist mol ~cutoff:8.0 in
  let machine = Lf_simd.Machine.decmpp ~p:64 in
  let flatten_opts =
    { Lf_core.Pipeline.default_options with assume_inner_nonempty = true }
  in
  let simd_opts =
    {
      flatten_opts with
      Lf_core.Pipeline.target =
        Lf_core.Pipeline.Simd
          { decomp = Lf_core.Simdize.Cyclic; p = Ast.EInt 64 };
    }
  in
  [
    Test.make ~name:"parse-example"
      (Staged.stage (fun () -> Parser.block_of_string example_nest_src));
    Test.make ~name:"normalize+flatten (Fig. 12)"
      (Staged.stage (fun () ->
           let fresh = Lf_core.Fresh.of_block block in
           match Lf_core.Normalize.of_nest ~fresh (List.hd block) with
           | Ok nest ->
               Lf_core.Flatten.flatten ~fresh ~assume_inner_nonempty:true
                 Lf_core.Flatten.DoneTest nest
               |> Result.is_ok
           | Error _ -> false));
    Test.make ~name:"full pipeline: flatten NBFORCE (seq)"
      (Staged.stage (fun () ->
           Lf_core.Pipeline.flatten_program ~opts:flatten_opts nbforce_prog
           |> Result.is_ok));
    Test.make ~name:"full pipeline: flatten+SIMDize NBFORCE"
      (Staged.stage (fun () ->
           Lf_core.Pipeline.flatten_program ~opts:simd_opts nbforce_prog
           |> Result.is_ok));
    Test.make ~name:"safety analysis (dependence test)"
      (Staged.stage (fun () ->
           Lf_analysis.Parallel.check_loop (List.hd block)));
    Test.make ~name:"kernel Lf (N=512, Gran=64, 8A)"
      (Staged.stage (fun () ->
           Lf_kernels.Nbforce.run ~compute_forces:false Lf_kernels.Nbforce.Flat
             machine mol pl ~nmax:512));
    Test.make ~name:"kernel Lu2 (N=512, Gran=64, 8A)"
      (Staged.stage (fun () ->
           Lf_kernels.Nbforce.run ~compute_forces:false Lf_kernels.Nbforce.L2
             machine mol pl ~nmax:512));
    Test.make ~name:"pairlist build (N=512, 8A)"
      (Staged.stage (fun () -> Lf_md.Pairlist.build mol ~cutoff:8.0));
  ]

(* Execution-engine comparison: the same derived SIMD programs run
   end-to-end on the lockstep VM under the tree-walking reference engine
   and the compiled (slot-resolved) engine.  The registered force
   function is made trivially cheap so the measurement isolates
   interpreter overhead, which is what the compiled engine attacks.
   The lane count is MasPar-scale (the paper's DECmpp sports 1K-16K
   PEs); the workload keeps ~2 atoms per lane so the masked-WHERE
   utilization pattern matches the smaller Table 1/2 configurations. *)
(* Build a closure running the derived flat SIMD NBFORCE at a given lane
   count (~2 atoms per lane, like the Table 1/2 configurations). *)
let nbforce_runner ~p =
  let mol = Lf_md.Workload.sod ~n:(2 * p) () in
  let pl = Lf_md.Workload.pairlist mol ~cutoff:8.0 in
  let n, maxp = Lf_kernels.Nbforce_src.params pl in
  let simd_opts =
    {
      Lf_core.Pipeline.default_options with
      assume_inner_nonempty = true;
      target =
        Lf_core.Pipeline.Simd
          { decomp = Lf_core.Simdize.Cyclic; p = Ast.EInt p };
    }
  in
  let nbforce_flat =
    match
      Lf_core.Pipeline.flatten_program ~opts:simd_opts
        (Lf_kernels.Nbforce_src.program ())
    with
    | Ok o -> o.Lf_core.Pipeline.program
    | Error e -> Fmt.failwith "cannot derive SIMD NBFORCE: %s" e
  in
  fun ?jobs ?opt engine () ->
    Lf_simd.Vm.run ~engine ?jobs ?opt ~p
      ~setup:(fun vm ->
        Lf_simd.Vm.register_func vm ~pure:true "force" (fun _ -> Values.VReal 1.0);
        Lf_simd.Vm.bind_scalar vm "n" (Values.VInt n);
        Lf_simd.Vm.bind_scalar vm "maxp" (Values.VInt maxp);
        Lf_simd.Vm.bind_scalar vm "p" (Values.VInt p);
        Lf_kernels.Nbforce_src.bind_arrays pl ~n ~maxp
          ~set_global:(fun name a -> Lf_simd.Vm.bind_global vm name a))
      nbforce_flat

let engine_p = 1024

(* A scatter-dominated kernel in the flattened shape: a strided
   induction vector walking a global array with a gather-modify-scatter
   in the guarded body.  At -O2 the WHERE guard's [i <= n] bound
   discharges both per-lane bounds checks. *)
let scatter_runner ~p =
  let n = 64 * p in
  let src =
    Printf.sprintf
      "i = 1 + (iproc - 1)\n\
       WHILE (any(i <= n))\n\
      \  WHERE (i <= n)\n\
      \    g(i) = g(i) * 3 + i\n\
      \    i = i + %d\n\
      \  ENDWHERE\n\
       ENDWHILE"
      p
  in
  let prog = Ast.program "scatter" (Parser.block_of_string src) in
  fun ?opt engine () ->
    Lf_simd.Vm.run ~engine ?opt ~p
      ~setup:(fun vm ->
        Lf_simd.Vm.bind_scalar vm "n" (Values.VInt n);
        Lf_simd.Vm.bind_global vm "g" (Values.AInt (Nd.create [| n |] 0)))
      prog

let engine_tests () =
  let open Bechamel in
  let p = engine_p in
  let run_nbforce = nbforce_runner ~p in
  let run_scatter = scatter_runner ~p in
  let simd_opts =
    {
      Lf_core.Pipeline.default_options with
      assume_inner_nonempty = true;
      target =
        Lf_core.Pipeline.Simd
          { decomp = Lf_core.Simdize.Cyclic; p = Ast.EInt p };
    }
  in
  (* the Fig. 7 shape: naive SIMDization of the ragged example nest *)
  let k = 4 * p in
  let ls = Array.init k (fun i -> 1 + (i mod 4)) in
  let maxl = Array.fold_left max 1 ls in
  let example_naive =
    let prog = Ast.program "example" (Parser.block_of_string example_nest_src) in
    match Lf_core.Pipeline.simdize_program_naive ~opts:simd_opts prog with
    | Ok o -> o.Lf_core.Pipeline.program
    | Error e -> Fmt.failwith "cannot derive naive SIMD example: %s" e
  in
  let run_example ?jobs ?opt engine () =
    Lf_simd.Vm.run ~engine ?jobs ?opt ~p
      ~setup:(fun vm ->
        Lf_simd.Vm.bind_scalar vm "p" (Values.VInt p);
        Lf_simd.Vm.bind_scalar vm "k" (Values.VInt k);
        Lf_simd.Vm.bind_global vm "l" (Values.AInt (Nd.of_array ls));
        Lf_simd.Vm.bind_global vm "x"
          (Values.AInt (Nd.create [| k; maxl |] 0)))
      example_naive
  in
  (* the un-suffixed compiled/parallel rows run at the default -O1; the
     -O0 rows pin the optimizer off so the fusion win is measurable from
     one sweep (and comparable against pre-fusion baseline files, whose
     un-suffixed rows were effectively -O0) *)
  [
    Test.make ~name:"vm NBFORCE flat (tree-walk)"
      (Staged.stage (run_nbforce `Tree_walk));
    Test.make ~name:"vm NBFORCE flat (compiled)"
      (Staged.stage (run_nbforce `Compiled));
    Test.make ~name:"vm NBFORCE flat (compiled -O0)"
      (Staged.stage (run_nbforce ~opt:0 `Compiled));
    (* -O2: range-analysis claims discharge the per-lane bounds checks
       on the f/partners gathers and the f scatter-accumulate *)
    Test.make ~name:"vm NBFORCE flat (compiled -O2)"
      (Staged.stage (run_nbforce ~opt:2 `Compiled));
    (* the telemetry cost-model guard: the same run with the stats
       registry armed (per-opcode counters, mask buckets, GC deltas) *)
    Test.make ~name:"vm NBFORCE flat (compiled, stats)"
      (Staged.stage (fun () ->
           Lf_obs.Stats.enable ();
           Fun.protect ~finally:Lf_obs.Stats.disable (run_nbforce `Compiled)));
    Test.make ~name:"vm NBFORCE flat (parallel j4)"
      (Staged.stage (run_nbforce ~jobs:4 `Parallel));
    Test.make ~name:"vm NBFORCE flat (parallel j4 -O0)"
      (Staged.stage (run_nbforce ~jobs:4 ~opt:0 `Parallel));
    Test.make ~name:"vm NBFORCE flat (parallel j4 -O2)"
      (Staged.stage (run_nbforce ~jobs:4 ~opt:2 `Parallel));
    (* the scatter kernel: -O2 discharges the gather's and the store's
       bounds checks; the global-array store runs serially on the
       control thread at every level *)
    Test.make ~name:"vm scatter stride (compiled)"
      (Staged.stage (run_scatter `Compiled));
    Test.make ~name:"vm scatter stride (compiled -O2)"
      (Staged.stage (run_scatter ~opt:2 `Compiled));
    Test.make ~name:"vm example naive (tree-walk)"
      (Staged.stage (run_example `Tree_walk));
    Test.make ~name:"vm example naive (compiled)"
      (Staged.stage (run_example `Compiled));
    Test.make ~name:"vm example naive (compiled -O0)"
      (Staged.stage (run_example ~opt:0 `Compiled));
    Test.make ~name:"vm example naive (parallel j4)"
      (Staged.stage (run_example ~jobs:4 `Parallel));
    (* the program cache: the same small source re-run from text, once
       paying the full front end every iteration and once through a
       shared cache (the first iteration fills it, the rest are warm) *)
    Test.make ~name:"vm repeat small (run_src cold)"
      (Staged.stage (fun () ->
           Lf_simd.Vm.run_src ~engine:`Compiled ~p:small_p small_src));
    (let cache = Lf_simd.Progcache.create () in
     Test.make ~name:"vm repeat small (run_src warm)"
       (Staged.stage (fun () ->
            Lf_simd.Vm.run_src ~engine:`Compiled ~cache ~p:small_p small_src)));
  ]

(* The --jobs sweep: flat NBFORCE at p = 1024 and at MasPar scale
   (p = 4096) on the serial compiled engine vs the lane-sharded parallel
   engine at each requested shard count.  The chunk-aligned shard grid
   guarantees the results are bitwise identical at every point of the
   sweep; only the wall-clock changes. *)
let sweep_ps = [ 1024; 4096 ]

let sweep_tests ~jobs () =
  let open Bechamel in
  List.concat_map
    (fun p ->
      let run_nbforce = nbforce_runner ~p in
      Test.make
        ~name:(Printf.sprintf "vm NBFORCE flat p%d (compiled)" p)
        (Staged.stage (run_nbforce `Compiled))
      :: List.map
           (fun j ->
             Test.make
               ~name:(Printf.sprintf "vm NBFORCE flat p%d (parallel j%d)" p j)
               (Staged.stage (run_nbforce ~jobs:j `Parallel)))
           jobs)
    sweep_ps

let run_micro ~jobs ~quick ppf =
  let open Bechamel in
  Fmt.pf ppf "@.=== Micro-benchmarks (Bechamel; ns per run) ===@.@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    if quick then
      Benchmark.cfg ~limit:500 ~quota:(Time.second 0.125) ~stabilize:true ()
    else
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  (* a single tree-walk run of the engine comparison takes ~0.2 s; give
     that group a larger quota so the OLS fit sees enough samples *)
  let cfg_engine =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 3.0) ~stabilize:true ()
  in
  let rows_of cfg tests =
    let raw =
      Benchmark.all cfg [ instance ]
        (Test.make_grouped ~name:"lf" ~fmt:"%s %s" tests)
    in
    let results = Analyze.all ols instance raw in
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> Some e
          | _ -> None
        in
        (name, est) :: acc)
      results []
  in
  let rows =
    (if quick then rows_of cfg (micro_tests ())
     else
       rows_of cfg (micro_tests ())
       @ rows_of cfg_engine (engine_tests ())
       @ rows_of cfg_engine (sweep_tests ~jobs ()))
    |> List.sort compare
  in
  List.iter
    (fun (name, est) ->
      let txt =
        match est with Some e -> Printf.sprintf "%.0f" e | None -> "-"
      in
      Fmt.pf ppf "  %-45s %12s ns@." name txt)
    rows;
  let est_of suffix =
    List.find_map
      (fun (name, est) ->
        if String.ends_with ~suffix name then est else None)
      rows
  in
  List.iter
    (fun kernel ->
      match
        ( est_of (Printf.sprintf "vm %s (tree-walk)" kernel),
          est_of (Printf.sprintf "vm %s (compiled)" kernel) )
      with
      | Some tree, Some comp when comp > 0.0 ->
          Fmt.pf ppf "  engine speedup on %s: %.1fx@." kernel (tree /. comp)
      | _ -> ())
    [ "NBFORCE flat"; "example naive" ];
  List.iter
    (fun kernel ->
      match
        ( est_of (Printf.sprintf "vm %s (compiled -O0)" kernel),
          est_of (Printf.sprintf "vm %s (compiled)" kernel) )
      with
      | Some o0, Some o1 when o1 > 0.0 ->
          Fmt.pf ppf "  fusion speedup (-O0 vs -O1) on %s: %.2fx@." kernel
            (o0 /. o1)
      | _ -> ())
    [ "NBFORCE flat"; "example naive" ];
  List.iter
    (fun kernel ->
      match
        ( est_of (Printf.sprintf "vm %s (compiled)" kernel),
          est_of (Printf.sprintf "vm %s (compiled -O2)" kernel) )
      with
      | Some o1, Some o2 when o2 > 0.0 ->
          Fmt.pf ppf
            "  bounds-check discharge speedup (-O1 vs -O2) on %s: %.2fx@."
            kernel (o1 /. o2)
      | _ -> ())
    [ "NBFORCE flat"; "scatter stride" ];
  (match
     ( est_of "vm NBFORCE flat (compiled)",
       est_of "vm NBFORCE flat (compiled, stats)" )
   with
  | Some off, Some on when off > 0.0 ->
      Fmt.pf ppf "  stats overhead on NBFORCE flat (compiled): %+.2f%%@."
        (100.0 *. (on -. off) /. off)
  | _ -> ());
  List.iter
    (fun p ->
      match est_of (Printf.sprintf "vm NBFORCE flat p%d (compiled)" p) with
      | Some serial when serial > 0.0 ->
          List.iter
            (fun j ->
              match
                est_of (Printf.sprintf "vm NBFORCE flat p%d (parallel j%d)" p j)
              with
              | Some par when par > 0.0 ->
                  Fmt.pf ppf
                    "  parallel speedup on NBFORCE flat p%d, jobs=%d: %.2fx@."
                    p j (serial /. par)
              | _ -> ())
            jobs
      | _ -> ())
    sweep_ps;
  rows

(* ------------------------------------------------------------------ *)
(* Baseline comparison (--baseline FILE)                               *)
(* ------------------------------------------------------------------ *)

(* The speedup table: every current row matched against the baseline by
   test name; speedup > 1 means the current run is faster. *)
let print_baseline_table ppf ~baseline_file baseline rows =
  Fmt.pf ppf "@.=== Comparison vs baseline %s ===@.@." baseline_file;
  Fmt.pf ppf "  %-45s %14s %14s %9s@." "" "baseline ns" "current ns"
    "speedup";
  let matched = ref 0 in
  List.iter
    (fun (name, est) ->
      match (est, List.assoc_opt name baseline) with
      | Some cur, Some base when cur > 0.0 ->
          incr matched;
          Fmt.pf ppf "  %-45s %14.1f %14.1f %8.2fx@." name base cur
            (base /. cur)
      | Some cur, None -> Fmt.pf ppf "  %-45s %14s %14.1f@." name "-" cur
      | _ -> ())
    rows;
  if !matched = 0 then
    Fmt.pf ppf "  (no test names in common with the baseline)@.";
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name rows) then
        Fmt.pf ppf "  %-45s (baseline only)@." name)
    baseline

(* The dump header: which configuration produced these numbers.  The
   baseline loader keeps only numeric fields, so a "header" object is
   invisible to --baseline / --check and older dumps without one load
   unchanged. *)
let dump_header ~experiment ~jobs ~quick ~paired =
  Lf_obs.Json.Obj
    [
      ("p", Lf_obs.Json.Int engine_p);
      ( "sweep_p",
        Lf_obs.Json.List (List.map (fun p -> Lf_obs.Json.Int p) sweep_ps) );
      ("jobs", Lf_obs.Json.List (List.map (fun j -> Lf_obs.Json.Int j) jobs));
      ( "experiment",
        match experiment with
        | Some e -> Lf_obs.Json.Str e
        | None -> Lf_obs.Json.Null );
      ( "profile",
        Lf_obs.Json.Str
          (Option.value ~default:"unknown" (Sys.getenv_opt "DUNE_PROFILE")) );
      ("quick", Lf_obs.Json.Bool quick);
      ("paired_jobs", Lf_obs.Json.List paired);
    ]

(* one decimal, like the historical hand-rolled dumps *)
let round1 ns = Float.round (ns *. 10.0) /. 10.0

(* With --baseline, --json records the deltas instead of the flat
   estimates: {"name": {"ns": .., "baseline_ns": .., "speedup": ..}};
   rows absent from the baseline carry only "ns".  Without --baseline the
   flat {"name": ns_per_run} format is kept (that is what --baseline
   loads back).  Both begin with the header object. *)
let write_json_deltas ~header file baseline rows =
  let fields =
    List.filter_map
      (fun (name, est) ->
        Option.map
          (fun ns ->
            let deltas =
              match List.assoc_opt name baseline with
              | Some base when ns > 0.0 ->
                  [
                    ("baseline_ns", Lf_obs.Json.Float base);
                    ("speedup", Lf_obs.Json.Float (base /. ns));
                  ]
              | _ -> []
            in
            (name, Lf_obs.Json.Obj (("ns", Lf_obs.Json.Float ns) :: deltas)))
          est)
      rows
  in
  let oc = open_out file in
  Lf_obs.Json.to_channel oc (Lf_obs.Json.Obj (("header", header) :: fields));
  output_char oc '\n';
  close_out oc

(* flat estimates dump: {"header": {...}, "name": ns_per_run, ...};
   estimates that did not converge are omitted *)
let write_json ~header file rows =
  let fields =
    List.filter_map
      (fun (name, est) ->
        Option.map (fun e -> (name, Lf_obs.Json.Float (round1 e))) est)
      rows
  in
  let oc = open_out file in
  Lf_obs.Json.to_channel oc (Lf_obs.Json.Obj (("header", header) :: fields));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Regression gate (--check)                                           *)
(* ------------------------------------------------------------------ *)

(* Compare every current row against the baseline by name; a row is a
   regression when it is slower than baseline * (1 + tolerance/100).
   An empty intersection also fails: a gate that silently compares
   nothing would pass forever.  Returns [true] when the gate failed. *)
let check_gate ppf ~tolerance ~baseline_file base rows =
  let limit = 1.0 +. (tolerance /. 100.0) in
  Fmt.pf ppf "@.=== Regression gate vs %s (tolerance %.1f%%) ===@.@."
    baseline_file tolerance;
  let matched = ref 0 in
  let regressed = ref 0 in
  List.iter
    (fun (name, est) ->
      match (est, List.assoc_opt name base) with
      | Some cur, Some b when b > 0.0 && cur > 0.0 ->
          incr matched;
          let ratio = cur /. b in
          if ratio > limit then begin
            incr regressed;
            Fmt.pf ppf "  FAIL %-45s %12.1f -> %12.1f ns  (%.2fx > %.2fx)@."
              name b cur ratio limit
          end
          else
            Fmt.pf ppf "  ok   %-45s %12.1f -> %12.1f ns  (%.2fx)@." name b
              cur ratio
      | _ -> ())
    rows;
  if !matched = 0 then begin
    Fmt.pf ppf "@.  no rows in common with the baseline: failing the gate@.";
    true
  end
  else if !regressed > 0 then begin
    Fmt.pf ppf "@.  %d of %d rows regressed beyond %.1f%%@." !regressed
      !matched tolerance;
    true
  end
  else begin
    Fmt.pf ppf "@.  all %d matched rows within %.1f%% of baseline@." !matched
      tolerance;
    false
  end

(* ------------------------------------------------------------------ *)
(* Paired in-process measurements                                      *)
(* ------------------------------------------------------------------ *)

(* Wall-clock noise between separate sweeps on this host swings far
   above the effects measured here (see EXPERIMENTS.md, fusion study),
   so --stats-overhead, --rangeopt-overhead, --cache-overhead and the
   --jobs sweep take their claims the way the fusion tuning decisions
   were taken: paired interleaved best-of-N runs within one process.
   After one warm-up run of each arm, every round times arm [a] and then
   arm [b].  [paired_ratios] returns the rounds' ratios of [a]'s time
   over [b]'s, sorted, and the best (minimum) time of each arm in ns;
   [paired] the median ratio in place of the array. *)
let paired_ratios ~rounds a b =
  let time f =
    let t0 = Lf_obs.Stats.now_ns () in
    ignore (f ());
    Int64.to_float (Int64.sub (Lf_obs.Stats.now_ns ()) t0)
  in
  ignore (a ());
  ignore (b ());
  let best_a = ref infinity and best_b = ref infinity in
  let ratios =
    Array.init rounds (fun _ ->
        let ta = time a in
        let tb = time b in
        if ta < !best_a then best_a := ta;
        if tb < !best_b then best_b := tb;
        ta /. tb)
  in
  Array.sort compare ratios;
  (ratios, !best_a, !best_b)

let paired ~rounds a b =
  let ratios, best_a, best_b = paired_ratios ~rounds a b in
  (ratios.(rounds / 2), best_a, best_b)

(* The paired half of the --jobs sweep: at every sweep width and jobs
   count, rounds of one parallel run then one serial compiled run; the
   parallel/serial time ratio's median and quartiles, printed and
   returned for the JSON header (below 1.0 = parallel faster). *)
let rounds_jobs = 15

let run_paired_jobs ppf ~jobs =
  List.concat_map
    (fun p ->
      let run = nbforce_runner ~p in
      List.map
        (fun j ->
          let ratios, best_par, best_ser =
            paired_ratios ~rounds:rounds_jobs
              (run ~jobs:j `Parallel)
              (run `Compiled)
          in
          let q k = ratios.(k * (rounds_jobs - 1) / 4) in
          Fmt.pf ppf
            "  paired parallel/serial on NBFORCE flat p%d, jobs=%d, %d \
             rounds: median %.3f [q1 %.3f, q3 %.3f], min %.3f max %.3f   \
             best %.0f / %.0f ns@."
            p j rounds_jobs (q 2) (q 1) (q 3) ratios.(0)
            ratios.(rounds_jobs - 1) best_par best_ser;
          Lf_obs.Json.Obj
            [
              ("p", Lf_obs.Json.Int p);
              ("jobs", Lf_obs.Json.Int j);
              ("rounds", Lf_obs.Json.Int rounds_jobs);
              ("median", Lf_obs.Json.Float (q 2));
              ("q1", Lf_obs.Json.Float (q 1));
              ("q3", Lf_obs.Json.Float (q 3));
              ("min", Lf_obs.Json.Float ratios.(0));
              ("max", Lf_obs.Json.Float ratios.(rounds_jobs - 1));
            ])
        jobs)
    sweep_ps

(* --stats-overhead: the compiled NBFORCE kernel with the telemetry
   registry disabled, then enabled; the overhead is the on/off ratio. *)
let run_stats_overhead ppf ~rounds =
  let run = nbforce_runner ~p:engine_p in
  let on () =
    Lf_obs.Stats.enable ();
    Fun.protect ~finally:Lf_obs.Stats.disable (run `Compiled)
  in
  let off_on, best_off, best_on = paired ~rounds (run `Compiled) on in
  Fmt.pf ppf
    "stats overhead on NBFORCE flat (compiled, p=%d), %d paired rounds:@.  \
     median of on/off ratios %+.2f%%   best-of-%d %.0f -> %.0f ns (%+.2f%%)@."
    engine_p rounds
    (100.0 *. ((1.0 /. off_on) -. 1.0))
    rounds best_off best_on
    (100.0 *. (best_on -. best_off) /. best_off)

(* --rangeopt-overhead: the bounds-check-discharge effect is a few
   percent, below this host's cross-process sweep noise, so each round
   times -O1 then -O2 (ratio > 1 = -O2 faster). *)
let run_rangeopt_overhead ppf ~rounds =
  let report name run =
    let ratio, best1, best2 = paired ~rounds (run ~opt:1) (run ~opt:2) in
    Fmt.pf ppf
      "%s, %d paired rounds:@.  median -O1/-O2 ratio %.2fx   best-of-%d \
       %.0f -> %.0f ns (%.2fx)@."
      name rounds ratio rounds best1 best2 (best1 /. best2)
  in
  let nbforce = nbforce_runner ~p:engine_p in
  let scatter = scatter_runner ~p:engine_p in
  report
    (Printf.sprintf "NBFORCE flat (compiled, p=%d)" engine_p)
    (fun ~opt () -> nbforce ~opt `Compiled ());
  report
    (Printf.sprintf "scatter stride (compiled, p=%d)" engine_p)
    (fun ~opt () -> scatter ~opt `Compiled ())

(* --cache-overhead: the small repeat workload once from source with no
   cache (full parse -> lower -> optimize front end) and once through a
   shared cache (warm: MD5 lookup + pooled frame + straight to emission;
   the warm-up run fills the cache, so every measured warm run is a
   hit).  Execution is bit-identical between the arms, so the total-time
   ratio is a LOWER bound on the front-end-overhead ratio: subtracting
   the common execution time from both sides only increases it. *)
let run_cache_overhead ppf ~rounds =
  let cold () = Lf_simd.Vm.run_src ~engine:`Compiled ~p:small_p small_src in
  let cache = Lf_simd.Progcache.create () in
  let warm () =
    Lf_simd.Vm.run_src ~engine:`Compiled ~cache ~p:small_p small_src
  in
  let ratio, best_cold, best_warm = paired ~rounds cold warm in
  Fmt.pf ppf
    "cold vs warm on the small repeat workload (compiled, p=%d), %d paired \
     rounds:@.  median cold/warm ratio %.2fx   best-of-%d %.0f -> %.0f ns \
     (%.2fx)@.  per-run front-end overhead saved by a warm hit: ~%.0f ns@."
    small_p rounds ratio rounds best_cold best_warm
    (best_cold /. best_warm)
    (best_cold -. best_warm)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: bench [--experiment NAME] [--no-micro] [--quick] [--csv DIR] \
   [--json FILE] [--baseline FILE] [--check] [--tolerance PCT] \
   [--jobs N[,N...]] [--stats-overhead] [--rangeopt-overhead] \
   [--cache-overhead]"

(* Located usage error: name the offending option, print the usage line,
   exit 124 (the CLI-error convention simdsim inherits from cmdliner). *)
let usage_error fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "bench: %s@.%s@." msg usage;
      exit 124)
    fmt

(* Load a prior --json estimates file ({"name": ns_per_run, ...}) as an
   assoc list; an unreadable or malformed baseline is a usage error
   (exit 124), like any other bad option argument. *)
let load_baseline file =
  let contents =
    try
      let ic = open_in file in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      s
    with Sys_error msg -> usage_error "option '--baseline': %s" msg
  in
  match Lf_obs.Json.parse contents with
  | Error msg ->
      usage_error "option '--baseline': %s: invalid JSON (%s)" file msg
  | Ok (Lf_obs.Json.Obj fields) ->
      List.filter_map
        (fun (name, v) ->
          match v with
          | Lf_obs.Json.Float f -> Some (name, f)
          | Lf_obs.Json.Int n -> Some (name, float_of_int n)
          (* a deltas dump (recorded with --baseline) wraps the estimate
             in an object; unwrap its "ns" so such dumps chain as the
             next run's baseline *)
          | Lf_obs.Json.Obj sub -> (
              match List.assoc_opt "ns" sub with
              | Some (Lf_obs.Json.Float f) -> Some (name, f)
              | Some (Lf_obs.Json.Int n) -> Some (name, float_of_int n)
              | _ -> None)
          | _ -> None)
        fields
  | Ok _ ->
      usage_error "option '--baseline': %s: expected a top-level JSON object"
        file

let () =
  let ppf = Fmt.stdout in
  let experiment = ref None in
  let no_micro = ref false in
  let quick = ref false in
  let csv_dir = ref None in
  let json_file = ref None in
  let baseline_file = ref None in
  let check = ref false in
  let tolerance = ref None in
  let jobs = ref [ 1; 2; 4 ] in
  let stats_overhead = ref false in
  let rangeopt_overhead = ref false in
  let cache_overhead = ref false in
  let parse_jobs s =
    String.split_on_char ',' s
    |> List.map (fun tok ->
           match int_of_string_opt (String.trim tok) with
           | Some n when n >= 1 -> n
           | Some n ->
               usage_error
                 "option '--jobs': invalid jobs count %d: must be >= 1" n
           | None -> usage_error "option '--jobs': invalid jobs count %S" tok)
  in
  let rec parse = function
    | [] -> ()
    | "--no-micro" :: rest ->
        no_micro := true;
        parse rest
    | "--experiment" :: v :: rest ->
        experiment := Some v;
        parse rest
    | "--csv" :: v :: rest ->
        csv_dir := Some v;
        parse rest
    | "--json" :: v :: rest ->
        json_file := Some v;
        parse rest
    | "--baseline" :: v :: rest ->
        baseline_file := Some v;
        parse rest
    | "--check" :: rest ->
        check := true;
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--tolerance" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t > 0.0 -> tolerance := Some t
        | Some t ->
            usage_error
              "option '--tolerance': invalid tolerance %g: must be > 0" t
        | None -> usage_error "option '--tolerance': invalid tolerance %S" v);
        parse rest
    | "--jobs" :: v :: rest ->
        jobs := parse_jobs v;
        parse rest
    | "--stats-overhead" :: rest ->
        stats_overhead := true;
        parse rest
    | "--rangeopt-overhead" :: rest ->
        rangeopt_overhead := true;
        parse rest
    | "--cache-overhead" :: rest ->
        cache_overhead := true;
        parse rest
    | [ flag ]
      when List.mem flag
             [
               "--experiment"; "--csv"; "--json"; "--baseline"; "--tolerance";
               "--jobs";
             ] ->
        usage_error "option '%s' needs an argument" flag
    | flag :: _ -> usage_error "unknown option %S" flag
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !stats_overhead then begin
    run_stats_overhead ppf ~rounds:15;
    Fmt.flush ppf ();
    exit 0
  end;
  if !rangeopt_overhead then begin
    run_rangeopt_overhead ppf ~rounds:15;
    Fmt.flush ppf ();
    exit 0
  end;
  if !cache_overhead then begin
    run_cache_overhead ppf ~rounds:25;
    Fmt.flush ppf ();
    exit 0
  end;
  if Option.is_some !tolerance && not !check then
    usage_error "option '--tolerance' requires --check";
  if !check && Option.is_none !baseline_file then
    usage_error "option '--check' requires --baseline";
  let experiment = !experiment in
  let no_micro = !no_micro in
  let quick = !quick in
  let csv_dir = !csv_dir in
  let json_file = !json_file in
  let check = !check in
  let tolerance = Option.value ~default:25.0 !tolerance in
  let jobs = !jobs in
  (* load eagerly so a bad --baseline argument fails before the (slow)
     benchmark run, with the usual usage-error exit *)
  let baseline =
    Option.map (fun file -> (file, load_baseline file)) !baseline_file
  in
  Option.iter
    (fun dir ->
      Lf_report.Experiments.write_csvs ~dir;
      Fmt.pf ppf "wrote table1.csv, table2.csv, fig18.csv to %s@." dir)
    csv_dir;
  (match experiment with
  | Some name -> (
      match List.assoc_opt name Lf_report.Experiments.by_name with
      | Some f -> f ppf
      | None ->
          Fmt.pf ppf "unknown experiment %s; available: %s@." name
            (String.concat ", " (List.map fst Lf_report.Experiments.by_name));
          exit 1)
  | None -> if not quick then Lf_report.Experiments.all ppf);
  (* --json and --baseline imply the micro-benchmarks even under
     --experiment *)
  let gate_failed =
    if
      ((not no_micro) && experiment = None)
      || json_file <> None || baseline <> None
    then begin
      let rows = run_micro ~jobs ~quick ppf in
      let paired = if quick then [] else run_paired_jobs ppf ~jobs in
      Option.iter
        (fun (file, base) ->
          print_baseline_table ppf ~baseline_file:file base rows)
        baseline;
      let header = dump_header ~experiment ~jobs ~quick ~paired in
      Option.iter
        (fun file ->
          (match baseline with
          | Some (_, base) -> write_json_deltas ~header file base rows
          | None -> write_json ~header file rows);
          Fmt.pf ppf "wrote micro-benchmark estimates to %s@." file)
        json_file;
      match (check, baseline) with
      | true, Some (file, base) ->
          check_gate ppf ~tolerance ~baseline_file:file base rows
      | _ -> false
    end
    else false
  in
  Fmt.flush ppf ();
  if gate_failed then exit 2
