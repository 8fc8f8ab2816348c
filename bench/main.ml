(* Experiment harness.

   With no arguments: regenerate every table and figure of the paper
   (experiments E1-E11 of DESIGN.md) plus the ablations.

   With [--experiment NAME]: run one experiment (see DESIGN.md's index:
   fig4 fig6 bounds transforms fig18 table1 table2 fig19 sparc nmax
   layered ablation-variants ablation-layout ablation-workloads
   ablation-decomp ablation-coalesce obs-nbforce all).

   With [--csv DIR]: additionally write table1.csv / table2.csv /
   fig18.csv into DIR for external plotting.

   With [--paired NAME]: run no experiment; instead time the legs of one
   named entry of [pairs] (stats, cache) against each
   other in one process, and end stdout with one JSON line holding every
   pair's ratios.

   A bad option, a missing option argument, an unknown experiment or an
   unknown pair name is a usage error: exit 124, message on stderr. *)

open Lf_lang

(* The small repeat workload for the program-cache pair: a handful of
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

(* The derived flat SIMD NBFORCE (Figure 13) run end to end on the
   compiled engine at a given lane count, with ~2 atoms per lane like the
   Table 1/2 configurations.  The registered force function is trivially
   cheap, so a run measures the engine rather than the force routine. *)
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
  fun () ->
    Lf_simd.Vm.run ~p
      ~setup:(fun vm ->
        Lf_simd.Vm.register_func vm "force" (fun _ -> Values.VReal 1.0);
        Lf_simd.Vm.bind_scalar vm "n" (Values.VInt n);
        Lf_simd.Vm.bind_scalar vm "maxp" (Values.VInt maxp);
        Lf_simd.Vm.bind_scalar vm "p" (Values.VInt p);
        Lf_kernels.Nbforce_src.bind_arrays pl ~n ~maxp
          ~set_global:(fun name a -> Lf_simd.Vm.bind_global vm name a))
      nbforce_flat

let engine_p = 1024

(* ------------------------------------------------------------------ *)
(* Paired in-process measurements                                      *)
(* ------------------------------------------------------------------ *)

(* One A/B pair: a label and two named legs.  Each leg is one whole
   run; the driver reads the A/B ratio of their wall times. *)
type pair = {
  label : string;
  a : string * (unit -> unit);
  b : string * (unit -> unit);
}

let pair label (na, a) (nb, b) =
  {
    label;
    a = (na, fun () -> ignore (a ()));
    b = (nb, fun () -> ignore (b ()));
  }

(* The named entries of --paired.  Each is a thunk, so only the selected
   entry derives its kernels. *)
let pairs =
  [
    (* the telemetry registry's cost on the compiled kernel *)
    ( "stats",
      fun () ->
        let run = nbforce_runner ~p:engine_p in
        let on () =
          Lf_obs.Stats.enable ();
          Fun.protect ~finally:Lf_obs.Stats.disable run
        in
        [
          pair
            (Printf.sprintf "NBFORCE flat p=%d compiled" engine_p)
            ("stats off", run) ("stats on", on);
        ] );
    (* the small repeat workload from source with no cache (the whole
       parse -> lower -> optimize front end) against a shared cache that
       the warm-up run fills, so every measured warm run is a hit.
       Execution is identical between the legs, so the ratio is a lower
       bound on the front-end ratio. *)
    ( "cache",
      fun () ->
        let cache = Lf_simd.Progcache.create () in
        let run ?cache () =
          Lf_simd.Vm.run_src ?cache ~p:small_p small_src
        in
        [
          pair
            (Printf.sprintf "small repeat workload p=%d compiled" small_p)
            ("run_src cold", run ?cache:None) ("run_src warm", run ~cache);
        ] );
  ]

(* Every pair runs the same number of rounds: enough that the quartiles
   of the ratio are read off 15 samples. *)
let rounds = 15

(* After one warm-up run of each leg, every round times both legs, and
   the leg that runs first alternates between rounds so neither leg
   always meets the caches and the clock as the other left them.
   Printed and returned: the A/B ratios' median, quartiles and range,
   and each leg's best time. *)
let measure { label; a = na, a; b = nb, b } =
  let time f =
    let t0 = Lf_obs.Stats.now_ns () in
    f ();
    Int64.to_float (Int64.sub (Lf_obs.Stats.now_ns ()) t0)
  in
  a ();
  b ();
  let best_a = ref infinity and best_b = ref infinity in
  let ratios =
    Array.init rounds (fun r ->
        let ta, tb =
          if r mod 2 = 0 then
            let ta = time a in
            (ta, time b)
          else
            let tb = time b in
            (time a, tb)
        in
        best_a := Float.min !best_a ta;
        best_b := Float.min !best_b tb;
        ta /. tb)
  in
  Array.sort compare ratios;
  let q k = ratios.(k * (rounds - 1) / 4) in
  Fmt.pr
    "%s: A = %s, B = %s, %d rounds@.  A/B median %.3f [q1 %.3f, q3 %.3f], \
     min %.3f max %.3f   best %.0f / %.0f ns@."
    label na nb rounds (q 2) (q 1) (q 3) (q 0) (q 4) !best_a !best_b;
  let f x = Lf_obs.Json.Float x in
  Lf_obs.Json.Obj
    [
      ("label", Lf_obs.Json.Str label); ("a", Lf_obs.Json.Str na);
      ("b", Lf_obs.Json.Str nb); ("median", f (q 2)); ("q1", f (q 1));
      ("q3", f (q 3)); ("min", f (q 0)); ("max", f (q 4));
      ("best_a_ns", f !best_a); ("best_b_ns", f !best_b);
    ]

let run_paired name make =
  let results = List.map measure (make ()) in
  Fmt.pr "%s@."
    (Lf_obs.Json.to_string
       (Lf_obs.Json.Obj
          [
            ("paired", Lf_obs.Json.Str name);
            ("rounds", Lf_obs.Json.Int rounds);
            ("pairs", Lf_obs.Json.List results);
          ]))

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let usage = "usage: bench [--experiment NAME] [--csv DIR] [--paired NAME]"

(* Located usage error: name the offending option, print the usage line,
   exit 124 (the CLI-error convention simdsim inherits from cmdliner). *)
let usage_error fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "bench: %s@.%s@." msg usage;
      exit 124)
    fmt

(* [List.assoc name table], or a usage error listing the valid names *)
let lookup what table name =
  match List.assoc_opt name table with
  | Some v -> v
  | None ->
      usage_error "unknown %s %S; available: %s" what name
        (String.concat ", " (List.map fst table))

let () =
  let experiment = ref None and csv_dir = ref None and paired = ref None in
  let rec parse = function
    | [] -> ()
    | "--experiment" :: v :: rest ->
        experiment :=
          Some (lookup "experiment" Lf_report.Experiments.by_name v);
        parse rest
    | "--csv" :: v :: rest ->
        csv_dir := Some v;
        parse rest
    | "--paired" :: v :: rest ->
        paired := Some (v, lookup "pair" pairs v);
        parse rest
    | [ flag ] when List.mem flag [ "--experiment"; "--csv"; "--paired" ] ->
        usage_error "option '%s' needs an argument" flag
    | flag :: _ -> usage_error "unknown option %S" flag
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !paired with
  | Some (name, make) ->
      if Option.is_some !experiment || Option.is_some !csv_dir then
        usage_error "option '--paired' runs no experiment";
      run_paired name make
  | None ->
      let ppf = Fmt.stdout in
      Option.iter
        (fun dir ->
          Lf_report.Experiments.write_csvs ~dir;
          Fmt.pf ppf "wrote table1.csv, table2.csv, fig18.csv to %s@." dir)
        !csv_dir;
      Option.value ~default:Lf_report.Experiments.all !experiment ppf;
      Fmt.flush ppf ()
