(** The experiment drivers: one per table/figure of the paper (the E1–E10
    index of DESIGN.md).  Each driver prints the regenerated artifact,
    side by side with the paper's published numbers where available. *)

open Lf_lang

let section ppf title =
  Fmt.pf ppf "@.=== %s ===@.@." title

let opt_f = function Some v -> Printf.sprintf "%.2f" v | None -> "-"

(* ------------------------------------------------------------------ *)
(* E1 / E2: execution traces (Figures 4 and 6)                         *)
(* ------------------------------------------------------------------ *)

let fig4 ppf =
  section ppf "E1 (Figure 4): MIMD execution trace of EXAMPLE";
  let t = Lf_kernels.Example_kernel.paper_mimd () in
  Fmt.pf ppf "%a@." Lf_kernels.Example_kernel.pp t;
  Fmt.pf ppf "paper: 8 steps; measured: %d steps@." t.Lf_kernels.Example_kernel.time

let fig6 ppf =
  section ppf "E2 (Figure 6): unflattened SIMD trace of EXAMPLE";
  let t = Lf_kernels.Example_kernel.paper_simd () in
  Fmt.pf ppf "%a@." Lf_kernels.Example_kernel.pp t;
  Fmt.pf ppf "paper: 12 steps; measured: %d steps@."
    t.Lf_kernels.Example_kernel.time;
  let f = Lf_kernels.Example_kernel.paper_flattened () in
  Fmt.pf ppf "@.flattened SIMD recovers the MIMD schedule:@.%a@."
    Lf_kernels.Example_kernel.pp f

(* ------------------------------------------------------------------ *)
(* E3: the time-bound equations                                        *)
(* ------------------------------------------------------------------ *)

let bounds ppf =
  section ppf "E3 (Equations 1, 2, 1', 2'): time bounds";
  let l = Lf_kernels.Example_kernel.paper_l in
  let trips = Lf_core.Bounds.distribute ~p:2 `Block l in
  Fmt.pf ppf "EXAMPLE (K=8, L=4,1,2,1,1,3,1,3, P=2, block):@.";
  Fmt.pf ppf "  TIME_MIMD (Eq. 1)  = %d   (paper: 8)@."
    (Lf_core.Bounds.time_mimd trips);
  Fmt.pf ppf "  TIME_SIMD (Eq. 2)  = %d   (paper: 12)@."
    (Lf_core.Bounds.time_simd trips);
  Fmt.pf ppf "  flattened = MIMD bound = %d@."
    (Lf_core.Bounds.flattened_time trips);
  (* NBFORCE bound sanity on a small workload *)
  let mol = Lf_md.Workload.sod ~n:512 () in
  let pl = Lf_md.Workload.pairlist mol ~cutoff:8.0 in
  let m = Lf_simd.Machine.decmpp ~p:64 in
  let flat = Lf_kernels.Nbforce.run ~compute_forces:false Flat m mol pl ~nmax:512 in
  Fmt.pf ppf
    "@.NBFORCE (N=512, 8 A, Gran=64): flattened kernel steps = %d, Eq. 1' \
     bound = %d (equal: %b)@."
    flat.Lf_kernels.Nbforce.force_steps
    (Lf_kernels.Nbforce.flat_steps_bound m pl)
    (flat.Lf_kernels.Nbforce.force_steps
    = Lf_kernels.Nbforce.flat_steps_bound m pl)

(* ------------------------------------------------------------------ *)
(* E4: the program versions (Figures 1-12)                             *)
(* ------------------------------------------------------------------ *)

let example_source =
  {|
PROGRAM example
  INTEGER k, x(8,4), l(8)
  DO i = 1, k
    DO j = 1, l(i)
      x(i,j) = i * j
    ENDDO
  ENDDO
END
|}

let example_nest_fragment =
  "DO i = 1, k\n  DO j = 1, l(i)\n    x(i,j) = i * j\n  ENDDO\nENDDO"

let transforms ppf =
  section ppf "E4 (Figures 1-12): program versions derived by the compiler";
  let p = Parser.program_of_string example_source in
  Fmt.pf ppf "--- P1: original F77 (Figure 1) ---@.%s@."
    (Pretty.program_to_string p);
  let fresh = Lf_core.Fresh.of_program p in
  let body = p.Ast.p_body in
  let loop = List.hd body in
  (match Lf_core.Normalize.of_nest ~fresh loop with
  | Error e -> Fmt.pf ppf "normalization failed: %s@." e
  | Ok nest ->
      let guarded, _, _ = Lf_core.Flatten.with_guards ~fresh nest in
      Fmt.pf ppf "--- GENNEST with guard flags (Figure 9) ---@.%s@.@."
        (Pretty.block_to_string guarded);
      List.iter
        (fun (variant, fig) ->
          let fresh = Lf_core.Fresh.of_program p in
          match
            Lf_core.Flatten.flatten ~fresh ~assume_inner_nonempty:true variant
              nest
          with
          | Ok b ->
              Fmt.pf ppf "--- flattened, %s (%s) ---@.%s@.@."
                (Lf_core.Flatten.variant_to_string variant)
                fig
                (Pretty.block_to_string b)
          | Error r ->
              Fmt.pf ppf "%a@." Lf_core.Flatten.pp_rejection r)
        [
          (Lf_core.Flatten.General, "Figure 10");
          (Lf_core.Flatten.Optimized, "Figure 11");
          (Lf_core.Flatten.DoneTest, "Figure 12");
        ]);
  let opts =
    {
      Lf_core.Pipeline.default_options with
      assume_inner_nonempty = true;
      target =
        Lf_core.Pipeline.Simd
          { decomp = Lf_core.Simdize.Block; p = Ast.EVar "p" };
    }
  in
  (match Lf_core.Pipeline.simdize_program_naive ~opts p with
  | Ok o ->
      Fmt.pf ppf "--- naive SIMD version (Figure 5) ---@.%s@."
        (Pretty.program_to_string o.Lf_core.Pipeline.program)
  | Error e -> Fmt.pf ppf "naive SIMDization failed: %s@." e);
  (match Lf_core.Pipeline.flatten_program ~opts p with
  | Ok o ->
      Fmt.pf ppf "--- flattened SIMD version (Figure 7) ---@.%s@."
        (Pretty.program_to_string o.Lf_core.Pipeline.program)
  | Error e -> Fmt.pf ppf "flattened SIMDization failed: %s@." e);
  (* the MIMD path of Figure 3 needs the Fortran D mapping of Figure 2 *)
  let f77d =
    Parser.program_of_string
      {|
PROGRAM example
  INTEGER k, lmax, x(k, lmax), l(k)
  DECOMPOSITION xd(k, lmax)
  DECOMPOSITION ld(k)
  ALIGN x WITH xd
  ALIGN l WITH ld
  DISTRIBUTE xd(BLOCK, *)
  DISTRIBUTE ld(BLOCK)
  DO i = 1, k
    DO j = 1, l(i)
      x(i, j) = i * j
    ENDDO
  ENDDO
END
|}
  in
  Fmt.pf ppf "--- P2: Fortran D version (Figure 2) ---@.%s@."
    (Pretty.program_to_string f77d);
  let fresh_m = Lf_core.Fresh.of_program f77d in
  match Lf_core.Mimdize.mimdize ~fresh:fresh_m ~p:(Ast.EInt 2) f77d with
  | Ok r ->
      Fmt.pf ppf "--- P3: per-processor MIMD version (Figure 3) ---@.%s@."
        (Pretty.program_to_string r.Lf_core.Mimdize.program)
  | Error e -> Fmt.pf ppf "MIMD derivation failed: %s@." e

(* ------------------------------------------------------------------ *)
(* E5: Figure 18                                                       *)
(* ------------------------------------------------------------------ *)

let fig18 ppf =
  section ppf
    "E5 (Figure 18): nonbonded interaction partners per atom, synthetic SOD";
  let mol = Lf_md.Workload.sod () in
  let stats =
    List.map
      (fun c -> Lf_md.Stats.of_pairlist (Lf_md.Workload.pairlist mol ~cutoff:c))
      Lf_md.Workload.fig18_cutoffs
  in
  let paper_ratio c =
    List.assoc_opt c Paper_data.pcnt_ratios
    |> Option.fold ~none:"-" ~some:(Printf.sprintf "%.3f")
  in
  let paper_max c =
    List.assoc_opt c Paper_data.pcnt_max
    |> Option.fold ~none:"-" ~some:string_of_int
  in
  Table.make
    ~header:
      [ "cutoff (A)"; "pCnt_max"; "paper max"; "pCnt_avg"; "max/avg";
        "paper max/avg" ]
    (List.map
       (fun (s : Lf_md.Stats.t) ->
         [
           Printf.sprintf "%.0f" s.Lf_md.Stats.cutoff;
           string_of_int s.Lf_md.Stats.pcnt_max;
           paper_max s.Lf_md.Stats.cutoff;
           Printf.sprintf "%.2f" s.Lf_md.Stats.pcnt_avg;
           Printf.sprintf "%.3f" s.Lf_md.Stats.ratio;
           paper_ratio s.Lf_md.Stats.cutoff;
         ])
       stats)
  |> Table.render ppf;
  Fmt.pf ppf
    "Both values increase cubicly with the cutoff radius (paper §5.4); the \
     max/avg ratio bounds the flattening speedup.@.";
  Fmt.pf ppf "@.pairs per atom vs cutoff (x = maximum, o = average):@.";
  Ascii_plot.render ~logx:false ~logy:false ppf
    [
      Ascii_plot.series ~label:"pCnt_max" ~mark:'x'
        (List.map
           (fun (st : Lf_md.Stats.t) ->
             (st.Lf_md.Stats.cutoff, float_of_int st.Lf_md.Stats.pcnt_max))
           stats);
      Ascii_plot.series ~label:"pCnt_avg" ~mark:'o'
        (List.map
           (fun (st : Lf_md.Stats.t) ->
             (st.Lf_md.Stats.cutoff, st.Lf_md.Stats.pcnt_avg))
           stats);
    ]

(* ------------------------------------------------------------------ *)
(* Machine rows of Tables 1 and 2                                      *)
(* ------------------------------------------------------------------ *)

let cm2_rows = [ 1024; 2048; 4096; 8192 ]
let decmpp_rows = [ 1024; 2048; 4096; 8192 ]

let machines () =
  List.map (fun p -> Lf_simd.Machine.cm2 ~p) cm2_rows
  @ List.map (fun p -> Lf_simd.Machine.decmpp ~p) decmpp_rows

let nmax = 8192

let run_cell ?(compute_forces = false) variant m mol pl =
  Lf_kernels.Nbforce.run ~compute_forces variant m mol pl ~nmax

(* ------------------------------------------------------------------ *)
(* E6: Table 2                                                         *)
(* ------------------------------------------------------------------ *)

let table2 ppf =
  section ppf "E6 (Table 2): force-routine calls, flattened vs unflattened";
  let mol = Lf_md.Workload.sod () in
  let header =
    "Gran"
    :: List.concat_map
         (fun c ->
           [
             Printf.sprintf "%.0fA Lu" c;
             "Lf";
             "Lu/Lf";
             "paper Lu/Lf";
           ])
         (Array.to_list Paper_data.cutoffs)
  in
  let grans = [ 128; 256; 512; 1024; 2048; 4096; 8192 ] in
  let rows =
    List.map
      (fun gran ->
        (* Gran determines the lane count; CM-2 for Gran = P/8 < 1024,
           either machine beyond — the counts depend only on Gran and
           layout; we use the cut-and-stack layout rows like the paper's
           DECmpp column and note layout effects in the ablation bench *)
        let m =
          if gran <= 512 then Lf_simd.Machine.cm2 ~p:(gran * 8)
          else Lf_simd.Machine.decmpp ~p:gran
        in
        string_of_int gran
        :: List.concat_map
             (fun c ->
               let pl = Lf_md.Workload.pairlist mol ~cutoff:c in
               let lu = run_cell Lf_kernels.Nbforce.L1 m mol pl in
               let lf = run_cell Lf_kernels.Nbforce.Flat m mol pl in
               let ratio =
                 float_of_int lu.Lf_kernels.Nbforce.table2_count
                 /. float_of_int (max 1 lf.Lf_kernels.Nbforce.table2_count)
               in
               let paper =
                 List.find_opt (fun r -> r.Paper_data.gran2 = gran)
                   Paper_data.table2
                 |> Option.map (fun r ->
                        let i =
                          match c with
                          | 4.0 -> 0 | 8.0 -> 1 | 12.0 -> 2 | _ -> 3
                        in
                        r.Paper_data.counts.(i))
               in
               let paper_ratio =
                 match paper with
                 | Some (Some lu, Some lf) ->
                     Printf.sprintf "%.3f" (float_of_int lu /. float_of_int lf)
                 | _ -> "-"
               in
               [
                 string_of_int lu.Lf_kernels.Nbforce.table2_count;
                 string_of_int lf.Lf_kernels.Nbforce.table2_count;
                 Printf.sprintf "%.3f" ratio;
                 paper_ratio;
               ])
             (Array.to_list Paper_data.cutoffs))
      grans
  in
  Table.render ppf (Table.make ~header rows);
  Fmt.pf ppf
    "Lu = maxPCnt x Lrs; Lf = flattened loop iterations (Eq. 1').  The \
     Lu/Lf ratio grows as Gran shrinks and is bounded by pCnt_max/pCnt_avg \
     (paper §5.5); at Gran = 8192 every lane holds at most one atom and \
     the ratio is 1.@."

(* ------------------------------------------------------------------ *)
(* E7: Table 1                                                         *)
(* ------------------------------------------------------------------ *)

let table1 ppf =
  section ppf "E7 (Table 1): modeled running times (seconds)";
  let mol = Lf_md.Workload.sod () in
  let header =
    "P/Gran (machine)"
    :: List.concat_map
         (fun c ->
           [
             Printf.sprintf "%.0fA Lu1" c; "Lu2"; "Lf";
             "paper Lu1"; "Lu2"; "Lf";
           ])
         [ 4.0; 8.0 ]
  in
  let row_of m paper_times =
    Fmt.str "%d/%d (%s)" m.Lf_simd.Machine.processors m.Lf_simd.Machine.gran
      m.Lf_simd.Machine.name
    :: List.concat
         (List.mapi
            (fun i c ->
              let pl = Lf_md.Workload.pairlist mol ~cutoff:c in
              let t v =
                (run_cell v m mol pl).Lf_kernels.Nbforce.time
              in
              let p1, p2, p3 =
                match paper_times with
                | Some (times : (float option * float option * float option) array) -> times.(i)
                | None -> (None, None, None)
              in
              [
                Printf.sprintf "%.2f" (t Lf_kernels.Nbforce.L1);
                Printf.sprintf "%.2f" (t Lf_kernels.Nbforce.L2);
                Printf.sprintf "%.2f" (t Lf_kernels.Nbforce.Flat);
                opt_f p1; opt_f p2; opt_f p3;
              ])
            [ 4.0; 8.0 ])
  in
  let rows =
    List.map
      (fun m ->
        let paper =
          List.find_opt
            (fun r ->
              r.Paper_data.p = m.Lf_simd.Machine.processors
              && r.Paper_data.gran = m.Lf_simd.Machine.gran)
            Paper_data.table1
        in
        row_of m (Option.map (fun r -> r.Paper_data.times) paper))
      (machines ())
  in
  Table.render ppf (Table.make ~header rows);
  (* the 12 and 16 A columns, separately to keep lines readable *)
  let header2 =
    "P/Gran (machine)"
    :: List.concat_map
         (fun c ->
           [ Printf.sprintf "%.0fA Lu1" c; "Lu2"; "Lf";
             "paper Lu1"; "Lu2"; "Lf" ])
         [ 12.0; 16.0 ]
  in
  let rows2 =
    List.map
      (fun m ->
        let paper =
          List.find_opt
            (fun r ->
              r.Paper_data.p = m.Lf_simd.Machine.processors
              && r.Paper_data.gran = m.Lf_simd.Machine.gran)
            Paper_data.table1
        in
        let paper_times = Option.map (fun r -> r.Paper_data.times) paper in
        Fmt.str "%d/%d (%s)" m.Lf_simd.Machine.processors
          m.Lf_simd.Machine.gran m.Lf_simd.Machine.name
        :: List.concat
             (List.mapi
                (fun i c ->
                  let pl = Lf_md.Workload.pairlist mol ~cutoff:c in
                  let t v = (run_cell v m mol pl).Lf_kernels.Nbforce.time in
                  let p1, p2, p3 =
                    match paper_times with
                    | Some times -> times.(i + 2)
                    | None -> (None, None, None)
                  in
                  [
                    Printf.sprintf "%.2f" (t Lf_kernels.Nbforce.L1);
                    Printf.sprintf "%.2f" (t Lf_kernels.Nbforce.L2);
                    Printf.sprintf "%.2f" (t Lf_kernels.Nbforce.Flat);
                    opt_f p1; opt_f p2; opt_f p3;
                  ])
                [ 12.0; 16.0 ])
      )
      (machines ())
  in
  Table.render ppf (Table.make ~header:header2 rows2);
  Fmt.pf ppf
    "Shape checks: Lf < Lu2 < Lu1 on the CM-2; Lf fastest everywhere except \
     Gran=8192 where all three converge (paper §5.6); halving Gran roughly \
     doubles unflattened time.@."

(* ------------------------------------------------------------------ *)
(* E8: Figure 19 (series form of Table 1)                              *)
(* ------------------------------------------------------------------ *)

let fig19 ppf =
  section ppf
    "E8 (Figure 19): running time vs processors (log-log; dashes in the \
     paper = Lu1 '1', dots = Lu2 '2', solid = Lf 'f')";
  let mol = Lf_md.Workload.sod () in
  List.iter
    (fun (label, ms) ->
      Fmt.pf ppf "%s:@." label;
      (* the raw series, then the plot the paper draws *)
      let series variant cutoff =
        let pl = Lf_md.Workload.pairlist mol ~cutoff in
        List.map
          (fun m ->
            let r = run_cell variant m mol pl in
            ( float_of_int m.Lf_simd.Machine.processors,
              r.Lf_kernels.Nbforce.time ))
          ms
      in
      List.iter
        (fun cutoff ->
          Fmt.pf ppf "  cutoff %2.0f A:@." cutoff;
          List.iter
            (fun variant ->
              Fmt.pf ppf "    %-4s: %s@."
                (Lf_kernels.Nbforce.variant_to_string variant)
                (String.concat " "
                   (List.map
                      (fun (x, y) -> Fmt.str "(%.0f, %.3f)" x y)
                      (series variant cutoff))))
            [ Lf_kernels.Nbforce.L1; Lf_kernels.Nbforce.L2;
              Lf_kernels.Nbforce.Flat ])
        [ 4.0; 8.0; 12.0; 16.0 ];
      let plot_series =
        List.concat_map
          (fun cutoff ->
            [
              Ascii_plot.series
                ~label:(Fmt.str "Lu1 at %.0f A" cutoff)
                ~mark:'1' (series Lf_kernels.Nbforce.L1 cutoff);
              Ascii_plot.series
                ~label:(Fmt.str "Lu2 at %.0f A" cutoff)
                ~mark:'2' (series Lf_kernels.Nbforce.L2 cutoff);
              Ascii_plot.series
                ~label:(Fmt.str "Lf at %.0f A" cutoff)
                ~mark:'f'
                (series Lf_kernels.Nbforce.Flat cutoff);
            ])
          [ 4.0; 16.0 ]
      in
      Fmt.pf ppf "@.  seconds vs processors (log-log), cutoffs 4 and 16 A:@.";
      Ascii_plot.render ppf plot_series)
    [
      ("CM-2", List.map (fun p -> Lf_simd.Machine.cm2 ~p) cm2_rows);
      ("DECmpp 12000", List.map (fun p -> Lf_simd.Machine.decmpp ~p) decmpp_rows);
    ]

(* ------------------------------------------------------------------ *)
(* E9: the Sparc baseline                                              *)
(* ------------------------------------------------------------------ *)

let sparc ppf =
  section ppf "E9 (§5.5): Sparc 2 sequential baseline";
  let mol = Lf_md.Workload.sod () in
  List.iter
    (fun (c, paper) ->
      let pl = Lf_md.Workload.pairlist mol ~cutoff:c in
      let r =
        Lf_kernels.Nbforce.run_sequential Lf_simd.Machine.sparc mol pl
      in
      Fmt.pf ppf
        "cutoff %2.0f A: %d pairs, modeled %.2f s (paper: %.2f s)@." c
        r.Lf_kernels.Nbforce.useful_pairs r.Lf_kernels.Nbforce.time paper)
    Paper_data.sparc_times

(* ------------------------------------------------------------------ *)
(* E10: the Nmax-doubling observation (§5.3)                           *)
(* ------------------------------------------------------------------ *)

let nmax_effect ppf =
  section ppf
    "E10 (§5.3): effect of doubling Nmax (compiled-for maximum) at fixed N";
  let mol = Lf_md.Workload.sod () in
  let pl = Lf_md.Workload.pairlist mol ~cutoff:8.0 in
  List.iter
    (fun (label, m) ->
      Fmt.pf ppf "%s:@." label;
      List.iter
        (fun variant ->
          let t nm =
            (Lf_kernels.Nbforce.run ~compute_forces:false variant m mol pl
               ~nmax:nm)
              .Lf_kernels.Nbforce.time
          in
          let t1 = t 8192 and t2 = t 16384 in
          Fmt.pf ppf "  %-4s: Nmax=8192 %.3f s, Nmax=16384 %.3f s (x%.2f)@."
            (Lf_kernels.Nbforce.variant_to_string variant)
            t1 t2 (t2 /. t1))
        [ Lf_kernels.Nbforce.L1; Lf_kernels.Nbforce.L2;
          Lf_kernels.Nbforce.Flat ])
    [
      ("CM-2 (P=8192)", Lf_simd.Machine.cm2 ~p:8192);
      ("DECmpp (P=1024)", Lf_simd.Machine.decmpp ~p:1024);
    ];
  Fmt.pf ppf
    "Paper: doubling Nmax doubles Lu2 on both machines and Lu1 on the \
     CM-2; DECmpp Lu1 grows ~5%%; Lf is unaffected — \"a nice side effect \
     of loop flattening\".@."

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md)                                               *)
(* ------------------------------------------------------------------ *)

let layered ppf =
  section ppf
    "E11 (§5.3 implementation experience): the Figure 16/17 kernels on \
     the SIMD VM (mini-Fortran, memory layers, PLURAL arrays)";
  let mol = Lf_md.Workload.sod ~n:256 ~seed:31 () in
  let pl = Lf_md.Workload.pairlist mol ~cutoff:8.0 in
  let p = 16 and nmax = 512 in
  let n = Array.length pl.Lf_md.Pairlist.pcnt in
  let lrs = 1 + ((n - 1) / p) and maxlrs = 1 + ((nmax - 1) / p) in
  Fmt.pf ppf "N=%d atoms on %d lanes: Lrs=%d, maxLrs=%d, maxPCnt=%d@.@." n p
    lrs maxlrs
    (Lf_md.Pairlist.max_pcnt pl);
  let flat =
    Lf_kernels.Layered_src.run_kernel
      (Lf_kernels.Layered_src.flattened ())
      mol pl ~p ~nmax
  in
  let l1 =
    Lf_kernels.Layered_src.run_kernel ~sweep:`Lrs
      (Lf_kernels.Layered_src.unflattened ())
      mol pl ~p ~nmax
  in
  let l2 =
    Lf_kernels.Layered_src.run_kernel ~sweep:`MaxLrs
      (Lf_kernels.Layered_src.unflattened ())
      mol pl ~p ~nmax
  in
  Fmt.pf ppf "  Lu1 (Fig. 17, 1:Lrs)   : %6d onef vector calls@."
    l1.Lf_kernels.Layered_src.onef_calls;
  Fmt.pf ppf "  Lu2 (Fig. 17, all)     : %6d onef vector calls@."
    l2.Lf_kernels.Layered_src.onef_calls;
  Fmt.pf ppf "  Lf  (Fig. 16, indirect): %6d onef vector calls@."
    flat.Lf_kernels.Layered_src.onef_calls;
  Fmt.pf ppf
    "  Lu1/Lf = %.2f — the kernels the paper actually ran, reproduced as \
     executable mini-Fortran on the lockstep VM.@."
    (float_of_int l1.Lf_kernels.Layered_src.onef_calls
    /. float_of_int flat.Lf_kernels.Layered_src.onef_calls)

let ablation_variants ppf =
  section ppf "Ablation: flattening variants (Figs. 10/11/12) step counts";
  let l = Lf_kernels.Example_kernel.paper_l in
  let setup k_val l_arr ctx =
    Env.set ctx.Interp.env "k" (Values.VInt k_val);
    Env.set ctx.Interp.env "l"
      (Values.VArr (Values.AInt (Nd.of_array l_arr)));
    Env.set ctx.Interp.env "x"
      (Values.VArr
         (Values.AInt
            (Nd.create [| Array.length l_arr; 1 + Array.fold_left max 0 l_arr |] 0)))
  in
  let p = Parser.program_of_string example_source in
  let body = p.Ast.p_body in
  let loop = List.hd body in
  let fresh0 = Lf_core.Fresh.of_program p in
  match Lf_core.Normalize.of_nest ~fresh:fresh0 loop with
  | Error e -> Fmt.pf ppf "error: %s@." e
  | Ok nest ->
      List.iter
        (fun variant ->
          let fresh = Lf_core.Fresh.of_program p in
          match
            Lf_core.Flatten.flatten ~fresh ~assume_inner_nonempty:true variant
              nest
          with
          | Error r -> Fmt.pf ppf "%a@." Lf_core.Flatten.pp_rejection r
          | Ok b ->
              let ctx = Interp.run_block ~setup:(setup 8 l) b in
              Fmt.pf ppf "  %-22s: %4d interpreter steps@."
                (Lf_core.Flatten.variant_to_string variant)
                ctx.Interp.steps)
        [ Lf_core.Flatten.General; Lf_core.Flatten.Optimized;
          Lf_core.Flatten.DoneTest ];
      let ctx0 = Interp.run_block ~setup:(setup 8 l) body in
      Fmt.pf ppf "  %-22s: %4d interpreter steps@." "original nest"
        ctx0.Interp.steps

let ablation_layout ppf =
  section ppf
    "Ablation: atom-to-lane assignment under Lf (Fig. 16 indirection vs \
     physical layout)";
  let mol = Lf_md.Workload.sod () in
  List.iter
    (fun cutoff ->
      let pl = Lf_md.Workload.pairlist mol ~cutoff in
      List.iter
        (fun gran ->
          let mk layout =
            { (Lf_simd.Machine.decmpp ~p:gran) with Lf_simd.Machine.layout }
          in
          let steps ~indirect layout =
            (Lf_kernels.Nbforce.run_flat ~compute_forces:false ~indirect
               (mk layout) mol pl ~nmax)
              .Lf_kernels.Nbforce.force_steps
          in
          let ind = steps ~indirect:true Lf_simd.Machine.Cut_and_stack in
          let cs = steps ~indirect:false Lf_simd.Machine.Cut_and_stack in
          let bw = steps ~indirect:false Lf_simd.Machine.Blockwise in
          Fmt.pf ppf
            "  cutoff %2.0f A, Gran %5d: indirect %6d  cut-and-stack %6d  \
             blockwise %6d (blockwise penalty x%.2f)@."
            cutoff gran ind cs bw
            (float_of_int bw /. float_of_int ind))
        [ 512; 2048 ])
    [ 4.0; 16.0 ];
  Fmt.pf ppf
    "Blockwise lanes inherit the owner-side (j > i) storage trend: the \
     lowest-index block keeps nearly all its pairs.  Figure 16's indirect \
     addressing sidesteps the physical layout entirely (§7).@." 

let ablation_workloads ppf =
  section ppf "Ablation: workload shape (does flattening always pay?)";
  List.iter
    (fun ((mol : Lf_md.Molecule.t), box) ->
      let pl =
        match box with
        | Some box ->
            (* periodic boundaries: genuinely uniform density *)
            Lf_md.Pairlist.ensure_nonempty mol
              (Lf_md.Pairlist.brute_force_periodic mol ~box ~cutoff:8.0)
        | None -> Lf_md.Workload.pairlist mol ~cutoff:8.0
      in
      let m = Lf_simd.Machine.decmpp ~p:256 in
      let lu =
        Lf_kernels.Nbforce.run ~compute_forces:false L1 m mol pl ~nmax:4096
      in
      let lf =
        Lf_kernels.Nbforce.run ~compute_forces:false Flat m mol pl ~nmax:4096
      in
      let s = Lf_md.Stats.of_pairlist pl in
      Fmt.pf ppf
        "  %-28s: max/avg %5.2f  Lu %6d  Lf %6d  speedup x%.2f@."
        mol.Lf_md.Molecule.name s.Lf_md.Stats.ratio
        lu.Lf_kernels.Nbforce.force_steps lf.Lf_kernels.Nbforce.force_steps
        (float_of_int lu.Lf_kernels.Nbforce.force_steps
        /. float_of_int (max 1 lf.Lf_kernels.Nbforce.force_steps)))
    [
      (Lf_md.Workload.sod ~n:2048 (), None);
      ( Lf_md.Molecule.uniform_gas ~n:2048 ~density:0.05 (),
        Some (Float.cbrt (2048.0 /. 0.05)) );
      (Lf_md.Molecule.droplet ~n:2048 (), None);
    ];
  Fmt.pf ppf
    "The flattening profit tracks the workload skew: the periodic uniform \
     gas (Poisson fluctuations only) gains least, the two-phase droplet \
     most, and each speedup stays below its max/avg bound.@."

let ablation_decomp ppf =
  section ppf
    "Ablation: decomposition quality under Lf (Eq. 1'' is \"only limited \
     by the quality of our workload distribution\")";
  let mol = Lf_md.Workload.sod () in
  List.iter
    (fun cutoff ->
      let pl = Lf_md.Workload.pairlist mol ~cutoff in
      let n = Array.length pl.Lf_md.Pairlist.pcnt in
      List.iter
        (fun gran ->
          let m = Lf_simd.Machine.decmpp ~p:gran in
          let steps partition =
            (Lf_kernels.Nbforce.run_flat ~compute_forces:false ~partition m
               mol pl ~nmax)
              .Lf_kernels.Nbforce.force_steps
          in
          let ideal =
            (Lf_md.Pairlist.n_pairs pl + gran - 1) / gran
          in
          let block = steps (Lf_md.Decomp.block ~gran ~n) in
          let cyclic = steps (Lf_md.Decomp.cyclic ~gran ~n) in
          let balanced = steps (Lf_md.Decomp.balanced ~gran pl) in
          Fmt.pf ppf
            "  cutoff %2.0f A, Gran %5d: block %6d  cyclic %6d  balanced \
             %6d  (ideal %6d)@."
            cutoff gran block cyclic balanced ideal)
        [ 256; 1024 ])
    [ 4.0; 16.0 ];
  Fmt.pf ppf
    "Balanced (greedy LPT over pCnt) closes most of the gap between the \
     cyclic layout and the perfect-balance floor; block suffers the \
     owner-side storage trend.@."

let ablation_coalesce ppf =
  section ppf
    "Ablation: loop flattening vs loop coalescing (the §7 comparison)";
  (* rectangular nest: both transformations apply and produce the same
     iteration count *)
  let rect =
    Parser.block_of_string
      "DO i = 1, n\n  DO j = 1, m\n    x(i, j) = i * 10 + j\n  ENDDO\nENDDO"
  in
  let fresh = Lf_core.Fresh.of_block rect in
  (match Lf_core.Coalesce.coalesce ~fresh (List.hd rect) with
  | Ok b ->
      Fmt.pf ppf "rectangular nest, coalesced (single N*M space):@.%s@.@."
        (Pretty.block_to_string b)
  | Error r -> Fmt.pf ppf "%a@." Lf_core.Coalesce.pp_rejection r);
  (* the paper's EXAMPLE: coalescing is inapplicable, flattening is not *)
  let ex = Parser.block_of_string example_nest_fragment in
  let fresh2 = Lf_core.Fresh.of_block ex in
  (match Lf_core.Coalesce.coalesce ~fresh:fresh2 (List.hd ex) with
  | Error r ->
      Fmt.pf ppf "EXAMPLE: %a@." Lf_core.Coalesce.pp_rejection r
  | Ok _ -> Fmt.pf ppf "EXAMPLE: unexpectedly coalesced?!@.");
  let fresh3 = Lf_core.Fresh.of_block ex in
  (match Lf_core.Normalize.of_nest ~fresh:fresh3 (List.hd ex) with
  | Ok nest ->
      let _, v =
        Lf_core.Flatten.flatten_auto ~fresh:fresh3
          ~assume_inner_nonempty:true nest
      in
      Fmt.pf ppf "EXAMPLE: flattening applies (%s)@."
        (Lf_core.Flatten.variant_to_string v)
  | Error e -> Fmt.pf ppf "EXAMPLE: %s@." e);
  Fmt.pf ppf
    "Coalescing needs a rectangular iteration space and rewrites which \
     iterations a processor gets; flattening handles varying inner bounds \
     and only changes when iterations run (paper §7).@."

(* ------------------------------------------------------------------ *)
(* Observability: per-line divergence + lane occupancy (Figs 18/19)    *)
(* ------------------------------------------------------------------ *)

let obs_nbforce ppf =
  section ppf
    "Observability: NBFORCE per-line divergence profile, lane occupancy, \
     and TIME_SIMD vs TIME_MIMD per source region";
  let module P = Lf_core.Pipeline in
  let mol = Lf_md.Workload.sod ~n:96 ~seed:13 () in
  let pl = Lf_md.Workload.pairlist mol ~cutoff:7.0 in
  let p_lanes = 8 in
  let opts =
    {
      P.default_options with
      assume_inner_nonempty = true;
      target =
        P.Simd { decomp = Lf_core.Simdize.Cyclic; p = Ast.EInt p_lanes };
    }
  in
  match P.flatten_program ~opts (Lf_kernels.Nbforce_src.program ()) with
  | Error e -> Fmt.pf ppf "flattening failed: %s@." e
  | Ok o ->
      (* pretty-print and re-parse so every statement of the transformed
         program carries a source location for the profile to bill to *)
      let src = Pretty.program_to_string o.P.program in
      let prog = Parser.program_of_string src in
      let prof = Lf_obs.Profile.create () in
      let occ = Lf_obs.Occupancy.create ~p:p_lanes () in
      let n, maxp = Lf_kernels.Nbforce_src.params pl in
      let vm =
        Lf_simd.Vm.run ~p:p_lanes
          ~setup:(fun vm ->
            Lf_simd.Vm.register_func vm "force"
              (Lf_kernels.Nbforce_src.force_fn mol);
            Lf_simd.Vm.bind_scalar vm "n" (Values.VInt n);
            Lf_simd.Vm.bind_scalar vm "maxp" (Values.VInt maxp);
            Lf_simd.Vm.bind_scalar vm "p" (Values.VInt p_lanes);
            Lf_kernels.Nbforce_src.bind_arrays pl ~n ~maxp
              ~set_global:(fun name a -> Lf_simd.Vm.bind_global vm name a);
            Lf_simd.Vm.add_trace_sink vm (Lf_obs.Profile.sink prof);
            Lf_simd.Vm.add_trace_sink vm (Lf_obs.Occupancy.sink occ))
          prog
      in
      Fmt.pf ppf "flattened SIMD (%d lanes, cyclic): %a@.@." p_lanes
        Lf_simd.Metrics.pp vm.Lf_simd.Vm.metrics;
      Obs_report.profile_table ~source:src ppf prof;
      Fmt.pf ppf "@.";
      Obs_report.heatmap ppf occ;
      Fmt.pf ppf "profile ties out with metrics: %b@."
        (Obs_report.check_totals prof vm.Lf_simd.Vm.metrics);
      let mimd, _f = Obs_report.run_nbforce_mimd (mol, pl) ~p:p_lanes in
      Fmt.pf ppf
        "@.MIMD (%d processors, block): %d steps (max over processors)@.@."
        p_lanes mimd.Lf_mimd.Mimd_vm.time;
      Obs_report.mimd_line_table ~source:Lf_kernels.Nbforce_src.source ppf
        mimd.Lf_mimd.Mimd_vm.line_steps;
      Fmt.pf ppf "@.";
      Obs_report.region_table ppf ~simd_src:src ~prof
        ~metrics:vm.Lf_simd.Vm.metrics ~mimd;
      Fmt.pf ppf
        "@.Flattening keeps the lanes on their own pair streams, so the \
         occupancy graph stays dense until the heaviest atoms drain — the \
         shape of the paper's Figure 19, with the per-line table showing \
         where the residual idle slots are billed.@."

(* ------------------------------------------------------------------ *)
(* Everything                                                          *)
(* ------------------------------------------------------------------ *)

let all ppf =
  fig4 ppf;
  fig6 ppf;
  bounds ppf;
  transforms ppf;
  fig18 ppf;
  table2 ppf;
  table1 ppf;
  fig19 ppf;
  sparc ppf;
  nmax_effect ppf;
  layered ppf;
  ablation_variants ppf;
  ablation_layout ppf;
  ablation_workloads ppf;
  ablation_decomp ppf;
  ablation_coalesce ppf;
  obs_nbforce ppf

let by_name =
  [
    ("fig4", fig4); ("fig6", fig6); ("bounds", bounds);
    ("transforms", transforms); ("fig18", fig18); ("table2", table2);
    ("table1", table1); ("fig19", fig19); ("sparc", sparc);
    ("nmax", nmax_effect); ("layered", layered);
    ("ablation-variants", ablation_variants);
    ("ablation-layout", ablation_layout);
    ("ablation-workloads", ablation_workloads);
    ("ablation-decomp", ablation_decomp);
    ("ablation-coalesce", ablation_coalesce); ("obs-nbforce", obs_nbforce);
    ("all", all);
  ]

(* ------------------------------------------------------------------ *)
(* CSV export (for external plotting of Tables 1-2 and Figs. 18-19)    *)
(* ------------------------------------------------------------------ *)

let csv_fig18 () =
  let mol = Lf_md.Workload.sod () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "cutoff_A,pcnt_max,pcnt_avg,ratio\n";
  List.iter
    (fun c ->
      let s = Lf_md.Stats.of_pairlist (Lf_md.Workload.pairlist mol ~cutoff:c) in
      Buffer.add_string buf
        (Printf.sprintf "%.1f,%d,%.3f,%.4f\n" c s.Lf_md.Stats.pcnt_max
           s.Lf_md.Stats.pcnt_avg s.Lf_md.Stats.ratio))
    Lf_md.Workload.fig18_cutoffs;
  Buffer.contents buf

let csv_table2 () =
  let mol = Lf_md.Workload.sod () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "gran,cutoff_A,lu,lf,ratio\n";
  List.iter
    (fun gran ->
      let m =
        if gran <= 512 then Lf_simd.Machine.cm2 ~p:(gran * 8)
        else Lf_simd.Machine.decmpp ~p:gran
      in
      Array.iter
        (fun c ->
          let pl = Lf_md.Workload.pairlist mol ~cutoff:c in
          let lu = run_cell Lf_kernels.Nbforce.L1 m mol pl in
          let lf = run_cell Lf_kernels.Nbforce.Flat m mol pl in
          Buffer.add_string buf
            (Printf.sprintf "%d,%.1f,%d,%d,%.4f\n" gran c
               lu.Lf_kernels.Nbforce.table2_count
               lf.Lf_kernels.Nbforce.table2_count
               (float_of_int lu.Lf_kernels.Nbforce.table2_count
               /. float_of_int (max 1 lf.Lf_kernels.Nbforce.table2_count))))
        Paper_data.cutoffs)
    [ 128; 256; 512; 1024; 2048; 4096; 8192 ];
  Buffer.contents buf

let csv_table1 () =
  (* one row per (machine, P, cutoff, variant): the Fig. 19 series too *)
  let mol = Lf_md.Workload.sod () in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "machine,processors,gran,cutoff_A,variant,seconds\n";
  List.iter
    (fun m ->
      Array.iter
        (fun c ->
          let pl = Lf_md.Workload.pairlist mol ~cutoff:c in
          List.iter
            (fun v ->
              let r = run_cell v m mol pl in
              Buffer.add_string buf
                (Printf.sprintf "%s,%d,%d,%.1f,%s,%.4f\n"
                   m.Lf_simd.Machine.name m.Lf_simd.Machine.processors
                   m.Lf_simd.Machine.gran c
                   (Lf_kernels.Nbforce.variant_to_string v)
                   r.Lf_kernels.Nbforce.time))
            [ Lf_kernels.Nbforce.L1; Lf_kernels.Nbforce.L2;
              Lf_kernels.Nbforce.Flat ])
        Paper_data.cutoffs)
    (machines ());
  Buffer.contents buf

(** Write table1.csv, table2.csv and fig18.csv into [dir]. *)
let write_csvs ~dir =
  let write name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "fig18.csv" (csv_fig18 ());
  write "table2.csv" (csv_table2 ());
  write "table1.csv" (csv_table1 ())
