(* flattenc: the source-to-source loop-flattening compiler.

   Reads a pseudo-Fortran program, applies the paper's transformation
   pipeline, and prints the transformed program (or an explanation of why
   the transformation was refused).

   Examples:
     dune exec bin/flattenc.exe -- program.f
     dune exec bin/flattenc.exe -- --target simd --decomp cyclic --p 64 program.f
     dune exec bin/flattenc.exe -- --naive --target simd program.f
     echo '...' | dune exec bin/flattenc.exe -- - *)

open Cmdliner

let variant_conv =
  Arg.enum
    [
      ("auto", None);
      ("general", Some Lf_core.Flatten.General);
      ("optimized", Some Lf_core.Flatten.Optimized);
      ("done-test", Some Lf_core.Flatten.DoneTest);
    ]

let decomp_conv =
  Arg.enum
    [ ("block", Lf_core.Simdize.Block); ("cyclic", Lf_core.Simdize.Cyclic) ]

(* With --check: report the transformed program's type diagnostics and
   refuse to print it on errors. *)
let typecheck_fails prog =
  let report = Lf_lang.Typecheck.check_program prog in
  List.iter
    (fun d -> Fmt.epr "%a@." Lf_lang.Typecheck.pp_diagnostic d)
    (report.Lf_lang.Typecheck.errors @ report.Lf_lang.Typecheck.warnings);
  report.Lf_lang.Typecheck.errors <> []

(* With --lint: report located diagnostics and refuse on errors. *)
let lint_refuses ~path ~src ~pure_subs prog =
  let report =
    Lf_analysis.Lint.check_program ~pure_subroutines:pure_subs prog
  in
  List.iter
    (fun d ->
      Fmt.epr "%a"
        (Lf_analysis.Lint.pp_diag_with_context ~file:path ~source:src ())
        d)
    report.Lf_analysis.Lint.diags;
  not report.Lf_analysis.Lint.safe

let run path variant target decomp p olevel dump_ir naive assume_nonempty
    trusted pure_subs deep check lint verbose =
  if Option.is_some dump_ir && target <> "simd" then begin
    Fmt.epr "flattenc: --dump-ir requires --target simd@.";
    1
  end
  else
  let src = Input_file.read_or_exit ~tool:"flattenc" path in
  match Lf_lang.Parser.program_of_string src with
  | exception e ->
      Fmt.epr "%s@." (Lf_lang.Errors.to_message e);
      1
  | prog when lint && lint_refuses ~path ~src ~pure_subs prog ->
      Fmt.epr "flattenc: refusing to transform %s: lint errors@." path;
      1
  | prog -> (
      if target = "mimd" then begin
        let fresh = Lf_core.Fresh.of_program prog in
        match
          Lf_core.Mimdize.mimdize ~fresh ~p:(Lf_lang.Ast.EInt p) prog
        with
        | Ok r ->
            if verbose then
              Fmt.epr "distributed: %s@."
                (String.concat ", " r.Lf_core.Mimdize.distributed);
            print_string
              (Lf_lang.Pretty.program_to_string r.Lf_core.Mimdize.program);
            0
        | Error e ->
            Fmt.epr "flattenc: %s@." e;
            1
      end
      else
      let target =
        if target = "simd" then
          Lf_core.Pipeline.Simd
            { decomp; p = Lf_lang.Ast.EInt p }
        else Lf_core.Pipeline.Sequential
      in
      let opts =
        {
          Lf_core.Pipeline.variant;
          assume_inner_nonempty = assume_nonempty;
          trusted_parallel = trusted;
          pure_subroutines = pure_subs;
          impure_funcs = [];
          deep;
          target;
        }
      in
      let result =
        if naive then Lf_core.Pipeline.simdize_program_naive ~opts prog
        else Lf_core.Pipeline.flatten_program ~opts prog
      in
      match result with
      | Error e ->
          Fmt.epr "flattenc: %s@." e;
          1
      | Ok o when check && typecheck_fails o.Lf_core.Pipeline.program -> 1
      | Ok o ->
          if verbose then begin
            Fmt.epr "variant:    %s@."
              (Lf_core.Flatten.variant_to_string
                 o.Lf_core.Pipeline.variant_used);
            Fmt.epr "profitable: %b@." o.Lf_core.Pipeline.profitable;
            Fmt.epr "safe:       %b@."
              o.Lf_core.Pipeline.safety.Lf_analysis.Parallel.parallel;
            if o.Lf_core.Pipeline.plural_vars <> [] then
              Fmt.epr "plural:     %s@."
                (String.concat ", " o.Lf_core.Pipeline.plural_vars);
            List.iter (Fmt.epr "note:       %s@.") o.Lf_core.Pipeline.notes
          end;
          Option.iter
            (fun f ->
              let dump =
                Lf_simd.Vm.dump_ir ~opt:olevel ~p
                  o.Lf_core.Pipeline.program
              in
              let write oc =
                dump oc;
                output_char oc '\n'
              in
              if f = "-" then write stdout
              else Input_file.write_or_exit ~tool:"flattenc" f write)
            dump_ir;
          print_string
            (Lf_lang.Pretty.program_to_string o.Lf_core.Pipeline.program);
          0)

let cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Input program ('-' for stdin).")
  in
  let variant =
    Arg.(
      value
      & opt variant_conv None
      & info [ "variant" ]
          ~doc:"Flattening variant: auto, general, optimized, done-test.")
  in
  let target =
    Arg.(
      value
      & opt (enum [ ("seq", "seq"); ("simd", "simd"); ("mimd", "mimd") ])
          "seq"
      & info [ "target" ] ~doc:"Compilation target: seq, simd or mimd.")
  in
  let decomp =
    Arg.(
      value
      & opt decomp_conv Lf_core.Simdize.Cyclic
      & info [ "decomp" ] ~doc:"SIMD data decomposition: block or cyclic.")
  in
  let p =
    Arg.(
      value & opt int 64
      & info [ "p"; "nproc" ] ~doc:"Processor count for the SIMD target.")
  in
  let olevel =
    Arg.(
      value
      & opt Cli.olevel_conv 1
      & info [ "O"; "opt-level" ] ~docv:"LEVEL"
          ~doc:
            "Optimizer level for $(b,--dump-ir): $(b,0) dumps the \
             unannotated slot-resolved IR, $(b,1) (the default) the IR \
             after reduction fusion, scatter-accumulate marking and \
             scratch planning; $(b,2) is accepted and runs the $(b,1) \
             pipeline.  Has no effect on the printed program.")
  in
  let dump_ir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-ir" ] ~docv:"FILE"
          ~doc:
            "Also write the SIMD VM's annotated IR for the transformed \
             program as JSON to $(docv) ('-' for stdout).  Requires \
             $(b,--target simd).")
  in
  let naive =
    Arg.(
      value & flag
      & info [ "naive" ]
          ~doc:"Emit the naive (unflattened) SIMD version instead.")
  in
  let assume_nonempty =
    Arg.(
      value & flag
      & info [ "assume-inner-nonempty" ]
          ~doc:
            "Assert that every inner loop runs at least once (enables the \
             Fig. 11/12 variants).")
  in
  let trusted =
    Arg.(
      value & flag
      & info [ "trust-parallel" ]
          ~doc:"Assert outer-loop independence without analysis.")
  in
  let pure_subs =
    Arg.(
      value
      & opt (list string) []
      & info [ "pure-subroutines" ]
          ~doc:"Subroutines certified free of cross-iteration effects.")
  in
  let deep =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:"Flatten loop towers deeper than two levels.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Typecheck the transformed program and report diagnostics; \
             on a type error print no program and exit 1.")
  in
  let lint =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Run the flatten-safety lint before transforming and refuse \
             (exit 1) on lint errors.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print diagnostics.")
  in
  Cmd.v
    (Cmd.info "flattenc" ~version:"1.0"
       ~doc:"source-to-source loop flattening for SIMD machines")
    Term.(
      const run $ path $ variant $ target $ decomp $ p $ olevel $ dump_ir
      $ naive $ assume_nonempty $ trusted $ pure_subs $ deep $ check $ lint
      $ verbose)

let () = exit (Cmd.eval' cmd)
